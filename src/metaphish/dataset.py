"""Dataset ingestion, feature scaling, split planning, and meta-tag extraction.

The benchmark CSV carries 87 precomputed lexical features per URL plus a
label column.  :func:`load_dataset` reads it once into a columnar
:class:`Dataset` whose row index is the instance id; splits and folds name
instances by id, and :meth:`Dataset.rows` turns any such id set into the
sorted row index array that selects them.  Contextual evidence for the
revision layer comes either from an optional ``meta_present`` column in the
same file or from a directory of HTML snapshots named ``<id>.html``, scanned
by :func:`extract_meta_presence`.
"""

from __future__ import annotations

import csv
import math
import random
import re
import warnings
from dataclasses import dataclass
from html.parser import HTMLParser
from pathlib import Path

import numpy as np

FEATURE_COUNT = 87
LABEL_LEGITIMATE = 0
LABEL_PHISHING = 1

_LABEL_ALIASES = {"legitimate": 0, "phishing": 1, "0": 0, "1": 1}
_META_FLAGS = {"0": 0, "1": 1}
_META_TAG_NAMES = {"description", "keywords", "keyword", "author"}


@dataclass(frozen=True, eq=False)
class Dataset:
    """All instances as columns; row ``i`` is the instance with id ``i``.

    ``X`` is the n x d float64 feature matrix, ``y`` the int64 labels (0 or
    1), and ``meta`` the per-row meta flags, or ``None`` when the dataset
    carries no meta information.  Every array is a read-only copy (``X`` in
    C order, as hashing it needs), so a Dataset can be shared freely.
    """

    X: np.ndarray
    y: np.ndarray
    meta: np.ndarray | None = None

    def __post_init__(self):
        X = np.array(self.X, dtype=np.float64, order="C")
        y = np.array(self.y)
        meta = None if self.meta is None else np.array(self.meta, dtype=bool)
        if X.ndim != 2 or y.shape != X.shape[:1] or (meta is not None and meta.shape != y.shape):
            raise ValueError("X must be an n x d matrix, and y and meta flat vectors of n values")
        bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
        if bad.size:
            raise ValueError(f"row {bad[0]}: non-finite feature value")
        bad = np.flatnonzero((y != LABEL_LEGITIMATE) & (y != LABEL_PHISHING))
        if bad.size:
            raise ValueError(f"row {bad[0]}: label must be 0 or 1, got {y[bad[0]].item()!r}")
        for name, arr in (("X", X), ("y", y.astype(np.int64)), ("meta", meta)):
            if arr is not None:
                arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return self.y.shape[0]

    def rows(self, ids) -> np.ndarray:
        """The sorted row index array that selects the instance ids ``ids``."""
        rows = np.array(sorted(set(ids)), dtype=np.intp)
        if rows.size and (rows[0] < 0 or rows[-1] >= len(self)):
            raise ValueError(f"instance ids must lie in [0, {len(self)}), got {rows[0]}..{rows[-1]}")
        return rows


@dataclass(frozen=True, eq=False)
class ScalerStats:
    """Per-column means and strictly positive standard deviations."""

    means: np.ndarray
    std_devs: np.ndarray

    def __post_init__(self):
        means = np.array(self.means, dtype=np.float64)
        stds = np.array(self.std_devs, dtype=np.float64)
        if means.shape != stds.shape or means.ndim != 1:
            raise ValueError("means and std_devs must be flat vectors of equal length")
        if not np.all(stds > 0):
            raise ValueError("std_devs must be strictly positive")
        means.flags.writeable = False
        stds.flags.writeable = False
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "std_devs", stds)

    @property
    def width(self) -> int:
        return self.means.shape[0]

    def scale(self, X) -> np.ndarray:
        """Apply ``(x - mean) / std`` per column to every row of the matrix ``X``."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.width:
            raise ValueError(f"expected {self.width} features per row, got shape {X.shape}")
        scaled = (X - self.means) / self.std_devs
        if not np.all(np.isfinite(scaled)):
            raise ValueError("non-finite feature after scaling")
        return scaled


@dataclass(frozen=True)
class SplitPlan:
    """Deterministic train/test partition plus disjoint CV folds of the train set."""

    train_ids: frozenset[int]
    test_ids: frozenset[int]
    folds: tuple[frozenset[int], ...]
    seed: int

    def __post_init__(self):
        if self.train_ids & self.test_ids:
            raise ValueError("train and test ids overlap")
        union = frozenset().union(*self.folds) if self.folds else frozenset()
        if union != self.train_ids:
            raise ValueError("folds must partition the train ids")
        total = sum(len(f) for f in self.folds)
        if total != len(self.train_ids):
            raise ValueError("folds are not pairwise disjoint")


@dataclass(frozen=True)
class CsvSchema:
    """Column mapping for the dataset CSV.

    ``meta_column`` and ``ignore_columns`` are used only when present in the
    header; the remaining columns must be exactly ``feature_count`` numeric
    feature columns.
    """

    label_column: str = "status"
    meta_column: str | None = "meta_present"
    ignore_columns: tuple[str, ...] = ("url",)
    feature_count: int = FEATURE_COUNT


def load_dataset(path: str | Path, schema: CsvSchema = CsvSchema()) -> Dataset:
    """Read the CSV at ``path`` into one :class:`Dataset`.

    Data row ``k`` (1-based) becomes instance id ``k - 1``.  ``csv`` reads the
    header, one ``np.loadtxt`` pass the data rows (:func:`_read_table`).  A file
    that pass declines is read row by row (:func:`_read_rows`), which gives the
    same Dataset or names the first malformed row.  A UTF-8 BOM is skipped.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"dataset file not found: {path}")
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected a header row") from None
        header = [h.strip() for h in header]
        if schema.label_column not in header:
            raise ValueError(f"{path}: label column {schema.label_column!r} not in header")
        label_idx = header.index(schema.label_column)
        meta_idx = None
        if schema.meta_column is not None and schema.meta_column in header:
            meta_idx = header.index(schema.meta_column)
        skip = {label_idx, meta_idx} | {
            header.index(c) for c in schema.ignore_columns if c in header
        }
        feature_idx = [i for i in range(len(header)) if i not in skip]
        if len(feature_idx) != schema.feature_count:
            raise ValueError(
                f"{path}: expected {schema.feature_count} feature columns, "
                f"found {len(feature_idx)}"
            )
        # the cells that are not features, as the row reader checks them; nan marks a bad one
        limit = csv.field_size_limit()
        converters = {**dict.fromkeys(skip, lambda cell: math.nan if len(cell) > limit else 0.0),
                      label_idx: lambda cell: _LABEL_ALIASES.get(cell.strip().lower(), math.nan),
                      meta_idx: lambda cell: _META_FLAGS.get(cell.strip(), math.nan)}
        converters.pop(None, None)
        table = _read_table(path, fh, len(header), converters)
        if table is None:
            fh.seek(0)
            next(reader)
            return _read_rows(path, reader, header, label_idx, meta_idx, feature_idx)
    meta = None if meta_idx is None else table[:, meta_idx] == 1
    return Dataset(table[:, feature_idx], table[:, label_idx].astype(np.int64), meta)


def _read_table(path: Path, fh, width: int, converters) -> np.ndarray | None:
    """The rest of ``fh`` as a float64 table of ``width`` finite columns, or None
    where :func:`_read_rows` could read it otherwise: where loadtxt raises (as
    on ``1_0`` or non-ASCII digits, which ``float`` reads), on a blank record
    (``csv`` reads a row without columns, loadtxt skips it) and on a cell over
    ``csv``'s field size limit."""
    raw = path.read_bytes()
    blanks = (b"\n\n", b"\n\r", b"\r\r") if b"\r" in raw else (b"\n\n",)
    # a comma-free run longer than the limit holds an aligned comma-free half of it
    half = csv.field_size_limit() // 2
    if any(map(raw.__contains__, blanks)) or any(
            raw.find(b",", i, i + half) < 0 for i in range(0, len(raw) - half + 1, half)):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # as for a file without data rows
            table = np.loadtxt(fh, np.float64, delimiter=",", quotechar='"', comments=None,
                               converters=converters, ndmin=2)
    except (ValueError, UserWarning):  # a ValueError also for a byte that is not UTF-8
        return None
    return table if table.shape[1] == width and np.isfinite(table).all() else None


def _read_rows(path: Path, reader, header: list[str], label_idx: int, meta_idx: int | None,
               feature_idx: list[int]) -> Dataset:
    """The data rows of ``reader``, one by one: each row's width and label, its
    features by ``float``, then its meta cell, naming the first bad data row."""
    labels, values, meta = [], [], []
    for row_num, row in enumerate(reader, start=1):
        if len(row) != len(header):
            raise ValueError(
                f"{path}: data row {row_num}: expected {len(header)} columns, got {len(row)}"
            )
        raw_label = row[label_idx].strip().lower()
        if raw_label not in _LABEL_ALIASES:
            raise ValueError(f"{path}: data row {row_num}: unknown label value {row[label_idx]!r}")
        labels.append(_LABEL_ALIASES[raw_label])
        try:
            values.extend(map(float, map(row.__getitem__, feature_idx)))
        except ValueError:
            for i in feature_idx:
                try:
                    float(row[i])
                except ValueError:
                    raise ValueError(f"{path}: data row {row_num}: non-numeric feature value "
                                     f"{row[i]!r} in column {header[i]!r}") from None
        if meta_idx is not None:
            raw_meta = row[meta_idx].strip()
            if raw_meta not in _META_FLAGS:
                raise ValueError(
                    f"{path}: data row {row_num}: meta column must be 0 or 1, got {row[meta_idx]!r}"
                )
            meta.append(raw_meta == "1")
    X = np.array(values, dtype=np.float64).reshape(len(labels), len(feature_idx))
    bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
    if bad.size:
        raise ValueError(f"{path}: data row {bad[0] + 1}: non-finite feature value")
    return Dataset(X, labels, meta if meta_idx is not None else None)


def fit_scaler(data: Dataset, train_ids) -> ScalerStats:
    """Column means and population standard deviations over the training rows only.

    Constant columns get their exact value as the mean and a std of 1.0, so
    scaling them is a pure centering to zero.
    """
    X = data.X[data.rows(train_ids)]
    if not len(X):
        raise ValueError("empty training set")
    lo = X.min(axis=0)
    constant = lo == X.max(axis=0)
    means = np.where(constant, lo, X.mean(axis=0))
    std = np.sqrt(np.mean((X - means) ** 2, axis=0))
    std = np.where(constant, 1.0, std)
    return ScalerStats(means, std)


def _test_quotas(counts: dict[int, int], test_fraction: float) -> dict[int, int]:
    """Test rows per class: ``round(test_fraction * n)`` in all, apportioned
    by largest remainder (ties to the lower label)."""
    total_test = int(round(test_fraction * sum(counts.values())))
    exact = {lab: test_fraction * n for lab, n in counts.items()}
    quota = {lab: math.floor(v) for lab, v in exact.items()}
    leftover = total_test - sum(quota.values())
    for lab in sorted(exact, key=lambda l: (-(exact[l] - quota[l]), l)):
        if leftover <= 0:
            break
        quota[lab] += 1
        leftover -= 1
    return quota


def train_class_counts(data: Dataset, test_fraction: float) -> dict[int, int]:
    """Rows of each class that :func:`make_split` puts in the train set (the
    same for every seed)."""
    labels, counts = np.unique(data.y, return_counts=True)
    counts = dict(zip(labels.tolist(), counts.tolist()))
    quota = _test_quotas(counts, test_fraction)
    return {lab: n - quota[lab] for lab, n in counts.items()}


def make_split(
    data: Dataset,
    test_fraction: float = 0.2,
    n_folds: int = 5,
    seed: int = 42,
) -> SplitPlan:
    """Label-stratified train/test split plus stratified CV folds.

    Per-class test quotas are apportioned by largest remainder so the test
    set size equals ``round(test_fraction * n)`` and each class is within one
    instance of its exact share.  Deterministic for a fixed seed.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be strictly between 0 and 1")
    if n_folds < 2:
        raise ValueError("n_folds must be at least 2")
    by_label: dict[int, list[int]] = {}
    for rid, label in enumerate(data.y.tolist()):
        by_label.setdefault(label, []).append(rid)
    quota = _test_quotas({lab: len(ids) for lab, ids in by_label.items()}, test_fraction)
    n_train = len(data) - sum(quota.values())
    if n_train < n_folds:
        raise ValueError(f"fewer records in the train set ({n_train}) than folds ({n_folds})")

    rng = random.Random(seed)
    test_ids: list[int] = []
    train_by_label: dict[int, list[int]] = {}
    for lab in sorted(by_label):
        ids = list(by_label[lab])
        rng.shuffle(ids)
        test_ids.extend(ids[: quota[lab]])
        train_by_label[lab] = ids[quota[lab] :]

    folds: list[set[int]] = [set() for _ in range(n_folds)]
    for lab in sorted(train_by_label):
        for i, rid in enumerate(train_by_label[lab]):
            folds[i % n_folds].add(rid)

    train_ids = frozenset(i for ids in train_by_label.values() for i in ids)
    return SplitPlan(train_ids, frozenset(test_ids), tuple(frozenset(f) for f in folds), seed)


# Where a meta start tag can begin: html.parser starts a tag only at "<" plus
# an ASCII letter and lowercases its name, and no non-ASCII character
# lowercases to "m", "e", "t" or "a".
_META_OPEN = re.compile("<[mM][eE][tT][aA]")


class _Settled(Exception):
    """Raised inside the scanner once no later markup can change its flag."""


class _MetaTagScanner(HTMLParser):
    """Flags the first meta element naming a descriptive field with content.

    Stops at that element, or at the first tag that begins past ``last``, the
    ``getpos()`` (line, column) of the last place a meta start tag can begin.
    """

    def __init__(self, last: tuple[int, int]):
        super().__init__(convert_charrefs=True)
        self.found = False
        self.last = last

    def handle_starttag(self, tag, attrs):
        self._stop_if_past()
        if tag != "meta":
            return
        name = content = None
        for key, value in attrs:
            if key == "name" and name is None:
                name = value
            elif key == "content" and content is None:
                content = value
        if name and name.strip().lower() in _META_TAG_NAMES and content and content.strip():
            self.found = True
            raise _Settled

    def handle_endtag(self, tag):
        self._stop_if_past()

    def _stop_if_past(self):
        if self.getpos() > self.last:
            raise _Settled


def extract_meta_presence(html: str) -> bool:
    """True iff the document has a description/keywords/keyword/author meta tag
    with non-empty (non-whitespace) content.

    Tolerant of attribute order, quoting style, tag case, and unclosed tags.
    Markup that ``html.parser`` gives up on (it raises ``AssertionError``, as
    for ``<![foo]]>``) ends the scan with what was found before it; any other
    error propagates.  A page without ``<meta`` (in any case) is not parsed,
    and the parse stops once the flag is settled: at the first descriptive
    tag, or at the first tag past the last ``<meta``.
    """
    last = None
    for last in _META_OPEN.finditer(html):
        pass
    if last is None:
        return False
    # (line, column) as html.parser's updatepos counts them: "\n" ends a line
    at = last.start()
    scanner = _MetaTagScanner((html.count("\n", 0, at) + 1, at - html.rfind("\n", 0, at) - 1))
    try:
        scanner.feed(html)
        scanner.close()
    except (_Settled, AssertionError):
        pass
    return scanner.found


def load_meta_from_snapshots(directory: str | Path, ids) -> dict[int, bool]:
    """Synthesize the meta column from a directory of ``<id>.html`` snapshots.

    IDs without a snapshot file count as meta-absent.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise FileNotFoundError(f"snapshot directory not found: {directory}")
    flags = {}
    for rid in ids:
        page = directory / f"{rid}.html"
        if page.is_file():
            flags[rid] = extract_meta_presence(page.read_text(encoding="utf-8", errors="replace"))
        else:
            flags[rid] = False
    return flags

