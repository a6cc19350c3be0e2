from __future__ import annotations

import csv
import hashlib
import math
import random
import re
import warnings

import numpy as np
import pytest

from metaphish import dataset
from metaphish.dataset import (
    CsvSchema,
    Dataset,
    ScalerStats,
    extract_meta_presence,
    fit_scaler,
    load_dataset,
    load_meta_from_snapshots,
    make_split,
)

from _support import (FIXTURE_CSV, benchmark_csv, edit_row, full_parse_meta_presence, make_records,
                      set_cell)

# Hand-written 10-row fixture with 5 feature columns; the expected vectors
# below are the authored values, asserted byte-for-byte after parsing.
TINY_CSV = """url,f1,f2,f3,f4,f5,status
http://a.example/,0.5,-1.25,3.0,0.0,7.5,legitimate
http://b.example/,1.5,2.25,-3.0,1.0,-7.5,phishing
http://c.example/,2.5,0.0,0.125,2.0,0.25,legitimate
http://d.example/,3.5,1.0,-0.125,3.0,-0.25,phishing
http://e.example/,4.5,-2.0,10.0,4.0,100.0,legitimate
http://f.example/,5.5,2.0,-10.0,5.0,-100.0,phishing
http://g.example/,6.5,0.5,0.001,6.0,12.5,legitimate
http://h.example/,7.5,-0.5,-0.001,7.0,-12.5,phishing
http://i.example/,8.5,3.75,5.5,8.0,0.0,legitimate
http://j.example/,9.5,-3.75,-5.5,9.0,1.0,phishing
"""

TINY_EXPECTED = [
    [0.5, -1.25, 3.0, 0.0, 7.5],
    [1.5, 2.25, -3.0, 1.0, -7.5],
    [2.5, 0.0, 0.125, 2.0, 0.25],
    [3.5, 1.0, -0.125, 3.0, -0.25],
    [4.5, -2.0, 10.0, 4.0, 100.0],
    [5.5, 2.0, -10.0, 5.0, -100.0],
    [6.5, 0.5, 0.001, 6.0, 12.5],
    [7.5, -0.5, -0.001, 7.0, -12.5],
    [8.5, 3.75, 5.5, 8.0, 0.0],
    [9.5, -3.75, -5.5, 9.0, 1.0],
]

TINY_SCHEMA = CsvSchema(feature_count=5)


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadDataset:
    def test_tiny_fixture_byte_match(self, tmp_path):
        data = load_dataset(_write(tmp_path, TINY_CSV), TINY_SCHEMA)
        assert len(data) == 10
        assert data.y.tolist() == [0, 1] * 5
        assert data.X.tolist() == TINY_EXPECTED
        assert data.meta is None
        with pytest.raises(ValueError):
            data.X[0, 0] = 5.0

    def test_empty_file_with_header(self, tmp_path):
        path = _write(tmp_path, "url,f1,f2,f3,f4,f5,status\n")
        data = load_dataset(path, TINY_SCHEMA)
        assert len(data) == 0
        assert data.X.shape == (0, 5)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "nope.csv", TINY_SCHEMA)

    def test_zero_byte_file(self, tmp_path):
        with pytest.raises(ValueError, match="header"):
            load_dataset(_write(tmp_path, ""), TINY_SCHEMA)

    def test_non_numeric_cell_names_row(self, tmp_path):
        bad = TINY_CSV.replace("2.5,0.0", "2.5,oops")
        with pytest.raises(ValueError, match=r"data row 3.*non-numeric"):
            load_dataset(_write(tmp_path, bad), TINY_SCHEMA)

    def test_non_finite_cell_names_row(self, tmp_path):
        bad = TINY_CSV.replace("2.5,0.0", "2.5,nan")
        with pytest.raises(ValueError, match=r"data row 3.*non-finite"):
            load_dataset(_write(tmp_path, bad), TINY_SCHEMA)

    def test_unknown_label_names_row(self, tmp_path):
        bad = TINY_CSV.replace("9.5,-3.75,-5.5,9.0,1.0,phishing", "9.5,-3.75,-5.5,9.0,1.0,maybe")
        with pytest.raises(ValueError, match=r"data row 10.*unknown label"):
            load_dataset(_write(tmp_path, bad), TINY_SCHEMA)

    def test_wrong_column_count_names_row(self, tmp_path):
        bad = TINY_CSV.replace("http://f.example/,5.5,2.0", "http://f.example/,2.0")
        with pytest.raises(ValueError, match=r"data row 6.*columns"):
            load_dataset(_write(tmp_path, bad), TINY_SCHEMA)

    def test_numeric_label_coding(self, tmp_path):
        text = "f1,status\n1.0,0\n2.0,1\n"
        data = load_dataset(_write(tmp_path, text), CsvSchema(feature_count=1))
        assert data.y.tolist() == [0, 1]

    def test_meta_column_parsed(self, tmp_path):
        text = "f1,status,meta_present\n1.0,0,1\n2.0,1,0\n"
        data = load_dataset(_write(tmp_path, text), CsvSchema(feature_count=1))
        assert data.meta.tolist() == [True, False]

    def test_meta_column_strict_values(self, tmp_path):
        text = "f1,status,meta_present\n1.0,0,yes\n"
        with pytest.raises(ValueError, match=r"data row 1.*meta"):
            load_dataset(_write(tmp_path, text), CsvSchema(feature_count=1))

    def test_wrong_feature_column_count(self, tmp_path):
        with pytest.raises(ValueError, match="expected 4 feature columns"):
            load_dataset(_write(tmp_path, TINY_CSV), CsvSchema(feature_count=4))

    def test_bad_feature_reported_before_bad_meta_of_its_row(self, tmp_path):
        text = "f1,status,meta_present\n1.0,0,1\noops,1,2\n"
        with pytest.raises(ValueError, match=r"data row 2: non-numeric feature value 'oops'"):
            load_dataset(_write(tmp_path, text), CsvSchema(feature_count=1))

    def test_first_bad_row_reported_first(self, tmp_path):
        bad = TINY_CSV.replace("1.5,2.25", "1.5,oops").replace(
            "2.0,0.25,legitimate", "2.0,0.25,maybe")
        with pytest.raises(ValueError, match=r"data row 2: non-numeric feature value 'oops' "
                                             r"in column 'f2'"):
            load_dataset(_write(tmp_path, bad), TINY_SCHEMA)

    def test_blank_line_is_a_row_without_columns(self, tmp_path):
        lines = FIXTURE_CSV.read_text(encoding="utf-8").splitlines(keepends=True)
        path = _write(tmp_path, "".join([*lines[:3], "\n", *lines[3:]]))
        with pytest.raises(ValueError, match=r"data row 3: expected 90 columns, got 0$"):
            load_dataset(path)

    def test_quoted_cell_with_comma_parses(self, tmp_path):
        bad = TINY_CSV.replace("http://c.example/", '"http://c.example/?a=1,b=2"')
        data = load_dataset(_write(tmp_path, bad), TINY_SCHEMA)
        assert data.X.tolist() == TINY_EXPECTED

    def test_fixture_dataset_shape(self):
        data = load_dataset(FIXTURE_CSV)
        assert data.X.shape == (200, 87)
        assert int(np.sum(data.y == 0)) == 100
        assert int(np.sum(data.y == 1)) == 100
        assert int(np.sum((data.y == 0) & data.meta)) == 50
        assert int(np.sum((data.y == 1) & data.meta)) == 10


# a blank line before data row 5
_BLANK_LINE = edit_row(set_cell(0, lambda cell: "\n" + cell))

# edits of the fixture (url, 87 features, status, meta_present), each with
# whether the loadtxt pass reads the result; the row reader reads the rest
READER_CASES = {
    "fixture": (lambda text: text, True),
    "crlf": (lambda text: text.replace("\n", "\r\n"), True),
    "cr-only": (lambda text: text.replace("\n", "\r"), True),
    "quoted-url-comma": (edit_row(set_cell(0, lambda cell: f'"{cell}?a=1,b=2"')), True),
    "quoted-url-line-break": (edit_row(set_cell(0, lambda cell: f'"{cell}\n?a=1"')), True),
    "quoted-header": (lambda text: '"url"' + text[3:], True),
    "blank-line": (_BLANK_LINE, False),
    "crlf-blank-line": (lambda text: _BLANK_LINE(text).replace("\n", "\r\n"), False),
    "trailing-blank-line": (lambda text: text + "\n", False),
    "whitespace-line": (edit_row(set_cell(0, lambda cell: "   \n" + cell)), False),
    "no-final-newline": (lambda text: text.rstrip("\n"), True),
    "header-only": (lambda text: text.split("\n")[0] + "\n", False),
    "bom": (lambda text: "\ufeff" + text, True),
    "bom-blank-line": (lambda text: "\ufeff" + _BLANK_LINE(text), False),
    "not-utf-8": (edit_row(set_cell(0, lambda cell: cell + "\udcff"), row=150), False),  # 0xff
    "digit-underscore": (edit_row(set_cell(10, "1_0")), False),
    "non-ascii-digit": (edit_row(set_cell(10, "\u0661.5")), False),
    "nul-byte": (edit_row(set_cell(10, lambda cell: cell + "\x00")), False),
    "extra-cell": (edit_row(lambda cells: [*cells, "1"]), False),
    "extra-cell-every-row": (lambda text: text.replace("\n", ",1\n").replace(",1\n", "\n", 1),
                             False),
    "padded-label": (edit_row(set_cell(88, lambda cell: f" {cell.upper()} ")), True),
    "padded-meta": (edit_row(set_cell(89, lambda cell: f" {cell}\t")), True),
    "nan": (edit_row(set_cell(10, "nan")), False),
    "overflow": (edit_row(set_cell(10, "1e400")), False),
}


def _outcome(path):
    """The loaded dataset's bytes, or the error it raises."""
    try:
        data = load_dataset(path)
    except (ValueError, csv.Error) as exc:
        return f"{type(exc).__name__}: {exc}"
    return (data.X.shape, data.X.tobytes(), data.y.dtype, data.y.tobytes(), data.meta.tobytes())


def _read_both(path, monkeypatch):
    """load_dataset's outcome, whether its loadtxt pass read the file, and
    the row reader's outcome alone."""
    read_table, tables = dataset._read_table, []
    monkeypatch.setattr(dataset, "_read_table",
                        lambda *args: tables.append(read_table(*args)) or tables[-1])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        outcome = _outcome(path)
    assert not caught, [str(w.message) for w in caught]  # as loadtxt's on a file without rows
    monkeypatch.setattr(dataset, "_read_table", lambda *args: None)
    return outcome, tables[0] is not None, _outcome(path)


class TestReadersAgree:
    """The loadtxt pass against the row reader, which it falls back to."""

    @pytest.mark.parametrize("case", READER_CASES)
    def test_same_dataset_or_same_error(self, tmp_path, monkeypatch, case):
        edit, fast = READER_CASES[case]
        text = FIXTURE_CSV.read_text(encoding="utf-8")
        assert case == "fixture" or edit(text) != text
        path = tmp_path / "data.csv"
        path.write_bytes(edit(text).encode("utf-8", "surrogateescape"))
        outcome, read_by_loadtxt, by_rows = _read_both(path, monkeypatch)
        assert outcome == by_rows
        assert read_by_loadtxt == fast

    @pytest.mark.parametrize("cell,value", [(None, None), (0, '"' + "a," * 60 + '"'),
                                            (10, "0" * 120 + "1")], ids=["none", "url", "feature"])
    def test_cell_over_the_csv_field_limit(self, tmp_path, monkeypatch, cell, value):
        # csv rejects a cell of more than field_size_limit() characters
        text = FIXTURE_CSV.read_text(encoding="utf-8")
        path = _write(tmp_path, text if cell is None else edit_row(set_cell(cell, value))(text))
        limit = csv.field_size_limit(100)
        try:
            outcome, read_by_loadtxt, by_rows = _read_both(path, monkeypatch)
        finally:
            csv.field_size_limit(limit)
        assert outcome == by_rows
        assert read_by_loadtxt == (cell is None)
        assert cell is None or outcome == "Error: field larger than field limit (100)"

    def test_random_table_loads_alike(self, tmp_path, monkeypatch):
        # values of every magnitude, each cell in one of several number formats
        rng = np.random.default_rng(5)
        X = rng.normal(size=(500, 87)) * 10.0 ** rng.integers(-30, 30, size=(500, 87))
        formats = [repr, "{:.6f}".format, "{:.3e}".format, "{:+.0f}".format, " {} ".format]
        picks = rng.integers(len(formats), size=X.shape)
        lines = [",".join(["url", *(f"f{j}" for j in range(87)), "status", "meta_present"])]
        for i, row in enumerate(X.tolist()):
            cells = [formats[k](v) for k, v in zip(picks[i], row)]
            lines.append(",".join([f"http://{i}.example/", *cells, "01"[i % 2], "01"[i % 3 == 0]]))
        outcome, read_by_loadtxt, by_rows = _read_both(
            _write(tmp_path, "\n".join(lines) + "\n"), monkeypatch)
        assert outcome[0] == (500, 87) and read_by_loadtxt
        assert outcome == by_rows


class TestDataset:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="row 1: non-finite"):
            Dataset([[1.0, 2.0], [1.0, math.inf]], [0, 1])

    def test_rejects_bad_label(self):
        with pytest.raises(ValueError, match="row 0: label must be 0 or 1, got 2"):
            Dataset([[1.0]], [2])

    def test_rejects_ragged_shapes(self):
        with pytest.raises(ValueError, match="n x d"):
            Dataset([1.0, 2.0], [0, 1])
        with pytest.raises(ValueError, match="n x d"):
            Dataset([[1.0], [2.0]], [0])
        with pytest.raises(ValueError, match="meta"):
            Dataset([[1.0], [2.0]], [0, 1], meta=[True])

    def test_features_are_read_only(self):
        source = np.array([[1.0, 2.0]])
        data = Dataset(source, [0], meta=[True])
        source[0, 0] = 9.0
        assert data.X.tolist() == [[1.0, 2.0]]  # a copy, not a view
        for arr in (data.X, data.y, data.meta):
            with pytest.raises(ValueError):
                arr[0] = 1

    def test_features_are_c_ordered(self):
        # hashlib reads X as one buffer: the run_inputs.kv fingerprint needs C order
        data = Dataset(np.asfortranarray(np.ones((3, 2))), [0, 1, 0])
        assert data.X.flags.c_contiguous
        assert hashlib.sha256(data.X).hexdigest() == hashlib.sha256(np.ones((3, 2))).hexdigest()

    def test_rows_are_sorted_and_in_range(self):
        data = make_records(5, d=1)
        assert data.rows({3, 0, 4}).tolist() == [0, 3, 4]
        assert data.rows(set()).tolist() == []
        for bad in ({5}, {-1}):
            with pytest.raises(ValueError, match=r"\[0, 5\)"):
                data.rows(bad)


@pytest.mark.parametrize("make", [
    lambda: Dataset([[1.0, 2.0], [3.0, 4.0]], [0, 1], meta=[True, False]),
    lambda: ScalerStats([0.5], [2.0]),  # width 1 compared by value before
    lambda: ScalerStats([0.5, 1.0], [2.0, 3.0]),  # wider raised "ambiguous"
], ids=["dataset", "scaler-width-1", "scaler-width-2"])
def test_equality_is_identity(make):
    a, b = make(), make()
    assert a == a and not a == b and a != b
    assert len({a, b}) == 2


class TestScaler:
    def test_constant_column_centering(self):
        data = Dataset([[5.0]] * 3, [0] * 3)
        stats = fit_scaler(data, {0, 1, 2})
        assert stats.means.tolist() == [5.0]
        assert stats.std_devs.tolist() == [1.0]
        assert stats.scale(data.X).tolist() == [[0.0]] * 3

    def test_two_point_column(self):
        stats = fit_scaler(Dataset([[0.0], [1.0]], [0, 1]), {0, 1})
        assert stats.means.tolist() == [0.5]
        assert stats.std_devs.tolist() == [0.5]

    def test_matches_two_pass_oracle(self):
        # independent oracle: plain-python two-pass mean and population variance
        rng = np.random.default_rng(11)
        X = rng.normal(3.0, 2.5, size=(100, 87))
        stats = fit_scaler(Dataset(X, np.arange(100) % 2), set(range(100)))
        for j in range(87):
            col = [float(X[i, j]) for i in range(100)]
            mean = sum(col) / len(col)
            var = sum((v - mean) ** 2 for v in col) / len(col)
            assert abs(stats.means[j] - mean) < 1e-12
            assert abs(stats.std_devs[j] - math.sqrt(var)) < 1e-12

    def test_train_rows_only(self):
        data = Dataset([[0.0], [2.0], [1000.0]], [0, 1, 0])
        stats = fit_scaler(data, {0, 1})
        assert stats.means.tolist() == [1.0]

    def test_empty_training_set(self):
        with pytest.raises(ValueError, match="empty training set"):
            fit_scaler(make_records(5, d=3), set())

    def test_scale_zscore_bounds(self):
        data = make_records(64, d=12, seed=5)
        X = fit_scaler(data, set(range(64))).scale(data.X)
        assert np.all(np.abs(X.mean(axis=0)) < 1e-9)
        assert np.all(np.abs(np.sqrt((X**2).mean(axis=0) - X.mean(axis=0) ** 2) - 1.0) < 1e-9)

    def test_scale_identity_stats(self):
        data = make_records(4, d=3, seed=1)
        stats = ScalerStats(np.zeros(3), np.ones(3))
        assert np.array_equal(stats.scale(data.X), data.X)

    def test_scale_single_value(self):
        stats = ScalerStats(np.array([5.0]), np.array([2.0]))
        assert stats.scale([[7.0]]).tolist() == [[1.0]]

    def test_scale_dimension_mismatch(self):
        stats = ScalerStats(np.zeros(3), np.ones(3))
        with pytest.raises(ValueError, match="expected 3 features"):
            stats.scale(np.ones((1, 1)))


class TestMakeSplit:
    def test_balanced_sizes(self):
        data = make_records(11430, d=1)
        split = make_split(data, 0.2, 5, seed=42)
        assert len(split.test_ids) == 2286
        assert len(split.train_ids) == 9144
        per_class = [sum(1 for i in split.test_ids if data.y[i] == c) for c in (0, 1)]
        assert per_class == [1143, 1143]

    def test_deterministic(self):
        data = make_records(101, d=1)
        assert make_split(data, 0.2, 5, seed=9) == make_split(data, 0.2, 5, seed=9)
        assert make_split(data, 0.2, 5, seed=9) != make_split(data, 0.2, 5, seed=10)

    def test_partition_round_trip(self):
        data = make_records(103, d=1)
        split = make_split(data, 0.3, 4, seed=0)
        assert split.train_ids | split.test_ids == set(range(len(data)))
        assert not split.train_ids & split.test_ids
        assert frozenset().union(*split.folds) == split.train_ids
        assert sum(len(f) for f in split.folds) == len(split.train_ids)

    def test_test_size_within_one(self):
        for n in (37, 101, 250):
            data = make_records(n, d=1)
            split = make_split(data, 0.2, 5, seed=1)
            assert abs(len(split.test_ids) - 0.2 * n) <= 1

    def test_stratification_bound(self):
        data = make_records(157, d=1, seed=2)
        split = make_split(data, 0.25, 5, seed=3)
        n_class = [int(np.sum(data.y == c)) for c in (0, 1)]
        test_frac = [
            sum(1 for i in split.test_ids if data.y[i] == c) / n_class[c] for c in (0, 1)
        ]
        assert abs(test_frac[0] - test_frac[1]) <= 1 / len(split.test_ids) + 1e-12

    def test_split_properties_hypothesis(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hypothesis.settings(max_examples=200, deadline=None)
        @hypothesis.given(
            st.lists(st.sampled_from([0, 1]), min_size=2, max_size=300),
            st.floats(0.01, 0.99),
            st.integers(2, 10),
            st.integers(0, 2**32 - 1),
        )
        def check(labels, fraction, n_folds, seed):
            hypothesis.assume(n_folds <= len(labels) - round(fraction * len(labels)))
            data = Dataset(np.zeros((len(labels), 1)), labels)
            split = make_split(data, fraction, n_folds, seed)
            assert not split.train_ids & split.test_ids
            assert split.train_ids | split.test_ids == set(range(len(labels)))
            assert frozenset().union(*split.folds) == split.train_ids
            assert sum(len(f) for f in split.folds) == len(split.train_ids)
            assert len(split.test_ids) == round(fraction * len(labels))
            for c in (0, 1):
                in_test = sum(1 for i in split.test_ids if labels[i] == c)
                assert abs(in_test - fraction * labels.count(c)) <= 1
            assert make_split(data, fraction, n_folds, seed) == split

        check()

    def test_errors(self):
        data = make_records(10, d=1)
        with pytest.raises(ValueError):
            make_split(data, 0.0, 5)
        with pytest.raises(ValueError):
            make_split(data, 1.0, 5)
        with pytest.raises(ValueError):
            make_split(data, 0.2, 1)
        with pytest.raises(ValueError, match="fewer records"):
            make_split(data, 0.2, 11)
        # 8 of the 10 rows train: more folds than that leaves a fold empty
        with pytest.raises(ValueError, match=re.escape("train set (8) than folds (9)")):
            make_split(data, 0.2, 9)


META_CORPUS = [
    ('<meta name="description" content="shop">', True),
    ("", False),
    ("<META CONTENT='x' NAME=\"Author\">", True),
    ('<meta name="keywords" content="a,b">', True),
    ('<meta name="keyword" content="a">', True),
    ('<meta name="description" content="">', False),
    ('<meta name="description" content="   ">', False),
    ('<meta name="description">', False),
    ('<meta content="x">', False),
    ('<meta property="og:description" content="x">', False),
    ('<meta charset="utf-8">', False),
    ('<meta name=author content=someone>', True),
    ("<html><head><meta name='Keywords' content='k'></head>", True),
    ("<p>plain text, no markup at all", False),
    ("<meta name=\"description\" content=\"x\"", False),  # tag never closed
    ("<<<>>><meta name='description' content='y'>", True),
    ('<meta name="robots" content="noindex">', False),
    ('<div><meta name="AUTHOR" content="Z"></div>', True),
    ("<![foo]]>", False),  # html.parser raises AssertionError on this marked section
    # the scan stops at the first descriptive tag or past the last "<meta"
    (
        "<html><head><meta charset='utf-8'></head><body>"
        + "<div><p>filler</p></div>\n" * 820
        + "<meta name='description' content='late'></body>",
        True,
    ),
    (
        "<head><meta name='viewport' content='width=device-width'></head>"
        "<body><p>x</p><!-- <meta name='description' content='old'> --></body>",
        False,
    ),
    ("\u0130\r\n<p>\u0130</p>\r\n<meta name='author' content='a'>", True),
    ("\u0130\r\n<meta name='author' content=''>\r\n<p>\u0130</p>", False),
    ("<metadata name=description content=x>", False),
]

# Pieces of the random documents the scanner is checked on against a full
# parse: each hits a case of the stop rules (a "<meta" that is not a tag,
# positions after non-ASCII text and "\r\n", markup the parser gives up on).
META_FRAGMENTS = [
    '<meta name="description" content="shop">',
    "<META NAME=keywords CONTENT=k>",
    "<meta content='a' name='author'/>",
    '<meta charset="utf-8">',
    '<meta name="viewport" content="width=device-width">',
    '<meta name="description" content=" ">',
    "<META",
    "<metadata name=description content=x>",
    '<!-- <meta name="description" content="c"> -->',
    '<script>var s = "<meta name=description content=s>";</script>',
    "<script>",
    "</script>",
    '<textarea><meta name="author" content="t"></textarea>',
    '<a title="<meta name=keywords content=v>">x</a>',
    "<![CDATA[<meta name=description content=d>]]>",
    "<![foo]]>",
    "\n",
    "\r\n",
    "\u0130",
    "&",
    "&#",
    "<",
    '<meta name="description" content="x"',  # left open when it ends the page
    "<m",
    'eta name="keywords" content="k">',
    "<p>",
    "</p>",
    "text ",
]


def _corpus_id(value):
    # a long page gets a short name; every other case keeps pytest's own id
    if isinstance(value, str) and len(value) > 1000:
        return f"{len(value)}-char page ending {value[-40:]}"
    return None


class TestExtractMetaPresence:
    @pytest.mark.parametrize("html,expected", META_CORPUS, ids=_corpus_id)
    def test_corpus(self, html, expected):
        assert extract_meta_presence(html) is expected

    def test_pure_and_order_independent(self):
        docs = [html for html, _ in META_CORPUS]
        first = [extract_meta_presence(d) for d in docs]
        second = [extract_meta_presence(d) for d in reversed(docs)]
        assert first == list(reversed(second))
        assert first == [extract_meta_presence(d) for d in docs]

    def test_scanner_bug_is_not_swallowed(self, monkeypatch):
        # only the parser's AssertionError means "malformed markup"; a fault in
        # the scanner itself must surface instead of reading as meta-absent
        def broken(self, tag, attrs):
            raise TypeError("scanner fault")

        monkeypatch.setattr(dataset._MetaTagScanner, "handle_starttag", broken)
        with pytest.raises(TypeError, match="scanner fault"):
            extract_meta_presence('<meta name="description" content="x">')

    def test_stop_check_fault_is_not_swallowed(self, monkeypatch):
        def broken(self, tag):
            raise TypeError("stop check fault")

        monkeypatch.setattr(dataset._MetaTagScanner, "handle_endtag", broken)
        with pytest.raises(TypeError, match="stop check fault"):
            extract_meta_presence('<p></p><meta name="description" content="x">')

    def test_scan_stops_early(self, monkeypatch):
        calls = []
        for name in ("handle_starttag", "handle_endtag", "handle_data"):
            def counting(self, *args, _handler=getattr(dataset._MetaTagScanner, name)):
                calls.append(args[0])
                return _handler(self, *args)

            monkeypatch.setattr(dataset._MetaTagScanner, name, counting)
        body = "<body>" + "<p>text</p>\n" * 2000 + "</body></html>"
        pages = [
            ("<html><head><meta name='description' content='d'></head>" + body, True),
            ("<html><head><meta name='viewport' content='width=640'></head>" + body, False),
        ]
        for page, expected in pages:
            calls.clear()
            assert extract_meta_presence(page) is expected
            assert len(calls) <= 5, calls
            assert full_parse_meta_presence(page) is expected

    def test_agrees_with_full_parse(self):
        rng = random.Random(61)
        found = 0
        for _ in range(20000):
            html = "".join(rng.choice(META_FRAGMENTS) for _ in range(rng.randrange(13)))
            expected = full_parse_meta_presence(html)
            assert extract_meta_presence(html) is expected, html
            found += expected
        assert 5000 < found < 15000  # both outcomes are well exercised

    def test_agrees_with_full_parse_hypothesis(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hypothesis.settings(max_examples=500, deadline=None)
        @hypothesis.given(st.lists(st.sampled_from(META_FRAGMENTS), max_size=16))
        def check(parts):
            html = "".join(parts)
            assert extract_meta_presence(html) is full_parse_meta_presence(html)

        check()

    def test_snapshot_directory(self, tmp_path):
        (tmp_path / "0.html").write_text('<meta name="description" content="x">')
        (tmp_path / "2.html").write_text("<p>nothing here</p>")
        flags = load_meta_from_snapshots(tmp_path, [0, 1, 2])
        assert flags == {0: True, 1: False, 2: False}

    def test_snapshot_directory_missing(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_meta_from_snapshots(tmp_path / "missing", [0])


@pytest.mark.skipif(benchmark_csv() is None, reason="benchmark CSV not available")
class TestBenchmarkDataset:
    def test_row_and_class_counts(self):
        data = load_dataset(benchmark_csv())
        assert len(data) == 11430
        assert int(np.sum(data.y == 0)) == 5715
        assert int(np.sum(data.y == 1)) == 5715

    def test_split_sizes(self):
        data = load_dataset(benchmark_csv())
        split = make_split(data, 0.2, 5, seed=42)
        assert len(split.test_ids) == 2286
        assert sum(1 for i in split.test_ids if data.y[i] == 0) == 1143

    def test_meta_distribution(self):
        data = load_dataset(benchmark_csv())
        if data.meta is None:
            pytest.skip("benchmark CSV has no meta_present column")
        legit = int(np.sum((data.y == 0) & data.meta))
        phish = int(np.sum((data.y == 1) & data.meta))
        assert (legit, phish) == (2887, 569)
