"""Deterministic benchmark inputs, derived from the workload seed alone.

* :func:`make_standin` draws an n x 87 stand-in for the benchmark CSV:
  balanced labels, 47 real-valued columns (the first ten shifted by class,
  as in ``tests/data/make_synthetic.py``) and 40 integer-valued count
  columns, and a ``meta_present`` flag set on about half of the legitimate
  rows and a tenth of the phishing rows.
* :func:`render_pages` renders one ``<id>.html`` snapshot per row whose meta
  tags agree with that row's flag; :func:`write_pages` writes them out.
  Page sizes are log-normal around a given median (σ = :data:`PAGE_SIGMA`),
  clipped to [median / 5, median x 6].

The same seed gives the same bytes; the CSV and the pages draw from
separate generator streams, so a change to one leaves the other as it was.
Page sizes depend on the row count alone, not on the seed: the seed changes
what the pages say, not how many bytes a run scans.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

N_FEATURES = 87
N_INT_COLUMNS = 40
N_SHIFTED = 10
SHIFT = 0.8
META_RATE = {0: 0.5, 1: 0.1}

PAGE_SIGMA = 0.5

# Descriptive meta tags the parser must find, one per variant it documents:
# plain, attribute order, single quotes, unquoted value, tag case, self-closing.
PRESENT_VARIANTS = (
    '<meta name="description" content="{text}">',
    '<meta content="{text}" name="keywords">',
    "<meta name='author' content='{text}'>",
    "<meta name=keyword content={word}>",
    '<META NAME="Description" CONTENT="{text}">',
    '<meta name="description" content="{text}" />',
)
# Pages without a descriptive meta tag that carries content.
ABSENT_VARIANTS = (
    "",
    '<meta name="viewport" content="width=device-width, initial-scale=1">',
    '<meta name="description" content="">',
    '<meta name="keywords" content="   ">',
    '<meta name="robots" content="index, follow"><meta property="og:description" content="{text}">',
    '<!-- <meta name="description" content="{text}"> -->',
)

_WORDS = (
    "account bank secure login verify update service support online store "
    "shipping order payment card offer free news blog travel music photo "
    "video sport health school market price review guide home contact"
).split()


@dataclass(frozen=True)
class Standin:
    """Feature matrix, labels (1 = phishing) and meta flags, row i = id i."""

    X: np.ndarray
    y: np.ndarray
    meta: np.ndarray

    def __len__(self):
        return len(self.y)


def make_standin(n_rows: int, seed: int) -> Standin:
    if n_rows < 2 or n_rows % 2:
        raise ValueError("the stand-in needs an even number of rows, at least 2")
    rng = np.random.default_rng([seed, 0])
    y = np.repeat(np.array([0, 1]), n_rows // 2)
    rng.shuffle(y)
    n_real = N_FEATURES - N_INT_COLUMNS
    X = np.empty((n_rows, N_FEATURES))
    X[:, :n_real] = rng.normal(0.0, 1.0, size=(n_rows, n_real))
    X[:, :N_SHIFTED] += np.where(y == 1, SHIFT, -SHIFT)[:, None]
    rates = np.linspace(0.5, 6.0, N_INT_COLUMNS)[None, :] * np.where(y == 1, 1.15, 1.0)[:, None]
    X[:, n_real:] = rng.poisson(rates)
    meta = rng.random(n_rows) < np.where(y == 1, META_RATE[1], META_RATE[0])
    return Standin(X, y, meta)


def csv_bytes(data: Standin) -> bytes:
    """The dataset CSV in the fixture's layout: url, f1..f87, status, meta_present."""
    n_real = N_FEATURES - N_INT_COLUMNS
    header = (["url"] + [f"f{j + 1}" for j in range(N_FEATURES)]
              + ["status", "meta_present"])
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for i in range(len(data)):
        label = int(data.y[i])
        writer.writerow(
            [f"http://{'phish' if label else 'legit'}-{i}.example/"]
            + [f"{v:.6f}" for v in data.X[i, :n_real]]
            + [str(int(v)) for v in data.X[i, n_real:]]
            + ["phishing" if label else "legitimate", str(int(data.meta[i]))]
        )
    return buf.getvalue().encode("utf-8")


def read_fixture(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """Labels (1 = phishing) and meta flags of a CSV in the fixture's layout."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    y = np.array([r["status"] == "phishing" for r in rows], dtype=np.int64)
    meta = np.array([r["meta_present"] == "1" for r in rows])
    return y, meta


def _block_pool(rng: np.random.Generator, size: int = 48) -> list[str]:
    """Body fragments of a few hundred bytes each: text, links, lists, images."""
    pool = []
    for k in range(size):
        words = rng.choice(_WORDS, size=int(rng.integers(20, 60)))
        text = " ".join(words)
        kind = k % 4
        if kind == 0:
            pool.append(f'<div class="c{k}"><p>{text}</p><a href="/p/{k}">{words[0]}</a></div>\n')
        elif kind == 1:
            items = "".join(f"<li><a href='/t/{w}'>{w}</a></li>" for w in words[:12])
            pool.append(f"<ul class=nav>{items}</ul>\n")
        elif kind == 2:
            pool.append(f'<section><h2>{words[1]}</h2><img src="/i/{k}.png" alt="{words[2]}">'
                        f"<p>{text} &amp; {words[3]}</p></section>\n")
        else:
            pool.append(f"<!-- block {k} --><p><b>{words[0]}</b> {text}<br></p>\n")
    return pool


def page_sizes(n_pages: int, median_bytes: int) -> np.ndarray:
    """Target page sizes in bytes, the same for every seed."""
    rng = np.random.default_rng(n_pages)
    sizes = rng.lognormal(np.log(median_bytes), PAGE_SIGMA, size=n_pages)
    return np.clip(sizes, median_bytes / 5, median_bytes * 6).astype(np.int64)


def render_page(rid: int, meta_present: bool, target_bytes: int,
                rng: np.random.Generator, pool: list[str]) -> str:
    variants = PRESENT_VARIANTS if meta_present else ABSENT_VARIANTS
    words = rng.choice(_WORDS, size=4)
    tag = variants[int(rng.integers(len(variants)))].format(
        text=" ".join(words), word=words[0])
    head = (
        '<!DOCTYPE html>\n<html lang="en"><head><meta charset="utf-8">'
        f"<title>site {rid}</title>{tag}"
        '<link rel="stylesheet" href="/s.css">'
        "<script>var ready = 1 < 2 && 3 > 2;</script></head>\n<body>\n"
    )
    parts = [head]
    size = len(head)
    picks = rng.integers(len(pool), size=target_bytes // 200 + 1)
    for p in picks:
        if size >= target_bytes:
            break
        parts.append(pool[p])
        size += len(pool[p])
    parts.append("</body></html>\n")
    return "".join(parts)


def render_pages(meta: np.ndarray, median_bytes: int, seed: int) -> list[bytes]:
    """The snapshot of row ``i``, to be written as ``<i>.html``, at index ``i``."""
    sizes = page_sizes(len(meta), median_bytes)
    rng = np.random.default_rng([seed, 2])
    pool = _block_pool(rng)
    return [render_page(rid, bool(flag), int(sizes[rid]), rng, pool).encode("utf-8")
            for rid, flag in enumerate(meta)]


def write_pages(directory: Path, pages: list[bytes]) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for rid, data in enumerate(pages):
        (directory / f"{rid}.html").write_bytes(data)
