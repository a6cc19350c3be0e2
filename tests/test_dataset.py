from __future__ import annotations

import math

import numpy as np
import pytest

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

from _support import FIXTURE_CSV, benchmark_csv, make_records

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

    def test_fixture_dataset_shape(self):
        data = load_dataset(FIXTURE_CSV)
        assert data.X.shape == (200, 87)
        assert int(np.sum(data.y == 0)) == 100
        assert int(np.sum(data.y == 1)) == 100
        assert int(np.sum((data.y == 0) & data.meta)) == 50
        assert int(np.sum((data.y == 1) & data.meta)) == 10


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

    def test_rows_are_sorted_and_in_range(self):
        data = make_records(5, d=1)
        assert data.rows({3, 0, 4}).tolist() == [0, 3, 4]
        assert data.rows(set()).tolist() == []
        for bad in ({5}, {-1}):
            with pytest.raises(ValueError, match=r"\[0, 5\)"):
                data.rows(bad)


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
]


class TestExtractMetaPresence:
    @pytest.mark.parametrize("html,expected", META_CORPUS)
    def test_corpus(self, html, expected):
        assert extract_meta_presence(html) is expected

    def test_pure_and_order_independent(self):
        docs = [html for html, _ in META_CORPUS]
        first = [extract_meta_presence(d) for d in docs]
        second = [extract_meta_presence(d) for d in reversed(docs)]
        assert first == list(reversed(second))
        assert first == [extract_meta_presence(d) for d in docs]

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
