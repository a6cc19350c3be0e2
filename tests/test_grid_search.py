from __future__ import annotations

import numpy as np
import pytest

from metaphish.classifiers import (
    DEFAULT_GRIDS,
    ClassifierKind,
    HyperGrid,
    KNearestNeighbors,
    effective_candidates,
    grid_search,
)
from metaphish.classifiers import models as models_module
from metaphish.dataset import Dataset, fit_scaler, make_split

from _support import make_records


class TestGridDefinitions:
    def test_svm_grid_dedupes_linear_gamma(self):
        grid = DEFAULT_GRIDS[ClassifierKind.SVM]
        raw = 1
        for values in grid.parameter_lists.values():
            raw *= len(values)
        assert raw == 12
        effective = effective_candidates(grid)
        assert len(effective) == 9
        linear = [p for p in effective if p["kernel"] == "linear"]
        assert all("gamma" not in p for p in linear)
        assert len(linear) == 3

    def test_grid_cardinalities(self):
        assert len(effective_candidates(DEFAULT_GRIDS[ClassifierKind.KNN])) == 16
        assert len(effective_candidates(DEFAULT_GRIDS[ClassifierKind.DT])) == 24
        assert len(effective_candidates(DEFAULT_GRIDS[ClassifierKind.RF])) == 12

    def test_enumeration_order_first_field_slowest(self):
        effective = effective_candidates(DEFAULT_GRIDS[ClassifierKind.KNN])
        assert effective[0] == {"k": 3, "weights": "uniform", "metric": "euclidean"}
        assert effective[1] == {"k": 3, "weights": "uniform", "metric": "manhattan"}
        assert effective[-1] == {"k": 9, "weights": "distance", "metric": "manhattan"}


def _noisy_records(n=80, seed=4, flip=0.2):
    """Class determined by feature 0 sign, with flipped labels as noise;
    the noise makes k=1 memorize wrong labels while k=9 smooths them out."""
    rng = np.random.default_rng(seed)
    X = np.empty((n, 4))
    y = np.empty(n, dtype=np.int64)
    for i in range(n):
        X[i] = rng.normal(0.0, 1.0, size=4)
        y[i] = int(X[i, 0] > 0)
        if rng.random() < flip:
            y[i] = 1 - y[i]
    return Dataset(X, y)


class TestGridSearch:
    def test_singleton_grid_returned_unconditionally(self):
        records = make_records(40, d=3, seed=2, shift=1.0)
        split = make_split(records, 0.25, 3, seed=0)
        grid = HyperGrid(ClassifierKind.KNN, {"k": (3,), "weights": ("uniform",),
                                              "metric": ("euclidean",)})
        result = grid_search(ClassifierKind.KNN, grid, records, split.folds)
        assert result.params == {"k": 3, "weights": "uniform", "metric": "euclidean"}

    def test_knn_two_candidates_match_manual_fold_scoring(self):
        # derived oracle: score both candidates fold by fold with the raw
        # estimator, then check the winner and the mean accuracies
        records = _noisy_records()
        split = make_split(records, 0.2, 5, seed=1)
        grid = HyperGrid(
            ClassifierKind.KNN,
            {"k": (1, 9), "weights": ("uniform",), "metric": ("euclidean",)},
        )
        result = grid_search(ClassifierKind.KNN, grid, records, split.folds)

        expected = {}
        for k in (1, 9):
            fold_accs = []
            for holdout in split.folds:
                fit_ids = frozenset().union(*(f for f in split.folds if f != holdout))
                stats = fit_scaler(records, fit_ids)
                scaled = (records.X - stats.means) / stats.std_devs
                X_fit = np.vstack([scaled[i] for i in sorted(fit_ids)])
                y_fit = np.array([records.y[i] for i in sorted(fit_ids)])
                X_val = np.vstack([scaled[i] for i in sorted(holdout)])
                y_val = np.array([records.y[i] for i in sorted(holdout)])
                knn = KNearestNeighbors(k=k, weights="uniform", metric="euclidean")
                knn.fit(X_fit, y_fit)
                fold_accs.append(float((knn.predict(X_val) == y_val).mean()))
            expected[k] = sum(fold_accs) / len(fold_accs)

        assert expected[9] > expected[1], "fixture should make k=1 overfit noise"
        assert result.params["k"] == 9
        scores = {p["k"]: acc for p, acc in result.candidate_scores}
        assert scores[1] == pytest.approx(expected[1], abs=1e-12)
        assert scores[9] == pytest.approx(expected[9], abs=1e-12)

    def test_tie_broken_by_enumeration_order(self):
        records = make_records(40, d=2, seed=4, shift=3.0)  # trivially separable
        split = make_split(records, 0.25, 4, seed=0)
        grid = HyperGrid(
            ClassifierKind.DT,
            {"criterion": ("gini",), "max_depth": (5, 10), "min_samples_split": (2,)},
        )
        result = grid_search(ClassifierKind.DT, grid, records, split.folds)
        assert result.params["max_depth"] == 5
        accs = [acc for _, acc in result.candidate_scores]
        assert accs[0] == accs[1]

    def test_single_class_fold_refused(self):
        records = make_records(12, d=2, seed=0)
        folds = [frozenset({0, 2, 4}), frozenset({1, 3, 5}), frozenset({6, 8, 10})]
        # third fold is all label 0 (even ids)
        grid = HyperGrid(ClassifierKind.KNN, {"k": (1,), "weights": ("uniform",),
                                              "metric": ("euclidean",)})
        with pytest.raises(ValueError, match="single class"):
            grid_search(ClassifierKind.KNN, grid, records, folds)

    def test_scaler_refit_per_fold(self, monkeypatch):
        calls = []
        real = models_module.fit_scaler

        def spy(records, ids):
            calls.append(frozenset(ids))
            return real(records, ids)

        monkeypatch.setattr(models_module, "fit_scaler", spy)
        records = make_records(30, d=2, seed=6, shift=1.0)
        split = make_split(records, 0.2, 3, seed=0)
        grid = HyperGrid(ClassifierKind.KNN, {"k": (1, 3), "weights": ("uniform",),
                                              "metric": ("euclidean",)})
        grid_search(ClassifierKind.KNN, grid, records, split.folds)
        assert len(calls) == 3  # once per fold, shared by both candidates
        for fold in split.folds:
            assert split.train_ids - fold in calls

    def test_empty_folds_rejected(self):
        records = make_records(10, d=2)
        grid = DEFAULT_GRIDS[ClassifierKind.KNN]
        with pytest.raises(ValueError, match="no folds"):
            grid_search(ClassifierKind.KNN, grid, records, [])
