from __future__ import annotations

import numpy as np
import pytest

from metaphish.classifiers import (
    DEFAULT_GRIDS,
    ClassifierKind,
    DecisionTree,
    HyperGrid,
    KNearestNeighbors,
    RandomForest,
    effective_candidates,
    grid_search,
)
from metaphish.classifiers import models as models_module
from metaphish.dataset import Dataset, fit_scaler, load_dataset, make_split

from _support import FIXTURE_CSV, fit_every_forest, make_records


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


# RF grids whose candidates share forests: n_estimators listed in decreasing
# order and not first in field order, or with a single value (no sharing)
RF_GRIDS = {
    "decreasing": {"max_depth": (3, None), "n_estimators": (4, 2),
                   "criterion": ("gini", "entropy")},
    "three-sizes": {"criterion": ("entropy",), "max_depth": (None,), "n_estimators": (1, 5, 3)},
    "single-size": {"n_estimators": (3,), "criterion": ("gini",), "max_depth": (2, None)},
    "mixed-depths": {"max_depth": (2, 3, None), "n_estimators": (3, 5), "criterion": ("gini",)},
}


def _fixture_folds(folds=2, seed=42):
    """The scaled ``(X_fit, y_fit, X_val, y_val)`` of each fold of the fixture's
    split, as ``train --grid-search`` makes them."""
    data = load_dataset(FIXTURE_CSV)
    split = make_split(data, 0.2, folds, seed)
    out = []
    for holdout in split.folds:
        stats = fit_scaler(data, split.train_ids - holdout)
        fit_rows, val_rows = data.rows(split.train_ids - holdout), data.rows(holdout)
        out.append((stats.scale(data.X[fit_rows]), data.y[fit_rows],
                    stats.scale(data.X[val_rows]), data.y[val_rows]))
    return data, split, out


class TestSharedForests:
    @pytest.mark.parametrize("fields", RF_GRIDS.values(), ids=RF_GRIDS.keys())
    def test_scores_equal_fitting_every_candidate(self, fields):
        data = _noisy_records(n=60, seed=9, flip=0.25)
        split = make_split(data, 0.2, 3, seed=2)
        grid = HyperGrid(ClassifierKind.RF, fields)
        result = grid_search(ClassifierKind.RF, grid, data, split.folds, seed=5)
        scores, best = fit_every_forest(grid, data, split.folds, seed=5)
        assert result.candidate_scores == scores  # exact float equality
        assert result.params == best
        assert result.cv_accuracy == max(acc for _, acc in scores)

    # one group per criterion: n_estimators and max_depth share the fit
    @pytest.mark.parametrize("fields,groups,size", [
        (RF_GRIDS["decreasing"], 2, 4),
        (RF_GRIDS["three-sizes"], 1, 5),
        (RF_GRIDS["single-size"], 1, 3),
        (RF_GRIDS["mixed-depths"], 1, 5),
        (DEFAULT_GRIDS[ClassifierKind.RF].parameter_lists, 2, 200),  # 12 candidates
    ], ids=["decreasing", "three-sizes", "single-size", "mixed-depths", "default"])
    def test_one_forest_fit_per_group_and_fold(self, monkeypatch, fields, groups, size):
        grown = []
        real = RandomForest.fit

        def spy(self, X, y):
            grown.append(self.n_estimators)
            return real(self, X, y)

        monkeypatch.setattr(RandomForest, "fit", spy)
        data = _noisy_records(n=60, seed=9, flip=0.25)
        split = make_split(data, 0.2, 3, seed=2)
        grid_search(ClassifierKind.RF, HyperGrid(ClassifierKind.RF, fields), data, split.folds)
        assert grown == [size] * (groups * len(split.folds))

    def test_default_grid_fits_and_predicts_each_distinct_tree_once(self, monkeypatch):
        # a 200-tree forest per criterion and fold, plus the 59 trees that depth 5
        # regrows; each of them predicts the holdout once
        calls = {"fit": 0, "predict": 0}
        for name in calls:
            real = getattr(DecisionTree, name)

            def counted(self, *args, _real=real, _name=name):
                calls[_name] += 1
                return _real(self, *args)

            monkeypatch.setattr(DecisionTree, name, counted)
        data, split, _ = _fixture_folds()
        grid_search(ClassifierKind.RF, DEFAULT_GRIDS[ClassifierKind.RF], data, split.folds, 42)
        assert calls == {"fit": 859, "predict": 859}


class TestShallowerForest:
    @staticmethod
    def assert_fresh_fit(deep, X, y, depth):
        derived = deep.shallower(depth, X, y)
        fresh = RandomForest(n_estimators=deep.n_estimators, criterion=deep.criterion,
                             max_depth=depth, seed=deep.seed).fit(X, y)
        assert derived.max_depth == depth
        assert derived.to_dict() == fresh.to_dict()
        kept = [new is old for new, old in zip(derived.trees_, deep.trees_)]
        assert kept == [old.search_depth_ < depth for old in deep.trees_]
        return sum(kept)

    @pytest.mark.parametrize("criterion", ["gini", "entropy"])
    def test_fixture_folds_equal_fresh_fits(self, criterion):
        for X_fit, y_fit, _, _ in _fixture_folds()[2]:
            deep = RandomForest(n_estimators=200, criterion=criterion, seed=42).fit(X_fit, y_fit)
            assert self.assert_fresh_fit(deep, X_fit, y_fit, 10) == 200
            assert 0 < self.assert_fresh_fit(deep, X_fit, y_fit, 5) < 200  # some regrown
            ten = deep.shallower(10, X_fit, y_fit)
            assert 0 < self.assert_fresh_fit(ten, X_fit, y_fit, 3) < 200

    def test_standin_fold_regrows_every_tree(self):
        data = make_records(800, seed=3, shift=0.8)  # noisy: every tree splits deep
        deep = RandomForest(n_estimators=8, max_depth=30, seed=7).fit(data.X, data.y)
        assert self.assert_fresh_fit(deep, data.X, data.y, 5) == 0
        assert self.assert_fresh_fit(deep, data.X, data.y, 0) == 0

    def test_no_search_keeps_the_tree(self):
        data = make_records(40, d=3, seed=1, shift=5.0)
        stump = RandomForest(n_estimators=3, max_depth=1, seed=0).fit(data.X, data.y)
        assert [t.search_depth_ for t in stump.trees_] == [0, 0, 0]
        assert self.assert_fresh_fit(stump, data.X, data.y, 0) == 0
        no_phishing = np.zeros(40, dtype=np.int64)
        one_class = RandomForest(n_estimators=2, seed=0).fit(data.X, no_phishing)
        assert [t.search_depth_ for t in one_class.trees_] == [-1, -1]
        assert self.assert_fresh_fit(one_class, data.X, no_phishing, 0) == 2

    def test_refuses_a_deeper_limit_or_a_loaded_forest(self):
        data = make_records(40, d=3, seed=1, shift=1.0)
        forest = RandomForest(n_estimators=2, max_depth=3, seed=0).fit(data.X, data.y)
        for deeper in (4, None):
            with pytest.raises(ValueError, match="deeper than the forest's 3"):
                forest.shallower(deeper, data.X, data.y)
        loaded = RandomForest.from_dict(forest.to_dict(), 3, n_estimators=2, max_depth=3)
        with pytest.raises(ValueError, match="no record of its split searches"):
            loaded.shallower(2, data.X, data.y)
