from __future__ import annotations

import csv
import hashlib
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from metaphish.classifiers import (
    BEST_CONFIGS,
    ClassifierKind,
    DecisionTree,
    KNearestNeighbors,
    KernelSVM,
    RandomForest,
    TreeNode,
    entropy,
    generate_initial_beliefs,
    gini,
    load_model,
    predict_batch,
    rbf_kernel,
    save_model,
    train,
)
from metaphish.classifiers import knn as knn_module
from metaphish.classifiers import svm as svm_module
from metaphish.classifiers import tree as tree_module
from metaphish.classifiers.tree import TABLE_ROWS, RankTable, impurity_tables
from metaphish.dataset import Dataset, load_dataset
from _support import (
    FIXTURE_CSV,
    broadcast_distances,
    chunked_knn_predict,
    grow_forest,
    grow_tree,
    make_records,
    masked_entropy,
    per_feature_best_split,
    separable_set,
)

# sha256 of the byte-stable artifacts of the fixture's `train --best-config
# --seed 42` and `revise` (run_config.kv records the output path, so it is not
# pinned); a change that alters any model, the split or a verdict fails here
PINNED_ARTIFACTS = {
    "model_svm.json": "05a14329b95e51d59cfac55955f8d26d2e106e38e0eca1bff2f680bebab984a9",
    "model_knn.json": "d0ba9e679d5eae5c17b8fd2a554fea608618f95e540845f6e47916b0edf46c5d",
    "model_dt.json": "8aea912be88b108a2776be2851b0fbc68667004839e019485e1b62d7d5878394",
    "model_rf.json": "24ed82e1e2ac233d91c7967694689a0124dea74211fb24575a2c260d74cecee4",
    "split_manifest.csv": "2959b93a3652e831d09fa7b773169dbd76df33651a85f33c232899e80030b224",
    "cv_summary.kv": "685c6712b0777eebfe3eee604a37dd832cf35e4fff5054eb60c465ecf88fb4d9",
    "facts.lp": "4f455ad1e1d28b621b8abc43e25db95344a5cecf6485b0460a608eacc8acded2",
    "final_beliefs.csv": "1b608a901303235bb410468ad3c74779eef8f63bd37cb3d18b4cf0fd6692526b",
    "report.kv": "a1715480356f44be7403c864884d809655f862d5f05322d598b3b93b603c006c",
}
PINNED_TREE_MODELS = ("model_dt.json", "model_rf.json")


def _split_features(root):
    """The feature index of every split node of a fitted tree."""
    stack, out = [root], []
    while stack:
        node = stack.pop()
        if not node.is_leaf:
            out.append(node.feature)
            stack += (node.left, node.right)
    return out


def _leaf(label):
    """A one-node tree predicting ``label``, in the flat form of ``to_dict``."""
    return DecisionTree.from_dict({"feature": [-1], "threshold": [], "label": [label]},
                                  n_features=2)


def _assert_pinned(run_dir, name):
    digest = hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
    assert digest == PINNED_ARTIFACTS[name], name


class TestImpurity:
    @pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 1.0])
    def test_gini_closed_form(self, p):
        assert abs(float(gini(p)) - 2 * p * (1 - p)) < 1e-12

    @pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 1.0])
    def test_entropy_closed_form(self, p):
        expected = 0.0
        for side in (p, 1 - p):
            if side > 0:
                expected -= side * math.log2(side)
        assert abs(float(entropy(p)) - expected) < 1e-12

    def test_entropy_peak_values(self):
        assert float(entropy(0.5)) == 1.0
        assert float(gini(0.5)) == 0.5

    def test_entropy_bits_match_masked_oracle(self):
        # every proportion k/n a node of up to 300 rows can have; comparing
        # the int64 views also tells 0.0 from -0.0
        k, n = np.arange(301)[:, None], np.arange(1, 301)[None, :]
        p = np.where(k <= n, k / n, 0.0)
        got, want = entropy(p), masked_entropy(p)
        assert got.shape == want.shape == p.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        for value in np.unique(p).tolist():
            got, want = np.asarray(entropy(value)), np.asarray(masked_entropy(value))
            assert got.shape == want.shape == ()
            assert got.view(np.int64) == want.view(np.int64), value

    @pytest.mark.parametrize("impurity", [gini, entropy])
    def test_tables_match_node_expressions(self, impurity):
        # a node of at most TABLE_ROWS rows reads I and W where a larger node
        # computes impurity(total_pos / n) as a scalar, and n_left *
        # impurity(pos_left / n_left) over int64 arrays; the int64 views must
        # match for every entry 0 <= k <= m <= TABLE_ROWS
        I, W = impurity_tables(impurity)
        assert I.shape == W.shape == (TABLE_ROWS + 1, TABLE_ROWS + 1)
        m, k = np.tril_indices(TABLE_ROWS + 1)
        m, k = m[m > 0], k[m > 0]
        parent = np.array([float(impurity(a / b)) for a, b in zip(k.tolist(), m.tolist())])
        assert np.array_equal(I[m, k].view(np.int64), parent.view(np.int64))
        order = np.random.default_rng(0).permutation(len(m))  # one array of mixed node sizes
        for rows in (order, *(np.flatnonzero(m == size) for size in range(1, TABLE_ROWS + 1))):
            n_left, pos_left = m[rows], k[rows]
            child = n_left * impurity(pos_left / n_left)
            assert np.array_equal(W[n_left, pos_left].view(np.int64), child.view(np.int64))


class TestDecisionTree:
    def test_single_split_at_cluster_midpoint(self):
        X = np.array([[0.0], [1.0], [2.0], [10.0], [11.0], [12.0]])
        y = np.array([0, 0, 0, 1, 1, 1])
        tree = DecisionTree(max_depth=1).fit(X, y)
        assert tree.root_.feature == 0
        assert tree.root_.threshold == 6.0
        assert tree.root_.left.label == 0
        assert tree.root_.right.label == 1

    def test_pure_leaf_predicts_its_class(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([1, 1, 1])
        tree = DecisionTree().fit(X, y)
        assert tree.root_.is_leaf
        assert tree.root_.label == 1

    def test_pure_node_yields_zero_gain(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([0, 0, 0])
        for criterion in ("gini", "entropy"):
            tree = DecisionTree(criterion=criterion)
            impurity = gini if criterion == "gini" else entropy
            assert tree._best_cut(RankTable(X, y), np.arange(3), impurity) is None

    def test_predict_matches_manual_walk(self):
        # independent oracle: recursive descent through the stored nodes
        rng = np.random.default_rng(8)
        X = rng.normal(size=(120, 6))
        y = (X[:, 0] + 0.5 * X[:, 3] > 0).astype(int)
        tree = DecisionTree(criterion="entropy", max_depth=5).fit(X, y)

        def walk(node, x):
            if node.is_leaf:
                return node.label
            if x[node.feature] <= node.threshold:
                return walk(node.left, x)
            return walk(node.right, x)

        Q = rng.normal(size=(40, 6))
        assert tree.predict(Q).tolist() == [walk(tree.root_, x) for x in Q]
        for x in Q[:10]:  # one row at a time
            assert tree.predict(x[None, :]).tolist() == [walk(tree.root_, x)]
        empty = tree.predict(np.empty((0, 6)))
        assert empty.dtype == np.int64 and empty.shape == (0,)

    def test_tie_breaks_to_lower_feature_index(self):
        # identical columns give identical gains; the first feature must win
        col = np.array([0.0, 1.0, 2.0, 3.0])
        X = np.column_stack([col, col])
        y = np.array([0, 0, 1, 1])
        tree = DecisionTree(max_depth=1).fit(X, y)
        assert tree.root_.feature == 0

    def test_min_samples_split(self):
        X = np.array([[0.0], [1.0], [2.0], [10.0]])
        y = np.array([0, 0, 1, 1])
        tree = DecisionTree(min_samples_split=5).fit(X, y)
        assert tree.root_.is_leaf

    def test_leaf_majority_tie_is_class_zero(self):
        X = np.array([[0.0], [0.0]])
        y = np.array([0, 1])
        tree = DecisionTree().fit(X, y)  # no split possible: constant feature
        assert tree.root_.is_leaf
        assert tree.root_.label == 0

    def test_deterministic_fit(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(80, 5))
        y = (X[:, 1] > 0.2).astype(int)
        a = DecisionTree(max_depth=4).fit(X, y).to_dict()
        b = DecisionTree(max_depth=4).fit(X, y).to_dict()
        assert a == b

    def test_dict_round_trip(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        tree = DecisionTree().fit(X, y)
        clone = DecisionTree.from_dict(tree.to_dict(), n_features=1)
        assert clone.predict(X).tolist() == tree.predict(X).tolist()


class TestBestSplitEquivalence:
    """The rank-table split search of one node against the per-feature
    oracle on that node's rows, copied out of the matrix."""

    @staticmethod
    def _tied_matrix(gen, n, d):
        # integer-valued columns with heavy ties, plus constant, duplicated
        # and scaled columns so that gains tie across features and thresholds
        X = gen.integers(0, 4, size=(n, d)).astype(np.float64)
        if gen.random() < 0.3:
            X[:, 0] = gen.normal(size=n)
        if d > 1 and gen.random() < 0.5:
            X[:, gen.integers(d)] = 7.0
        if d > 1 and gen.random() < 0.5:
            X[:, gen.integers(d)] = X[:, gen.integers(d)]
        if d > 1 and gen.random() < 0.3:
            X[:, gen.integers(d)] = X[:, gen.integers(d)] / 3.0
        return X

    def test_matches_oracle_on_random_tied_matrices(self):
        self._compare_with_oracle()

    def test_computed_gains_match_oracle_on_random_tied_matrices(self, monkeypatch):
        # every node computes its gains, as a node above the table bound does
        monkeypatch.setattr(tree_module, "TABLE_ROWS", 0)
        self._compare_with_oracle()

    def _compare_with_oracle(self):
        gen = np.random.default_rng(20260)
        found = 0
        for case in range(400):
            n = int(gen.integers(2, 40))
            d = int(gen.integers(1, 10))
            X = self._tied_matrix(gen, n, d)
            y = gen.integers(0, 2, size=n)
            if case % 5 == 0:
                y[:] = y[0]  # pure node: no positive gain anywhere
            criterion = ("gini", "entropy")[case % 2]
            impurity = gini if criterion == "gini" else entropy
            max_features = None if case % 4 < 2 else int(gen.integers(1, d + 1))
            seed = int(gen.integers(2**32))
            tree = DecisionTree(criterion=criterion, max_features=max_features,
                                rng=np.random.default_rng(seed))
            oracle_rng = np.random.default_rng(seed)
            table = RankTable(X, y)
            # every row once, or a bootstrap of row ids as a forest's tree gets
            rows = np.arange(n) if case % 3 else np.random.default_rng(case).integers(0, n, n)
            for _ in range(2):  # two draws in a row keep the streams in step
                split = tree._best_cut(table, rows, impurity)
                got = split and split[:2]
                want = per_feature_best_split(X[rows], y[rows], impurity, max_features, oracle_rng)
                assert got == want, (case, got, want)
                assert tree.rng.bit_generator.state == oracle_rng.bit_generator.state
                if got is not None:
                    assert type(got[0]) is int and type(got[1]) is float
                    left = X[rows, got[0]] <= got[1]  # the child counts of the cut
                    assert split[2:] == (int(left.sum()), int(y[rows][left].sum())), case
                    found += 1
        assert found > 200  # most cases do split; the comparison is not vacuous


# adjacent floats whose midpoint rounds to the upper one: (ADJ_LOW + ADJ_HIGH) / 2 == ADJ_HIGH
ADJ_LOW = float(np.nextafter(1.0, 2.0))
ADJ_HIGH = float(np.nextafter(ADJ_LOW, 2.0))


def _rank_matrix(gen, n, d, adjacent):
    """Random columns with repeated values, normal draws, -0.0 next to 0.0 and
    constants, some rows duplicated (with or without their labels); with
    ``adjacent``, one column of ADJ_LOW / ADJ_HIGH."""
    X = gen.integers(0, 4, size=(n, d)).astype(np.float64)
    y = gen.integers(0, 2, size=n)
    for j in range(d):
        kind = int(gen.integers(4))
        if kind == 0:
            X[:, j] = gen.normal(size=n)
        elif kind == 1:
            X[:, j] = gen.choice([-0.0, 0.0, 1.0, -1.0], size=n)
        elif kind == 2:
            X[:, j] = 7.0
    if adjacent:
        X[:, gen.integers(d)] = gen.choice([ADJ_LOW, ADJ_HIGH], size=n)
    src, dst = gen.integers(0, n, size=(2, n // 3))
    X[dst] = X[src]
    if gen.random() < 0.5:
        y[dst] = y[src]
    return X, y


class TestGrowerMatchesOracle:
    """Whole fits against the grower that copied each node's rows and sorted
    its float columns (``grow_tree``), compared as serialized model state.

    The midpoint of ADJ_LOW and ADJ_HIGH rounds up to ADJ_HIGH, so both the
    tree and the oracle cut between them at ADJ_LOW instead; matrices get
    that column with and without a depth limit."""

    @staticmethod
    def _params(gen):
        return {
            "criterion": ("gini", "entropy")[int(gen.integers(2))],
            "max_depth": (None, 1, 3, 6)[int(gen.integers(4))],
            "min_samples_split": (2, 3, 7)[int(gen.integers(3))],
        }

    def test_tree_matches_oracle_on_random_matrices(self):
        self._compare_trees_with_oracle()

    def test_tree_with_computed_gains_matches_oracle(self, monkeypatch):
        # every node computes its gains, as a node above the table bound does
        monkeypatch.setattr(tree_module, "TABLE_ROWS", 0)
        self._compare_trees_with_oracle()

    def _compare_trees_with_oracle(self):
        gen = np.random.default_rng(20261)
        splits = 0
        for case in range(600):
            n, d = int(gen.integers(1, 60)), int(gen.integers(1, 8))
            params = self._params(gen)
            X, y = _rank_matrix(gen, n, d, case % 2 == 0)
            max_features = None if case % 3 else int(gen.integers(1, d + 1))
            seed = int(gen.integers(2**32))
            tree = DecisionTree(max_features=max_features, rng=np.random.default_rng(seed),
                                **params).fit(X, y)
            oracle_rng = np.random.default_rng(seed)
            want = grow_tree(X, y, max_features=max_features, rng=oracle_rng, **params)
            assert json.dumps(tree.to_dict()) == json.dumps(want), case
            assert tree.rng.bit_generator.state == oracle_rng.bit_generator.state
            splits += len(want["label"]) > 1
        assert splits > 300  # most roots split; the comparison is not vacuous

    def test_tree_matches_oracle_above_the_table_bound(self):
        # roots of more than TABLE_ROWS rows compute their gains, and their
        # descendants read them from the tables; every child takes its counts
        # from its parent's cut
        gen = np.random.default_rng(20263)
        for case in range(60):
            n, d = int(gen.integers(TABLE_ROWS + 1, 3 * TABLE_ROWS)), int(gen.integers(1, 4))
            params = self._params(gen)
            X, y = _rank_matrix(gen, n, d, case % 2 == 0)
            max_features = None if case % 3 else int(gen.integers(1, d + 1))
            seed = int(gen.integers(2**32))
            tree = DecisionTree(max_features=max_features, rng=np.random.default_rng(seed),
                                **params).fit(X, y)
            oracle_rng = np.random.default_rng(seed)
            want = grow_tree(X, y, max_features=max_features, rng=oracle_rng, **params)
            assert json.dumps(tree.to_dict()) == json.dumps(want), case
            assert tree.rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_forest_matches_oracle_above_the_table_bound(self):
        gen = np.random.default_rng(20264)
        for case in range(16):
            n, d = int(gen.integers(TABLE_ROWS + 1, 2 * TABLE_ROWS)), int(gen.integers(1, 5))
            params = self._params(gen)
            del params["min_samples_split"]  # a forest's trees keep the default of 2
            X, y = _rank_matrix(gen, n, d, case % 2 == 0)
            forest = RandomForest(n_estimators=4, seed=case, **params).fit(X, y)
            want = grow_forest(X, y, 4, seed=case, **params)
            assert json.dumps(forest.to_dict()) == json.dumps(want), case

    def test_forest_matches_oracle_on_random_matrices(self):
        gen = np.random.default_rng(20262)
        for case in range(80):
            n, d = int(gen.integers(2, 50)), int(gen.integers(1, 12))
            params = self._params(gen)
            del params["min_samples_split"]  # a forest's trees keep the default of 2
            X, y = _rank_matrix(gen, n, d, case % 2 == 0)
            forest = RandomForest(n_estimators=4, seed=case, **params).fit(X, y)
            want = grow_forest(X, y, 4, seed=case, **params)
            assert json.dumps(forest.to_dict()) == json.dumps(want), case

    def test_adjacent_floats_split_like_the_oracle(self):
        X = np.array([[ADJ_LOW], [ADJ_HIGH]] * 3)
        y = np.array([0, 1] * 3)
        tree = DecisionTree(max_depth=2).fit(X, y)
        assert tree.root_.threshold == ADJ_LOW  # the midpoint rounded up to ADJ_HIGH
        assert tree.to_dict() == grow_tree(X, y, max_depth=2)

    @pytest.mark.parametrize("max_depth", [3, None])
    def test_adjacent_floats_part_with_one_split(self, max_depth):
        # a cut at the rounded-up midpoint sent every row left: a chain of
        # splits with empty right leaves that predicted 0 for both rows, and
        # without a depth limit a fit that never ended
        X = np.array([[ADJ_LOW], [ADJ_HIGH]] * 2)
        y = np.array([0, 1, 0, 1])
        tree = DecisionTree(max_depth=max_depth).fit(X, y)
        assert tree.predict(X).tolist() == y.tolist()
        assert tree.to_dict() == {"feature": [0, -1, -1], "threshold": [ADJ_LOW], "label": [0, 1]}

    def test_overflowing_midpoint_parts_the_values(self):
        X = np.array([[1.5e308], [1.7e308]] * 2)  # their sum overflows to inf
        tree = DecisionTree().fit(X, np.array([0, 1, 0, 1]))
        assert tree.root_.threshold == 1.5e308
        assert tree.predict(X).tolist() == [0, 1, 0, 1]

    def test_tree_matches_oracle_hypothesis(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hypothesis.settings(max_examples=150, deadline=None)
        @hypothesis.given(st.data())
        def check(data):
            n = data.draw(st.integers(1, 25))
            d = data.draw(st.integers(1, 4))
            criterion = data.draw(st.sampled_from(["gini", "entropy"]))
            max_depth = data.draw(st.sampled_from([None, 1, 2, 5]))
            min_samples_split = data.draw(st.sampled_from([2, 3, 6]))
            max_features = data.draw(st.one_of(st.none(), st.integers(1, d)))
            seed = data.draw(st.integers(0, 2**32 - 1))
            # eighths keep every midpoint exact, so only the pool holds adjacent floats
            pool = [-0.0, 0.0, 1.0, 7.0, ADJ_LOW, ADJ_HIGH]
            value = st.sampled_from(pool) | st.integers(-40, 40).map(lambda k: k / 8)
            row = st.lists(value, min_size=d, max_size=d)
            X = np.array(data.draw(st.lists(row, min_size=n, max_size=n)))
            y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
            params = {"criterion": criterion, "max_depth": max_depth,
                      "min_samples_split": min_samples_split, "max_features": max_features}
            tree = DecisionTree(rng=np.random.default_rng(seed), **params).fit(X, y)
            want = grow_tree(X, y, rng=np.random.default_rng(seed), **params)
            assert json.dumps(tree.to_dict()) == json.dumps(want)

        check()


class TestTreeArguments:
    """Bad labels, arguments and matrices end in a ValueError that says what
    to pass, never in a wrong fit or a numpy traceback."""

    @pytest.mark.parametrize("make", [DecisionTree, lambda: RandomForest(n_estimators=2),
                                      KernelSVM])
    def test_non_binary_labels_are_rejected(self, make):
        X, y = separable_set(40, seed=5)
        with pytest.raises(ValueError, match="0 or 1, got 2"):
            make().fit(X, 2 * y)
        with pytest.raises(ValueError, match="0 or 1, got -1"):
            make().fit(X, y - 1)

    def test_max_features_needs_an_rng(self):
        X, y = separable_set(40, seed=5)
        with pytest.raises(ValueError, match="pass rng="):
            DecisionTree(max_features=1).fit(X, y)
        DecisionTree(max_features=2).fit(X, y)  # every feature: nothing to draw

    @pytest.mark.parametrize("make,message", [
        (lambda: RandomForest(n_estimators=0), "n_estimators must be an integer of at least 1, got 0"),
        (lambda: RandomForest(n_estimators=-1), "n_estimators must be an integer of at least 1, got -1"),
        (lambda: RandomForest(seed=-1), "seed must be an integer of at least 0, got -1"),
        (lambda: RandomForest(max_depth=-1), "max_depth must be an integer of at least 0 or None, got -1"),
        (lambda: DecisionTree(max_depth=-1), "max_depth must be an integer of at least 0 or None, got -1"),
        (lambda: DecisionTree(max_depth=1.5), "max_depth must be an integer of at least 0 or None, got 1.5"),
        (lambda: DecisionTree(min_samples_split=0), "min_samples_split must be an integer of at least 2, got 0"),
        (lambda: DecisionTree(max_features=1.5, rng=np.random.default_rng(0)),
         "max_features must be an integer of at least 1 or None, got 1.5"),
        (lambda: DecisionTree(max_features="3", rng=np.random.default_rng(0)),
         "max_features must be an integer of at least 1 or None, got '3'"),
        (lambda: DecisionTree(max_features=True, rng=np.random.default_rng(0)),
         "max_features must be an integer of at least 1 or None, got True"),
    ], ids=["rf-no-trees", "rf-negative-trees", "rf-negative-seed", "rf-negative-depth",
            "dt-negative-depth", "dt-fractional-depth", "dt-split-0",
            "dt-fractional-features", "dt-string-features", "dt-bool-features"])
    def test_bad_argument_is_rejected_when_built(self, make, message):
        # each of these built, and all but the seed also fit: a forest of no
        # trees, or a tree whose arguments meant nothing
        with pytest.raises(ValueError, match=re.escape(message)):
            make()

    def test_max_features_below_one_is_rejected(self):
        with pytest.raises(ValueError, match="max_features must be an integer of at least 1"):
            DecisionTree(max_features=0, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("make", [DecisionTree, lambda: RandomForest(n_estimators=2),
                                      KernelSVM], ids=["dt", "rf", "svm"])
    @pytest.mark.parametrize("shape", [(4, 7), (4, 1), (5,)], ids=["4x7", "4x1", "1-D"])
    def test_query_of_another_width_is_rejected(self, make, shape):
        # a (4, 7) matrix was predicted from its first 5 columns
        X, y = separable_set(40, seed=5)
        model = make().fit(np.hstack([X, X, X[:, :1]]), y)
        with pytest.raises(ValueError, match=re.escape(f"5 feature columns the model was fit on; "
                                                       f"got X of shape {shape}")):
            model.predict(np.zeros(shape))

    @pytest.mark.parametrize("make", [DecisionTree, lambda: RandomForest(n_estimators=2),
                                      KernelSVM])
    def test_matrix_without_columns_is_rejected(self, make):
        with pytest.raises(ValueError, match="no feature columns; pass at least one"):
            make().fit(np.empty((4, 0)), np.array([0, 1, 0, 1]))

    @pytest.mark.parametrize("X,y", [
        (np.zeros(4), np.array([0, 1, 0, 1])),
        (np.zeros((4, 2)), np.array([0, 1, 0])),
    ])
    def test_shape_mismatch_is_rejected(self, X, y):
        with pytest.raises(ValueError, match="pass a 2-D X and one label per row"):
            DecisionTree().fit(X, y)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_are_rejected(self, bad):
        X = np.array([[0.0], [bad], [1.0]])
        for make in (DecisionTree, KernelSVM):
            with pytest.raises(ValueError, match="pass finite feature values"):
                make().fit(X, np.array([0, 1, 1]))


class TestTreeModelParity:
    @pytest.mark.parametrize("name", PINNED_TREE_MODELS)
    def test_fixture_tree_model_bytes_pinned(self, pipeline_run, name):
        _assert_pinned(pipeline_run, name)


class TestPipelineArtifactParity:
    @pytest.mark.parametrize("name", [n for n in PINNED_ARTIFACTS if n not in PINNED_TREE_MODELS])
    def test_fixture_artifact_bytes_pinned(self, pipeline_run, name):
        _assert_pinned(pipeline_run, name)


def _knn_case(name: str):
    """(X, y, Q) of one adversarial KNN input: each stresses one term of the
    float32 filter's error bound or the tie rules."""
    rng = np.random.default_rng(36)
    y = rng.integers(0, 2, size=12)
    if name == "tiny":  # float32 subnormals and flushes to 0
        X, Q = (rng.normal(size=(m, 6)) * 10.0 ** rng.integers(-46, -20, size=(m, 6))
                for m in (12, 9))
    elif name == "beyond-float32":  # 1e39 is inf in float32, beside an ordinary column
        X, Q = (np.column_stack([rng.choice([0.0, 1e39, -1e39], size=m), rng.normal(size=m)])
                for m in (12, 9))
    elif name == "offset":  # 1e6 + 2**-5 is a float32 rounding midpoint: inputs round either way
        X, Q = (1e6 + 2.0**-5 + rng.normal(size=(m, 5)) * 1e-3 for m in (12, 9))
    elif name == "ulp-apart":  # rows one float64 ulp apart, equal in float32
        base = rng.normal(size=(4, 3))
        X = np.vstack([base, np.nextafter(base, np.inf), np.nextafter(base, -np.inf)])
        Q = np.vstack([base, np.nextafter(base[:2], np.inf), base[2:] + 1e-3])
    elif name == "ties":  # duplicate rows, tied at the k-th distance
        base = rng.integers(0, 3, size=(4, 3)).astype(np.float64)
        X, Q = np.vstack([base, base, base]), rng.integers(0, 3, size=(9, 3)).astype(np.float64)
    else:  # "zero": every query is a training row
        X = rng.normal(size=(12, 4))
        Q = X[[0, 3, 3, 7, 11]]
    return X, y, Q


KNN_CASES = ("tiny", "beyond-float32", "offset", "ulp-apart", "ties", "zero")


class TestKNN:
    def test_k1_self_label(self):
        X = np.array([[0.0, 0.0], [5.0, 5.0], [9.0, 0.0]])
        y = np.array([1, 0, 1])
        knn = KNearestNeighbors(k=1).fit(X, y)
        assert knn.predict(X).tolist() == y.tolist()

    def test_zero_distance_neighbor_wins_outright(self):
        # the exact match is label 1 even though both near neighbors say 0
        X = np.array([[0.0], [0.1], [0.2]])
        y = np.array([1, 0, 0])
        knn = KNearestNeighbors(k=3, weights="distance").fit(X, y)
        assert knn.predict([[0.0]]).tolist() == [1]

    def test_distance_weighting_beats_majority(self):
        X = np.array([[0.1], [2.0], [2.2]])
        y = np.array([1, 0, 0])
        query = [[0.0]]
        uniform = KNearestNeighbors(k=3, weights="uniform").fit(X, y)
        weighted = KNearestNeighbors(k=3, weights="distance").fit(X, y)
        assert uniform.predict(query).tolist() == [0]
        assert weighted.predict(query).tolist() == [1]

    def test_uniform_tie_is_class_zero(self):
        X = np.array([[-1.0], [1.0]])
        y = np.array([1, 0])
        knn = KNearestNeighbors(k=2, weights="uniform").fit(X, y)
        assert knn.predict([[0.0]]).tolist() == [0]

    def test_metric_changes_neighbors(self):
        X = np.array([[0.0, 3.9], [2.0, 2.0]])
        y = np.array([1, 0])
        query = [[0.0, 0.0]]
        # euclidean: d0 = 3.9 < d1 = 2*sqrt(2) is false; manhattan: 3.9 < 4.0
        assert KNearestNeighbors(k=1, metric="euclidean").fit(X, y).predict(query).tolist() == [0]
        assert KNearestNeighbors(k=1, metric="manhattan").fit(X, y).predict(query).tolist() == [1]

    def test_duplication_symmetry(self):
        # doubling every training point and k preserves odd-k uniform votes
        rng = np.random.default_rng(12)
        X = rng.normal(size=(30, 3))
        y = (X[:, 0] > 0).astype(int)
        Q = rng.normal(size=(25, 3))
        X2 = np.vstack([X, X])
        y2 = np.concatenate([y, y])
        for k in (1, 3, 5):
            base = KNearestNeighbors(k=k, weights="uniform").fit(X, y).predict(Q)
            doubled = KNearestNeighbors(k=2 * k, weights="uniform").fit(X2, y2).predict(Q)
            assert base.tolist() == doubled.tolist()

    def test_k_capped_at_train_size(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([1, 1])
        knn = KNearestNeighbors(k=9).fit(X, y)
        assert knn.predict([[0.5]]).tolist() == [1]

    def test_row_distances_bitwise_match_broadcast_oracle(self):
        # every distance the filter keeps is the oracle's, compared as int64
        # views, so even the last bit and the sign of zero must agree; every
        # one it drops (+inf) is strictly past the row's k-th distance
        rng = np.random.default_rng(31)
        for d in range(1, 301):
            scale = 10.0 ** int(rng.integers(-3, 4))
            X = rng.normal(size=(int(rng.integers(1, 13)), d)) * scale
            Q = rng.normal(size=(4, d)) * scale
            if d % 3 == 0:  # rounded values: many equal terms and exact zeros
                X, Q = np.round(X), np.round(Q)
            y = rng.integers(0, 2, size=len(X))
            for metric in ("euclidean", "manhattan"):
                knn = KNearestNeighbors(metric=metric).fit(X, y)
                got = knn._distances(Q)  # one block of all four query rows
                expected = broadcast_distances(Q, X, metric)
                kth = np.sort(expected, axis=1)[:, min(knn.k, len(X)) - 1, None]
                kept = np.isfinite(got)
                assert np.array_equal(got[kept].view(np.int64),
                                      expected[kept].view(np.int64)), (d, metric)
                assert kept[expected <= kth].all(), (d, metric)
                assert (expected > kth)[got == np.inf].all(), (d, metric)

    def test_predictions_match_chunked_oracle_on_ties(self):
        rng = np.random.default_rng(32)
        X = rng.integers(0, 3, size=(60, 4)).astype(np.float64)
        y = rng.integers(0, 2, size=60)
        Q = rng.integers(0, 3, size=(150, 4)).astype(np.float64)
        for k in range(1, 10):
            for weights in ("uniform", "distance"):
                for metric in ("euclidean", "manhattan"):
                    knn = KNearestNeighbors(k=k, weights=weights, metric=metric).fit(X, y)
                    expected = chunked_knn_predict(knn, Q)
                    assert knn.predict(Q).tolist() == expected.tolist(), (k, weights, metric)

    @pytest.mark.parametrize("rows_per_block", [1, 4, 7])
    def test_predictions_match_chunked_oracle_on_edge_cases(self, monkeypatch, rows_per_block):
        # each training row three times with its own labels, so ties straddle
        # the k-th distance; the first queries are training rows (zero
        # distances); k runs past the 18 training rows; 23 queries do not
        # fill the last block
        rng = np.random.default_rng(34)
        base = rng.integers(0, 3, size=(6, 3)).astype(np.float64)
        X = np.vstack([base, base, base])
        y = rng.integers(0, 2, size=len(X))
        Q = np.vstack([base[:4], rng.integers(0, 3, size=(19, 3)).astype(np.float64)])
        n, d = X.shape
        for k in (1, 2, 3, 5, 9, 18, 25):
            # the block rule, BLOCK_ELEMENTS // (n + min(k, n) * d), gives exactly rows_per_block
            monkeypatch.setattr(knn_module, "BLOCK_ELEMENTS", rows_per_block * (n + min(k, n) * d))
            for weights in ("uniform", "distance"):
                for metric in ("euclidean", "manhattan"):
                    knn = KNearestNeighbors(k=k, weights=weights, metric=metric).fit(X, y)
                    expected = chunked_knn_predict(knn, Q)
                    assert knn.predict(Q).tolist() == expected.tolist(), (k, weights, metric)

    @pytest.mark.parametrize("case", KNN_CASES)
    def test_predictions_match_chunked_oracle_on_adversarial_inputs(self, case):
        X, y, Q = _knn_case(case)
        for k in (1, 3, 9, len(X), len(X) + 2):
            for weights in ("uniform", "distance"):
                for metric in ("euclidean", "manhattan"):
                    knn = KNearestNeighbors(k=k, weights=weights, metric=metric).fit(X, y)
                    expected = chunked_knn_predict(knn, Q)
                    assert knn.predict(Q).tolist() == expected.tolist(), (k, weights, metric)

    @pytest.mark.parametrize("term", ["underflow", "input-rounding", "float32-sum"])
    def test_each_bound_term_keeps_the_nearest_row(self, term):
        # row 1 is the nearest, row 0 looks nearer in float32, and only this
        # term of the filter's bound keeps row 1 a candidate
        X = np.zeros((2, 87))
        query = np.zeros((1, 87))
        metric = "manhattan"
        if term == "underflow":  # row 0's squares (1e-46) flush to 0, row 1's (2.5e-45) do not
            X[0], X[1, 0], metric = 1e-23, 5e-23, "euclidean"
        elif term == "input-rounding":  # q and row 0 round to 1e6, row 1 to 1e6 + 2**-4
            query[0, 0], X[0, 0], X[1, 0] = 1e6 + 0.03, 1e6 - 0.02, 1e6 + 0.033
        else:  # each 2**-24 after the 1.0 rounds away in a float32 running sum
            X[0, 0], X[0, 1:], X[1, 0] = 1.0, 2.0**-24, 1.0 + 80 * 2.0**-24
        knn = KNearestNeighbors(k=1, metric=metric).fit(X, np.array([0, 1]))
        assert knn.predict(query).tolist() == [1] == chunked_knn_predict(knn, query).tolist()

    def test_predictions_match_chunked_oracle_on_generated_inputs(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        value = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 1e-23, 5e-23, 1e-40, 1e6, 1e39]),
                          st.floats(-1e40, 1e40, allow_nan=False, allow_infinity=False))

        @hypothesis.settings(max_examples=200, deadline=None)
        @hypothesis.given(st.integers(1, 5), st.integers(1, 8), st.data())
        def check(d, n, data):
            rows = st.lists(value, min_size=d, max_size=d)
            X = np.array(data.draw(st.lists(rows, min_size=n, max_size=n)))
            Q = np.array(data.draw(st.lists(rows, min_size=1, max_size=4)))
            Q = np.vstack([Q, X[:data.draw(st.integers(0, n))]])  # zero distances too
            y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
            knn = KNearestNeighbors(k=data.draw(st.integers(1, n + 2)),
                                    weights=data.draw(st.sampled_from(["uniform", "distance"])),
                                    metric=data.draw(st.sampled_from(["euclidean", "manhattan"])))
            knn.fit(X, y)
            assert knn.predict(Q).tolist() == chunked_knn_predict(knn, Q).tolist()

        check()

    @pytest.mark.parametrize("weights", ["uniform", "distance"])
    @pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
    def test_equal_class_sums_are_class_zero(self, weights, metric):
        # both queries have two neighbours at one distance with opposite labels
        X = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 9.0]])
        y = np.array([1, 0, 1])
        Q = np.array([[0.0, 0.0], [0.0, 0.5]])
        knn = KNearestNeighbors(k=2, weights=weights, metric=metric).fit(X, y)
        assert knn.predict(Q).tolist() == [0, 0] == chunked_knn_predict(knn, Q).tolist()

    @pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
    def test_class_sums_within_rounding_follow_the_row_order(self, metric):
        # six far positives (1 / d = 2**-53 each) tip the exact sum past the
        # negative's 1.0, but added after the near positive, in the order of
        # the per-row vote, each rounds away: class 0
        far = 2.0**53
        X = np.array([[far], [far], [far], [-far], [far], [-far], [1.0], [-1.0]])
        y = np.array([1, 1, 1, 1, 1, 1, 1, 0])
        knn = KNearestNeighbors(k=8, weights="distance", metric=metric).fit(X, y)
        assert knn.predict([[0.0]]).tolist() == [0] == chunked_knn_predict(knn, [[0.0]]).tolist()

    @pytest.mark.parametrize("shape", [(4, 1), (4, 7), (5,)], ids=["4x1", "4x7", "1-D"])
    def test_query_of_another_width_is_rejected(self, shape):
        # a (4, 1) matrix was broadcast against the 5 training columns
        knn = KNearestNeighbors(k=3).fit(np.eye(5), np.array([0, 1, 0, 1, 1]))
        with pytest.raises(ValueError, match=re.escape(f"5 feature columns the model was fit on; "
                                                       f"got X of shape {shape}")):
            knn.predict(np.zeros(shape))

    def test_labels_other_than_0_or_1_are_rejected(self):
        # the vote sums labels: fit on [2, 2, 0, 0] predicted class 1, which
        # no neighbour had
        X = np.array([[0.0], [0.1], [5.0], [5.1]])
        with pytest.raises(ValueError, match="class labels must be 0 or 1, got 2"):
            KNearestNeighbors(k=3).fit(X, np.array([2, 2, 0, 0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_training_values_are_rejected(self, bad):
        X = np.array([[0.0], [bad], [1.0]])
        with pytest.raises(ValueError, match="pass finite feature values"):
            KNearestNeighbors(k=1).fit(X, np.array([0, 1, 1]))

    def test_matrix_without_columns_is_rejected(self):
        with pytest.raises(ValueError, match="no feature columns; pass at least one"):
            KNearestNeighbors(k=1).fit(np.empty((4, 0)), np.array([0, 1, 0, 1]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_row_is_rejected(self, bad):
        # a NaN row had NaN distances to every training row, and predicted 1;
        # the SVM's decision value was NaN, and it predicted 0; the tree and
        # the forest routed NaN and inf rows down a branch, and predicted 1
        Q = np.zeros((3, 5))
        Q[1, 2] = bad
        for model in (KNearestNeighbors(k=3), KernelSVM(), DecisionTree(),
                      RandomForest(n_estimators=3)):
            model.fit(np.eye(5), np.array([0, 1, 0, 1, 1]))
            with pytest.raises(ValueError, match="pass finite feature values"):
                model.predict(Q)

    def test_predict_memory_does_not_grow_with_query_rows(self):
        # 2,000 x 87 queries against 50 training rows; a 3-D difference of
        # all of them would take 70 MB
        rng = np.random.default_rng(33)
        knn = KNearestNeighbors(k=9, weights="distance", metric="manhattan")
        knn.fit(rng.normal(size=(50, 87)), rng.integers(0, 2, size=50))
        Q = rng.normal(size=(2000, 87))
        tracemalloc.start()
        try:
            knn.predict(Q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20

    def test_predict_memory_stays_bounded_when_every_row_is_a_candidate(self):
        # a column past float32's range leaves the filter nothing to rule out:
        # the exact distances of all 2,000 x 50 pairs are computed, a block at
        # a time, in slices of BLOCK_ELEMENTS elements
        rng = np.random.default_rng(33)
        X = rng.normal(size=(50, 87))
        X[:, 0] = 1e39
        knn = KNearestNeighbors(k=9, weights="distance", metric="manhattan")
        knn.fit(X, rng.integers(0, 2, size=50))
        Q = rng.normal(size=(2000, 87))
        assert np.isinf(knn._distances(Q[:1])).sum() == 0
        tracemalloc.start()
        try:
            knn.predict(Q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20


class TestKernelSVM:
    def test_rbf_kernel_self_similarity_is_one(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(10, 4))
        K = rbf_kernel(X, X, gamma=0.3)
        assert np.array_equal(np.diag(K), np.ones(10))

    def test_linear_decision_matches_dual_expansion(self):
        X, y = separable_set(120, seed=6)
        svm = KernelSVM(C=1.0, kernel="linear").fit(X, y)
        w = svm.dual_coef_ @ svm.support_x_
        direct = X @ w + svm.intercept_
        assert np.allclose(svm.decision_function(X), direct, atol=1e-9)
        assert svm.predict(X).tolist() == (direct > 0).astype(int).tolist()

    def test_separable_data_fits_perfectly(self):
        X, y = separable_set(200, seed=1)
        svm = KernelSVM(C=10.0, kernel="linear").fit(X, y)
        assert (svm.predict(X) == y).mean() == 1.0

    def test_rbf_solves_xor(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
        y = np.array([0, 0, 1, 1])
        svm = KernelSVM(C=10.0, kernel="rbf", gamma=1.0).fit(X, y)
        assert svm.predict(X).tolist() == y.tolist()

    def test_kkt_convergence_flag(self):
        X, y = separable_set(100, seed=9)
        svm = KernelSVM(C=1.0, kernel="rbf", gamma="scale").fit(X, y)
        assert svm.n_iter_ < svm_module.MAX_ITER

    @pytest.mark.parametrize("gamma", ["bogus", "", -2.0, 0, float("nan"), float("inf"), True,
                                       None, [1.0]])
    def test_gamma_is_checked_when_built(self, gamma):
        # "bogus" failed only in fit, and -2.0 fitted
        with pytest.raises(ValueError, match="gamma must be 'scale', 'auto' or a positive number"):
            KernelSVM(kernel="rbf", gamma=gamma)

    @pytest.mark.parametrize("gamma", ["scale", "auto", 0.5, 2, np.float32(0.25)])
    def test_usable_gamma_is_kept(self, gamma):
        assert KernelSVM(kernel="rbf", gamma=gamma).gamma is gamma

    def test_single_class_degenerate(self):
        X = np.array([[0.0], [1.0]])
        svm = KernelSVM().fit(X, np.array([1, 1]))
        assert svm.predict([[5.0]]).tolist() == [1]
        svm0 = KernelSVM().fit(X, np.array([0, 0]))
        assert svm0.predict([[5.0]]).tolist() == [0]
        # it has no support vectors, but still knows the fit's width
        with pytest.raises(ValueError, match=re.escape("1 feature columns the model was fit on; "
                                                       "got X of shape (1, 9)")):
            svm.predict(np.zeros((1, 9)))


class TestRandomForest:
    def test_even_tie_votes_class_zero(self):
        forest = RandomForest(n_estimators=2)
        forest.trees_ = [_leaf(0), _leaf(1)]
        assert forest.predict(np.zeros((3, 2))).tolist() == [0, 0, 0]

    def test_majority_wins(self):
        forest = RandomForest(n_estimators=3)
        forest.trees_ = [_leaf(1), _leaf(1), _leaf(0)]
        assert forest.predict(np.zeros((1, 2))).tolist() == [1]

    def test_takes_no_min_samples_split(self):
        # its trees keep DecisionTree's default of 2, as the RF grid has no such param
        with pytest.raises(TypeError):
            RandomForest(min_samples_split=2)

    def test_deterministic_given_seed(self):
        X, y = separable_set(80, seed=3)
        a = RandomForest(n_estimators=5, seed=11).fit(X, y)
        b = RandomForest(n_estimators=5, seed=11).fit(X, y)
        assert a.to_dict() == b.to_dict()
        c = RandomForest(n_estimators=5, seed=12).fit(X, y)
        assert c.to_dict() != a.to_dict()

    def test_learns_separable_data(self):
        X, y = separable_set(200, seed=4)
        forest = RandomForest(n_estimators=15, seed=0).fit(X, y)
        assert (forest.predict(X) == y).mean() >= 0.99

    @pytest.mark.parametrize("criterion", ["gini", "entropy"])
    @pytest.mark.parametrize("max_depth", [3, None])
    def test_smaller_forest_is_prefix_of_larger(self, criterion, max_depth):
        # what lets grid_search score every n_estimators off one grown forest
        data = make_records(70, d=9, seed=8, shift=0.4)
        params = {"criterion": criterion, "max_depth": max_depth, "seed": 3}
        big = RandomForest(n_estimators=9, **params).fit(data.X, data.y)
        trees = big.to_dict()["trees"]
        for n in (1, 2, 5, 8):
            small = RandomForest(n_estimators=n, **params).fit(data.X, data.y)
            assert small.to_dict()["trees"] == trees[:n]
            assert big.head(n).to_dict() == small.to_dict()


class TestSeparableFloor:
    def test_all_classifiers_clear_95_percent(self):
        X, y = separable_set(500, seed=3)
        X_fit, y_fit = X[:400], y[:400]
        X_val, y_val = X[400:], y[400:]
        classifiers = [
            KernelSVM(C=10.0, kernel="rbf", gamma="scale"),
            KNearestNeighbors(k=9, weights="distance", metric="manhattan"),
            DecisionTree(criterion="gini", max_depth=10, min_samples_split=10),
            RandomForest(n_estimators=20, criterion="entropy", seed=1),
        ]
        for clf in classifiers:
            clf.fit(X_fit, y_fit)
            accuracy = float((clf.predict(X_val) == y_val).mean())
            assert accuracy >= 0.95, f"{type(clf).__name__}: {accuracy:.3f}"


@pytest.fixture(scope="module")
def records():
    return make_records(60, d=9, seed=21, shift=1.5)


@pytest.fixture(scope="module")
def train_ids():
    return set(range(40))


class TestTrainedModelApi:
    @pytest.mark.parametrize("kind,params", [
        (ClassifierKind.SVM, {"C": 1.0, "kernel": "linear", "gamma": "scale"}),
        (ClassifierKind.KNN, {"k": 3, "weights": "uniform", "metric": "euclidean"}),
        (ClassifierKind.DT, {"criterion": "gini", "max_depth": 5, "min_samples_split": 2}),
        (ClassifierKind.RF, {"n_estimators": 5, "max_depth": 5, "criterion": "gini"}),
    ])
    def test_save_load_round_trip(self, tmp_path, records, train_ids, kind, params):
        model = train(kind, params, records, train_ids, seed=42)
        before = predict_batch(model, records.X)
        path = tmp_path / f"{kind.value}.json"
        save_model(model, path)
        loaded = load_model(path, records, train_ids)
        after = predict_batch(loaded, records.X)
        assert before.tolist() == after.tolist()
        assert loaded.params == model.params
        assert loaded.scaler.means.tolist() == model.scaler.means.tolist()

    def test_model_file_bytes_deterministic(self, tmp_path, records, train_ids):
        params = BEST_CONFIGS[ClassifierKind.DT]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_model(train(ClassifierKind.DT, params, records, train_ids), a)
        save_model(train(ClassifierKind.DT, params, records, train_ids), b)
        assert a.read_bytes() == b.read_bytes()

    def test_predict_single_matches_batch(self, records, train_ids):
        model = train(ClassifierKind.KNN, {"k": 3}, records, train_ids)
        batch = predict_batch(model, records.X[:5])
        singles = [int(predict_batch(model, records.X[i : i + 1])[0]) for i in range(5)]
        assert batch.tolist() == singles

    def test_predict_wrong_width(self, records, train_ids):
        model = train(ClassifierKind.DT, {}, records, train_ids)
        for X in (np.zeros((1, 4)), np.zeros(9)):
            with pytest.raises(ValueError, match="expected 9 features"):
                predict_batch(model, X)

    @pytest.mark.parametrize("kind,params", [
        (ClassifierKind.SVM, {"C": 1.0, "kernel": "linear"}),
        (ClassifierKind.KNN, {"k": 3}),
        (ClassifierKind.DT, {}),
        (ClassifierKind.RF, {"n_estimators": 5}),
    ])
    def test_load_rejects_scaler_narrower_than_state(self, tmp_path, records, train_ids,
                                                     kind, params):
        model = train(kind, params, records, train_ids)
        path = tmp_path / "model.json"
        save_model(model, path)
        payload = json.loads(path.read_text())
        width = len(payload["scaler"]["means"])
        if kind in (ClassifierKind.DT, ClassifierKind.RF):
            # a tree bounds the width only by the highest feature it splits on
            trees = [model.estimator] if kind is ClassifierKind.DT else model.estimator.trees_
            width = 1 + max(max(_split_features(t.root_)) for t in trees)
        for key in ("means", "std_devs"):
            payload["scaler"][key] = payload["scaler"][key][:width - 1]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"scaler is {width - 1} features wide"):
            load_model(path, records, train_ids)

    def test_load_rejects_scaler_halves_of_unequal_length(self, tmp_path, records, train_ids):
        path = tmp_path / "model.json"
        save_model(train(ClassifierKind.KNN, {"k": 3}, records, train_ids), path)
        payload = json.loads(path.read_text())
        payload["scaler"]["std_devs"].pop()
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="equal length"):
            load_model(path, records, train_ids)

    def test_train_empty_ids(self, records):
        with pytest.raises(ValueError, match="empty training set"):
            train(ClassifierKind.DT, {}, records, set())

    def test_predictions_deterministic_across_runs(self, records, train_ids):
        params = {"n_estimators": 5, "max_depth": None, "criterion": "entropy"}
        a = train(ClassifierKind.RF, params, records, train_ids, seed=7)
        b = train(ClassifierKind.RF, params, records, train_ids, seed=7)
        assert predict_batch(a, records.X).tolist() == predict_batch(b, records.X).tolist()

    def test_knn_stores_scaled_training_matrix_verbatim(self, records, train_ids):
        model = train(ClassifierKind.KNN, {"k": 3}, records, train_ids)
        rows = sorted(train_ids)
        expected = np.vstack(
            [(records.X[i] - model.scaler.means) / model.scaler.std_devs for i in rows]
        )
        assert np.array_equal(model.estimator.X_, expected)
        assert model.estimator.y_.tolist() == [int(records.y[i]) for i in rows]


class TestModelFileSchema:
    """load_model rejects a file that breaks the metaphish.model/3 schema with
    a ValueError (or KeyError or TypeError) that says which field is wrong."""

    @staticmethod
    def _saved(tmp_path, records, train_ids, kind, params):
        path = tmp_path / f"{kind.value}.json"
        save_model(train(kind, params, records, train_ids), path)
        return path, json.loads(path.read_text())

    def test_deep_tree_saves_and_loads(self, tmp_path):
        # a 2,700-level tree: the nested format raised RecursionError on save
        X = np.arange(4000, dtype=np.float64)[:, None]
        y = (np.arange(4000) % 3 == 0).astype(np.int64)
        data, ids = Dataset(X, y), set(range(4000))
        model = train(ClassifierKind.DT, {"max_depth": None}, data, ids)
        path = tmp_path / "deep.json"
        save_model(model, path)
        loaded = load_model(path, data, ids)
        assert predict_batch(loaded, X).tolist() == predict_batch(model, X).tolist() == y.tolist()

    def test_files_hold_no_rows(self, tmp_path, records, train_ids):
        svm_path, svm = self._saved(tmp_path, records, train_ids, ClassifierKind.SVM,
                                    {"C": 1.0, "kernel": "rbf"})
        _, knn = self._saved(tmp_path, records, train_ids, ClassifierKind.KNN, {"k": 3})
        assert knn["state"] == {}
        assert set(svm["state"]) == {"support_rows", "dual_coef", "intercept", "gamma_value"}
        model = load_model(svm_path, records, train_ids)
        fitted = train(ClassifierKind.SVM, {"C": 1.0, "kernel": "rbf"}, records, train_ids)
        assert model.estimator.support_x_.tobytes() == fitted.estimator.support_x_.tobytes()
        assert model.estimator.support_rows_.tolist() == svm["state"]["support_rows"]

    @pytest.mark.parametrize("kind,params,edit,message", [
        (ClassifierKind.SVM, {"C": 1.0, "kernel": "rbf"},
         lambda p: p["state"]["support_rows"].reverse(), "support_rows must increase strictly"),
        (ClassifierKind.SVM, {"C": 1.0, "kernel": "rbf"},
         lambda p: p["state"]["support_rows"].__setitem__(-1, 40), "inside the 40 training rows"),
        (ClassifierKind.SVM, {"C": 1.0, "kernel": "rbf"},
         lambda p: p["state"]["dual_coef"].pop(), "support_rows but"),
        (ClassifierKind.SVM, {"C": 1.0, "kernel": "rbf"},
         lambda p: p["state"].__setitem__("intercept", None), "intercept must be a finite number"),
        (ClassifierKind.SVM, {"C": 1.0, "kernel": "rbf"},
         lambda p: p["params"].__setitem__("C", 0), "C must be a positive number"),
        (ClassifierKind.SVM, {"C": 1.0, "kernel": "rbf"},
         lambda p: p["params"].__setitem__("kernel", "poly"), "unknown kernel"),
        (ClassifierKind.SVM, {"C": 1.0, "kernel": "rbf"},
         lambda p: p["params"].__setitem__("gamma", "bogus"), "gamma must be 'scale', 'auto'"),
        (ClassifierKind.KNN, {"k": 3},
         lambda p: p["params"].__setitem__("metric", "cosine"), "unknown metric"),
        (ClassifierKind.KNN, {"k": 3},
         lambda p: p["params"].__setitem__("weights", "rank"), "unknown weights"),
        (ClassifierKind.KNN, {"k": 3},
         lambda p: p["scaler"]["means"].__setitem__(0, 0.5), "not the one the manifest"),
        (ClassifierKind.KNN, {"k": 3},
         lambda p: p["scaler"]["std_devs"].__setitem__(0, float("inf")), "std_devs must be"),
        (ClassifierKind.DT, {"max_depth": 3},
         lambda p: p["state"].update(feature=[0, -1, -1], threshold=[0.5, 0.5], label=[0, 1]),
         "a tree needs one threshold per split: 1 splits, 2 thresholds"),
        (ClassifierKind.DT, {"max_depth": 3},
         lambda p: p["state"].update(feature=[0, -1, -1], threshold=[0.5], label=[0]),
         "a tree needs one label per leaf: 2 leaves, 1 labels"),
        (ClassifierKind.DT, {"max_depth": 3},
         lambda p: p["state"].update(feature=[-1, -1], threshold=[], label=[0, 1]),
         "tree node 1 follows a complete tree"),
        (ClassifierKind.DT, {"max_depth": 3},
         lambda p: p["state"].update(feature=[0, -1, -1, -1], threshold=[0.5], label=[0, 1, 1]),
         "tree node 3 follows a complete tree"),
        (ClassifierKind.DT, {"max_depth": 3},
         lambda p: p["state"].update(feature=[0, -1], threshold=[0.5], label=[0]),
         "a tree's sequences end with 1 subtrees missing"),
        (ClassifierKind.DT, {"max_depth": 3},
         lambda p: p["state"].update(feature=[0, 0, -1, -1], threshold=[0.5, 0.5], label=[0, 1]),
         "a tree's sequences end with 1 subtrees missing"),
        (ClassifierKind.DT, {"max_depth": 3},
         lambda p: p["state"].update(feature=[], threshold=[], label=[]),
         "a tree needs at least one node"),
        (ClassifierKind.DT, {"max_depth": 3},
         lambda p: p["state"]["feature"].__setitem__(0, -2), "splits on feature -2"),
        (ClassifierKind.DT, {"max_depth": 3},
         lambda p: p["state"]["threshold"].__setitem__(0, float("inf")),
         "threshold must be a list of finite numbers"),
        (ClassifierKind.DT, {"max_depth": 3},
         lambda p: p["state"]["threshold"].__setitem__(0, "0.5"),
         "threshold must be a list of finite numbers"),
        (ClassifierKind.DT, {"max_depth": 3},
         lambda p: p["state"]["label"].__setitem__(0, 2), "a tree leaf has class label 2, not 0 or 1"),
        (ClassifierKind.DT, {"max_depth": 3},
         lambda p: p["state"]["label"].__setitem__(0, 1.0), "label must be a list of integers"),
        (ClassifierKind.DT, {"max_depth": 3},
         lambda p: p["state"]["feature"].__setitem__(0, 9), "splits on feature 9"),
        (ClassifierKind.DT, {"max_depth": 3},
         lambda p: p["state"]["feature"].__setitem__(0, 1.0), "feature must be a list of integers"),
        (ClassifierKind.DT, {"max_depth": 3},
         lambda p: p["params"].__setitem__("criterion", "mse"), "unknown criterion"),
        (ClassifierKind.RF, {"n_estimators": 3},
         lambda p: p["params"].__setitem__("criterion", "mse"), "unknown criterion"),
        (ClassifierKind.RF, {"n_estimators": 3},
         lambda p: p["state"]["trees"].pop(), "holds 2 trees, but n_estimators is 3"),
        (ClassifierKind.RF, {"n_estimators": 3},
         lambda p: p.__setitem__("seed", "42"), "seed an integer"),
        (ClassifierKind.RF, {"n_estimators": 3},
         lambda p: p["state"]["trees"][2]["label"].append(0), "a tree needs one label per leaf"),
    ])
    def test_schema_violation_is_rejected(self, tmp_path, records, train_ids, kind, params,
                                          edit, message):
        path, payload = self._saved(tmp_path, records, train_ids, kind, params)
        assert load_model(path, records, train_ids).kind is kind  # the untouched file loads
        edit(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=re.escape(message)):
            load_model(path, records, train_ids)

    @pytest.mark.parametrize("kind", list(ClassifierKind))
    def test_saving_a_loaded_model_rewrites_its_file(self, pipeline_run, tmp_path, kind):
        data = load_dataset(FIXTURE_CSV)
        with open(pipeline_run / "split_manifest.csv", newline="") as fh:
            train_ids = {int(row["id"]) for row in csv.DictReader(fh) if row["role"] == "train"}
        path = pipeline_run / f"model_{kind.value}.json"
        save_model(load_model(path, data, train_ids), tmp_path / path.name)
        assert (tmp_path / path.name).read_bytes() == path.read_bytes()

    def test_fixture_model_files_are_small(self, pipeline_run):
        sizes = {kind: (pipeline_run / f"model_{kind.value}.json").stat().st_size
                 for kind in ClassifierKind}
        assert sum(sizes.values()) < 150_000, sizes  # 653 kB when KNN and SVM stored rows
        knn = json.loads((pipeline_run / "model_knn.json").read_text())
        assert knn["state"] == {}


class TestGenerateInitialBeliefs:
    def _models(self, records, train_ids):
        cheap = {
            ClassifierKind.SVM: {"C": 1.0, "kernel": "linear"},
            ClassifierKind.KNN: {"k": 3},
            ClassifierKind.DT: {"max_depth": 3},
            ClassifierKind.RF: {"n_estimators": 3},
        }
        return {kind: train(kind, params, records, train_ids) for kind, params in cheap.items()}

    def test_four_beliefs_per_instance(self, records, train_ids):
        models = self._models(records, train_ids)
        test_ids = set(range(len(records))) - train_ids
        beliefs = generate_initial_beliefs(models, records, test_ids)
        assert len(beliefs) == 4 * len(test_ids)
        assert len(test_ids) > 1
        assert beliefs.ids.tolist() == sorted(test_ids)
        # the column order of final_beliefs.csv's rows: classifier kind
        assert list(beliefs.classes) == list(ClassifierKind)
        X = records.X[beliefs.ids]
        for kind, column in beliefs.classes.items():
            assert column.dtype == np.int64
            assert np.array_equal(column, predict_batch(models[kind], X))

    def test_empty_test_set(self, records, train_ids):
        models = self._models(records, train_ids)
        beliefs = generate_initial_beliefs(models, records, set())
        assert len(beliefs) == 0 and beliefs.ids.shape == (0,)
        for model in models.values():
            classes = predict_batch(model, records.X[:0])
            assert classes.dtype == np.int64 and classes.shape == (0,)

    def test_single_instance_gets_one_belief_per_classifier(self, records, train_ids):
        models = self._models(records, train_ids)
        beliefs = generate_initial_beliefs(models, records, {41})
        assert beliefs.ids.tolist() == [41]
        assert [column.shape for column in beliefs.classes.values()] == [(1,)] * 4

    def test_missing_model_rejected(self, records, train_ids):
        models = self._models(records, train_ids)
        del models[ClassifierKind.RF]
        with pytest.raises(ValueError, match="missing model.*rf"):
            generate_initial_beliefs(models, records, {41})
