from __future__ import annotations

import hashlib
import math

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
from _support import make_records, per_feature_best_split, separable_set

# sha256 of the byte-stable artifacts of the fixture's `train --best-config
# --seed 42` and `revise` (run_config.kv records the output path, so it is not
# pinned); a change that alters any model, the split or a verdict fails here
PINNED_ARTIFACTS = {
    "model_svm.json": "ffb3ed3fbcc6e18f39acfd50bffec454899bd831298ac365215f536e1ce5e8ef",
    "model_knn.json": "b3b1dc078c3fa323122f0d6897e8ba87ca3d4019c51dc8d9585426aa27c020e4",
    "model_dt.json": "0820b07d31fcc15149138938ee93ec403d6a1bf002a67493e522b80c3296aaad",
    "model_rf.json": "295e1424b3142cebaedb1667f93e9e4d312454337de18f15c23bfb10a7ef3178",
    "split_manifest.csv": "2959b93a3652e831d09fa7b773169dbd76df33651a85f33c232899e80030b224",
    "cv_summary.kv": "685c6712b0777eebfe3eee604a37dd832cf35e4fff5054eb60c465ecf88fb4d9",
    "facts.lp": "4f455ad1e1d28b621b8abc43e25db95344a5cecf6485b0460a608eacc8acded2",
    "final_beliefs.csv": "1b608a901303235bb410468ad3c74779eef8f63bd37cb3d18b4cf0fd6692526b",
    "report.kv": "a1715480356f44be7403c864884d809655f862d5f05322d598b3b93b603c006c",
}
PINNED_TREE_MODELS = ("model_dt.json", "model_rf.json")


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
            assert tree._best_split(X, y, gini if criterion == "gini" else entropy) is None

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
        clone = DecisionTree.from_dict(tree.to_dict())
        assert clone.predict(X).tolist() == tree.predict(X).tolist()


class TestBestSplitEquivalence:
    """The single-pass split search against the per-feature oracle."""

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
            for _ in range(2):  # two draws in a row keep the streams in step
                got = tree._best_split(X, y, impurity)
                want = per_feature_best_split(X, y, impurity, max_features, oracle_rng)
                assert got == want, (case, got, want)
                assert tree.rng.bit_generator.state == oracle_rng.bit_generator.state
                if got is not None:
                    assert type(got[0]) is int and type(got[1]) is float
                    found += 1
        assert found > 200  # most cases do split; the comparison is not vacuous


class TestTreeModelParity:
    @pytest.mark.parametrize("name", PINNED_TREE_MODELS)
    def test_fixture_tree_model_bytes_pinned(self, pipeline_run, name):
        _assert_pinned(pipeline_run, name)


class TestPipelineArtifactParity:
    @pytest.mark.parametrize("name", [n for n in PINNED_ARTIFACTS if n not in PINNED_TREE_MODELS])
    def test_fixture_artifact_bytes_pinned(self, pipeline_run, name):
        _assert_pinned(pipeline_run, name)


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
        assert svm.n_iter_ < svm.max_iter

    def test_single_class_degenerate(self):
        X = np.array([[0.0], [1.0]])
        svm = KernelSVM().fit(X, np.array([1, 1]))
        assert svm.predict([[5.0]]).tolist() == [1]
        svm0 = KernelSVM().fit(X, np.array([0, 0]))
        assert svm0.predict([[5.0]]).tolist() == [0]


class TestRandomForest:
    def test_even_tie_votes_class_zero(self):
        forest = RandomForest(n_estimators=2)
        forest.trees_ = [
            DecisionTree.from_dict({"root": {"label": 0}}),
            DecisionTree.from_dict({"root": {"label": 1}}),
        ]
        assert forest.predict(np.zeros((3, 2))).tolist() == [0, 0, 0]

    def test_majority_wins(self):
        forest = RandomForest(n_estimators=3)
        forest.trees_ = [
            DecisionTree.from_dict({"root": {"label": 1}}),
            DecisionTree.from_dict({"root": {"label": 1}}),
            DecisionTree.from_dict({"root": {"label": 0}}),
        ]
        assert forest.predict(np.zeros((1, 2))).tolist() == [1]

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
        loaded = load_model(path)
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
        per_pair = {(b.classifier, b.instance_id) for b in beliefs}
        assert len(per_pair) == len(beliefs)

    def test_empty_test_set(self, records, train_ids):
        models = self._models(records, train_ids)
        assert generate_initial_beliefs(models, records, set()) == []

    def test_single_instance_gets_one_belief_per_classifier(self, records, train_ids):
        models = self._models(records, train_ids)
        beliefs = generate_initial_beliefs(models, records, {41})
        assert [b.classifier for b in beliefs] == list(ClassifierKind)
        assert all(type(b.instance_id) is int and b.instance_id == 41 for b in beliefs)

    def test_missing_model_rejected(self, records, train_ids):
        models = self._models(records, train_ids)
        del models[ClassifierKind.RF]
        with pytest.raises(ValueError, match="missing model.*rf"):
            generate_initial_beliefs(models, records, {41})
