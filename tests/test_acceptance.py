"""Acceptance suite: one test (or test pair) per release criterion.

Every test prints one ``ACCEPTANCE <id> <name>: PASS|FAIL|SKIP`` line; run
with ``pytest tests/test_acceptance.py -v -s`` to see them.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
import random
import time

import numpy as np
import pytest

from metaphish import kb, nmr
from metaphish.classifiers import (
    KIND_ORDER,
    ClassifierKind,
    Beliefs,
    DecisionTree,
    KNearestNeighbors,
    KernelSVM,
    RandomForest,
    entropy,
    gini,
    load_model,
    predict_batch,
)
from metaphish.dataset import fit_scaler, load_dataset, make_split
from metaphish.revision import apply_revision, build_report, parse_kv, render_report_text
from test_revision import REFERENCE_REPORT_KV

from _support import (
    atom_sort_key,
    benchmark_csv,
    check_stability,
    direct_revision,
    ground_atoms,
    make_records,
    random_scenario,
    random_stratified_program,
    separable_set,
)

TABLE_I_TARGETS = {
    ClassifierKind.SVM: 0.9632,
    ClassifierKind.KNN: 0.9518,
    ClassifierKind.DT: 0.9383,
    ClassifierKind.RF: 0.9589,
}
ACCURACY_TOLERANCE = 0.015  # percentage points, as a fraction


def criterion(cid: str, name: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException as exc:
                verdict = "SKIP" if isinstance(exc, pytest.skip.Exception) else "FAIL"
                print(f"ACCEPTANCE {cid} {name}: {verdict}")
                raise
            print(f"ACCEPTANCE {cid} {name}: PASS")

        return wrapper

    return decorate


@criterion("C1", "revision-oracle-equivalence")
def test_c1_asp_path_equals_functional_oracle():
    rng = random.Random(20260808)
    beliefs, meta, _ = random_scenario(rng, 2500)  # 10,000 decisions
    assert len(beliefs) == 10_000
    start = time.perf_counter()
    finals = apply_revision(beliefs, kb.encode(beliefs, meta))
    mismatches = sum(
        1
        for f in finals
        if f.final_class != direct_revision(f.initial_class, meta[f.instance_id])
    )
    elapsed = time.perf_counter() - start
    assert mismatches == 0
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


def _revised_identity_check(out_dir):
    facts = kb.load_facts(out_dir / "facts.lp")
    meta_yes = {args[0] for pred, args in facts if pred == "meta" and args[1] == "yes"}
    expected = {k.value: 0 for k in KIND_ORDER}
    for pred, args in facts:
        if pred == "pred" and args[2] == "phishing" and args[1] in meta_yes:
            expected[args[0]] += 1
    kv = parse_kv((out_dir / "report.kv").read_text())
    for kind in KIND_ORDER:
        assert int(kv[f"{kind.value}.revised"]) == expected[kind.value], kind.value


@criterion("C2", "revision-count-identity-fixture")
def test_c2_identity_on_synthetic_fixture(pipeline_run):
    _revised_identity_check(pipeline_run)


@criterion("C2", "revision-count-identity-benchmark")
def test_c2_identity_on_benchmark(benchmark_run):
    out_dir, _ = benchmark_run
    path = benchmark_csv()
    if load_dataset(path).meta is None:
        pytest.skip("benchmark CSV has no meta_present column")
    from metaphish.cli import main

    rc = main(["revise", "--dataset", str(path), "--out", str(out_dir)])
    assert rc == 0
    _revised_identity_check(out_dir)


@criterion("C3", "fp-monotonicity")
def test_c3_fp_monotone_over_random_runs():
    rng = random.Random(31)
    for _ in range(1000):
        beliefs, meta, truth = random_scenario(rng, rng.randint(1, 12))
        report = build_report(apply_revision(beliefs, kb.encode(beliefs, meta)), truth)
        for outcome in report.per_classifier.values():
            assert outcome.after.fp <= outcome.before.fp
            assert outcome.after.fn >= outcome.before.fn
    # the reference fixture must render with falling FP counts across the board
    text = render_report_text(REFERENCE_REPORT_KV)
    lines = text.splitlines()
    before = [int(v) for v in next(l for l in lines if "without nmr" in l).split()[-4:]]
    after = [int(v) for v in next(l for l in lines if "with nmr" in l).split()[-4:]]
    assert before == [41, 47, 69, 49]
    assert after == [30, 34, 48, 35]
    assert all(a < b for a, b in zip(after, before))


@criterion("C3", "fp-monotonicity-hypothesis")
def test_c3_fp_monotone_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    # per instance: the four classifiers' verdicts, the meta flag, the truth
    instance = st.tuples(st.tuples(*[st.integers(0, 1)] * len(KIND_ORDER)),
                         st.booleans(), st.integers(0, 1))

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(st.lists(instance, min_size=1, max_size=12))
    def check(instances):
        beliefs = Beliefs(range(len(instances)),
                          dict(zip(KIND_ORDER, zip(*(classes for classes, _, _ in instances)))))
        meta = {iid: flag for iid, (_, flag, _) in enumerate(instances)}
        truth = [t for _, _, t in instances]
        report = build_report(apply_revision(beliefs, kb.encode(beliefs, meta)), truth)
        for outcome in report.per_classifier.values():
            assert outcome.after.fp <= outcome.before.fp
            assert outcome.after.fn >= outcome.before.fn

    check()


@criterion("C4", "benchmark-accuracy")
def test_c4_benchmark_accuracies(benchmark_run):
    out_dir, train_seconds = benchmark_run
    assert train_seconds <= 900, f"training took {train_seconds:.0f}s (budget 15 min)"
    data = load_dataset(benchmark_csv())
    with open(out_dir / "split_manifest.csv", newline="") as fh:
        roles = [(int(r["id"]), r["role"]) for r in csv.DictReader(fh)]
    train_ids = {rid for rid, role in roles if role == "train"}
    test_ids = {rid for rid, role in roles if role == "test"}
    rows = data.rows(test_ids)
    truth = data.y[rows]
    for kind in KIND_ORDER:
        model = load_model(out_dir / f"model_{kind.value}.json", data, train_ids)
        accuracy = float((predict_batch(model, data.X[rows]) == truth).mean())
        target = TABLE_I_TARGETS[kind]
        assert abs(accuracy - target) <= ACCURACY_TOLERANCE, (
            f"{kind.value}: accuracy {accuracy:.4f} vs target {target:.4f}"
        )


@criterion("C5", "solver-vs-stability-oracle")
def test_c5_solver_matches_exhaustive_oracle():
    rng = random.Random(41)
    start = time.perf_counter()
    for _ in range(500):
        program = nmr.parse_program(random_stratified_program(rng, max_atoms=11))
        gp = ground_atoms(program)
        answer = nmr.solve(gp)
        universe = sorted(
            {a for r in gp.rules for a in (r.head, *r.pos, *r.neg)},
            key=atom_sort_key,
        )
        assert len(universe) <= 12
        stable = []
        for size in range(len(universe) + 1):
            for combo in itertools.combinations(universe, size):
                candidate = frozenset(combo)
                if check_stability(gp, candidate):
                    stable.append(candidate)
        assert stable == [answer.atoms]
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


@criterion("C5", "solver-vs-stability-oracle-hypothesis")
def test_c5_solver_matches_exhaustive_oracle_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(st.randoms(use_true_random=False))
    def check(rng):
        gp = ground_atoms(nmr.parse_program(random_stratified_program(rng, max_atoms=11)))
        universe = {a for r in gp.rules for a in (r.head, *r.pos, *r.neg)}
        stable = [frozenset(combo)
                  for size in range(len(universe) + 1)
                  for combo in itertools.combinations(universe, size)
                  if check_stability(gp, frozenset(combo))]
        assert stable == [nmr.solve(gp).atoms] == [gp.model.atoms]

    check()


@criterion("C6", "non-monotonic-withdrawal")
def test_c6_withdrawal_witness():
    # pure knowledge-layer change: no model files are read or written
    from metaphish.revision import revision_program

    program = revision_program()
    base = [("pred", ("rf", 42, "phishing"))]
    before = nmr.solve(ground_atoms(program, base))
    assert ("final", ("rf", 42, "phishing")) in before.atoms
    after = nmr.solve(ground_atoms(program, base + [("meta", (42, "yes"))]))
    assert ("final", ("rf", 42, "phishing")) not in after.atoms
    assert ("final", ("rf", 42, "benign")) in after.atoms


@criterion("C7", "reasoning-layer-linearity")
def test_c7_firings_linear_in_instances():
    from metaphish.revision import revision_program

    program = revision_program()
    sizes = (100, 1000, 10_000)
    firings = []
    for n in sizes:
        beliefs = Beliefs(range(n), {kind: [(i + j) % 2 for i in range(n)]
                                     for j, kind in enumerate(KIND_ORDER)})
        meta = {i: i % 2 == 0 for i in range(n)}
        gp = nmr.ground(program, kb.encode(beliefs, meta))
        answer = nmr.solve(gp)
        firings.append(gp.stats.firings + answer.stats.firings)
    x = np.array(sizes, dtype=float)
    y = np.array(firings, dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    predicted = slope * x + intercept
    deviation = np.abs(predicted - y) / y
    assert np.all(deviation < 0.10), f"firings {firings}, deviation {deviation}"
    assert slope > 0


@criterion("C8", "pipeline-determinism")
def test_c8_byte_identical_runs(pipeline_run, pipeline_rerun):
    for name in ("facts.lp", "final_beliefs.csv", "report.kv"):
        assert (pipeline_run / name).read_bytes() == (pipeline_rerun / name).read_bytes(), name


@criterion("C9", "scaler-and-classifier-micro-oracles")
def test_c9_micro_oracles():
    # scaler: scaled training mean/std bounds at 1e-9
    data = make_records(128, d=20, seed=2)
    X = fit_scaler(data, set(range(128))).scale(data.X)
    assert np.all(np.abs(X.mean(axis=0)) < 1e-9)
    std = np.sqrt((X**2).mean(axis=0) - X.mean(axis=0) ** 2)
    assert np.all(np.abs(std - 1.0) < 1e-9)

    # impurity closed forms at 1e-12
    for p in (0.0, 0.25, 0.5, 1.0):
        assert abs(float(gini(p)) - 2 * p * (1 - p)) < 1e-12
        expected = -sum(s * math.log2(s) for s in (p, 1 - p) if s > 0)
        assert abs(float(entropy(p)) - expected) < 1e-12

    # KNN k=1 on a training point returns its own label
    X_knn = np.array([[0.0, 1.0], [3.0, 3.0], [6.0, 0.0]])
    y_knn = np.array([1, 0, 1])
    assert KNearestNeighbors(k=1).fit(X_knn, y_knn).predict(X_knn).tolist() == [1, 0, 1]

    # RF even 50/50 vote goes to class 0
    forest = RandomForest(n_estimators=2)
    leaf = {"feature": [-1], "threshold": []}
    forest.trees_ = [DecisionTree.from_dict({**leaf, "label": [c]}, n_features=2) for c in (0, 1)]
    assert forest.predict(np.zeros((1, 2))).tolist() == [0]

    # each classifier clears 95% on a held-out slice of a separable set
    X, y = separable_set(500, seed=3)
    X_fit, y_fit, X_val, y_val = X[:400], y[:400], X[400:], y[400:]
    for clf in (
        KernelSVM(C=10.0, kernel="rbf", gamma="scale"),
        KNearestNeighbors(k=9, weights="distance", metric="manhattan"),
        DecisionTree(criterion="gini", max_depth=10, min_samples_split=10),
        RandomForest(n_estimators=20, criterion="entropy", seed=1),
    ):
        clf.fit(X_fit, y_fit)
        assert float((clf.predict(X_val) == y_val).mean()) >= 0.95
