"""Shared fixtures-in-code and independent oracles for the test suite."""

from __future__ import annotations

import os
import random
from pathlib import Path

import numpy as np

from metaphish.classifiers import KIND_ORDER, InitialBelief
from metaphish.dataset import Dataset

DATA_DIR = Path(__file__).parent / "data"
FIXTURE_CSV = DATA_DIR / "synthetic_200.csv"

BENCHMARK_ENV = "METAPHISH_DATASET"


def benchmark_csv() -> Path | None:
    """Path to the full benchmark CSV, if available in this environment."""
    candidates = []
    env = os.environ.get(BENCHMARK_ENV)
    if env:
        candidates.append(Path(env))
    candidates.append(Path(__file__).resolve().parent.parent / "data" / "dataset_phishing.csv")
    for path in candidates:
        if path.is_file():
            return path
    return None


def make_records(n: int, d: int = 87, seed: int = 0, shift: float = 0.0) -> Dataset:
    """n rows with alternating labels; optional class shift on feature 0."""
    rng = np.random.default_rng(seed)
    X = rng.normal(0.0, 1.0, size=(n, d))
    y = np.arange(n) % 2
    X[:, 0] += np.where(y == 1, shift, -shift)
    return Dataset(X, y)


def separable_set(n: int = 500, seed: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """A linearly separable two-class point cloud in the plane."""
    rng = np.random.default_rng(seed)
    half = n // 2
    a = rng.normal(0.0, 0.6, size=(half, 2)) + [-2.0, -2.0]
    b = rng.normal(0.0, 0.6, size=(n - half, 2)) + [2.0, 2.0]
    X = np.vstack([a, b])
    y = np.array([0] * half + [1] * (n - half), dtype=np.int64)
    order = rng.permutation(n)
    return X[order], y[order]


def per_feature_best_split(X, y, impurity, max_features=None, rng=None):
    """The tree's split search as one pass per candidate feature (the oracle
    for ``DecisionTree._best_split``): the best impurity decrease above 0,
    ties to the lower feature index, then the lower threshold.  Draws the
    candidate features from ``rng`` exactly as the tree does."""
    n, d = X.shape
    if max_features is None or max_features >= d:
        features = range(d)
    else:
        features = sorted(int(j) for j in rng.choice(d, size=max_features, replace=False))
    total_pos = int(y.sum())
    parent = float(impurity(total_pos / n))
    best_gain = 0.0
    best = None
    for j in features:
        col = X[:, j]
        order = np.argsort(col, kind="stable")
        sv = col[order]
        cum_pos = np.cumsum(y[order])
        cut = np.nonzero(sv[:-1] < sv[1:])[0]  # boundaries between distinct values
        if len(cut) == 0:
            continue
        n_left = cut + 1
        n_right = n - n_left
        pos_left = cum_pos[cut]
        p_left = pos_left / n_left
        p_right = (total_pos - pos_left) / n_right
        child = (n_left * impurity(p_left) + n_right * impurity(p_right)) / n
        gains = parent - child
        k = int(np.argmax(gains))
        if gains[k] > best_gain:
            best_gain = float(gains[k])
            best = (j, float((sv[cut[k]] + sv[cut[k] + 1]) / 2.0))
    return best


def direct_revision(initial_class: int, meta_present: bool) -> int:
    """Direct functional evaluation of the revision rule (the test oracle):
    phishing with meta present becomes benign, everything else passes through."""
    if initial_class == 1 and meta_present:
        return 0
    return initial_class


def random_scenario(rng: random.Random, n_instances: int):
    """Random (beliefs, meta flags, ground truth) triple over the four classifiers."""
    beliefs = []
    meta = {}
    truth = {}
    for iid in range(n_instances):
        meta[iid] = rng.random() < 0.5
        truth[iid] = rng.randrange(2)
        for kind in KIND_ORDER:
            beliefs.append(InitialBelief(kind, iid, rng.randrange(2)))
    return beliefs, meta, truth


def random_stratified_program(rng: random.Random, max_atoms: int = 11) -> str:
    """Random ground (propositional) program, stratified by construction.

    Atoms get levels; a rule's positive body stays at or below its head's
    level and its negative body strictly below, so no negative cycle can
    form.  Some atoms are asserted as facts.
    """
    n_atoms = rng.randint(4, max_atoms)
    atoms = [f"a{k}" for k in range(n_atoms)]
    level = {a: rng.randint(0, 2) for a in atoms}
    lines = []
    for a in atoms:
        if rng.random() < 0.35:
            lines.append(f"{a}.")
    n_rules = rng.randint(n_atoms, 2 * n_atoms)
    for _ in range(n_rules):
        head = rng.choice(atoms)
        pos_pool = [a for a in atoms if level[a] <= level[head] and a != head]
        neg_pool = [a for a in atoms if level[a] < level[head]]
        pos = rng.sample(pos_pool, min(len(pos_pool), rng.randint(0, 2)))
        neg = rng.sample(neg_pool, min(len(neg_pool), rng.randint(0, 1)))
        body = pos + [f"not {a}" for a in neg]
        if body:
            lines.append(f"{head} :- {', '.join(body)}.")
        else:
            lines.append(f"{head}.")
    return "\n".join(lines) + "\n"
