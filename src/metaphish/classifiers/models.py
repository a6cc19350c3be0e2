"""Hyperparameter grids, cross-validated selection, and the trained-model API.

The four classifier kinds share one interface: :func:`train` fits the scaler
on the training rows of a :class:`~metaphish.dataset.Dataset` and the
estimator on the scaled matrix, and :func:`predict_batch` takes a raw
(unscaled) feature matrix and applies the model's own scaler.

A model file (``metaphish.model/3``, compact JSON) holds only what the fit
learned: the params, the scaler, and the estimator's state, whose floats
round-trip exactly through JSON; a tree is stored as its pre-order
sequence.  It is not self-contained: KNN's training rows and SVM's support
vectors are rebuilt from the run's dataset and split manifest, so a reloaded
model reproduces bit-identical predictions only with those.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Mapping

import numpy as np

from metaphish.dataset import Dataset, ScalerStats, fit_scaler
from metaphish.classifiers.forest import RandomForest, majority
from metaphish.classifiers.knn import KNearestNeighbors
from metaphish.classifiers.schema import float_list
from metaphish.classifiers.svm import KernelSVM
from metaphish.classifiers.tree import DecisionTree

MODEL_FORMAT = "metaphish.model/3"


class ClassifierKind(str, Enum):
    SVM = "svm"
    KNN = "knn"
    DT = "dt"
    RF = "rf"


KIND_ORDER = tuple(ClassifierKind)


# per kind, named candidate lists, enumerated by itertools.product in order
DEFAULT_GRIDS: dict[ClassifierKind, dict[str, tuple]] = {
    ClassifierKind.SVM: {"C": (0.1, 1.0, 10.0), "kernel": ("linear", "rbf"),
                         "gamma": ("scale", "auto")},
    ClassifierKind.KNN: {"k": (3, 5, 7, 9), "weights": ("uniform", "distance"),
                         "metric": ("euclidean", "manhattan")},
    ClassifierKind.DT: {"criterion": ("gini", "entropy"), "max_depth": (3, 5, 10, None),
                        "min_samples_split": (2, 5, 10)},
    ClassifierKind.RF: {"n_estimators": (100, 200), "max_depth": (5, 10, None),
                        "criterion": ("gini", "entropy")},
}

# winning configurations from the benchmark model-selection run
BEST_CONFIGS: dict[ClassifierKind, dict] = {
    ClassifierKind.SVM: {"C": 10.0, "kernel": "rbf", "gamma": "scale"},
    ClassifierKind.KNN: {"k": 9, "weights": "distance", "metric": "manhattan"},
    ClassifierKind.DT: {"criterion": "gini", "max_depth": 10, "min_samples_split": 10},
    ClassifierKind.RF: {"n_estimators": 100, "max_depth": None, "criterion": "entropy"},
}


def effective_candidates(kind: ClassifierKind, grid: Mapping[str, tuple]) -> list[dict]:
    """The candidates of ``kind``'s ``grid`` in enumeration order, with
    duplicates removed.

    gamma is meaningless for the linear kernel, so linear candidates drop it
    and collapse to one effective fit each.
    """
    seen = set()
    out = []
    for values in itertools.product(*grid.values()):
        params = dict(zip(grid, values))
        if kind is ClassifierKind.SVM and params.get("kernel") == "linear":
            params.pop("gamma", None)
        key = tuple(sorted(params.items(), key=lambda kv: kv[0]))
        if key in seen:
            continue
        seen.add(key)
        out.append(params)
    return out


@dataclass(frozen=True, eq=False)
class Beliefs:
    """The classifiers' pre-revision verdicts on a set of instances, as columns.

    ``ids`` holds the instance ids in increasing order, and ``classes`` one
    column of verdicts (0 or 1) per classifier, aligned with ``ids``, keyed in
    :data:`KIND_ORDER`; all are read-only int64 copies.  ``len()`` counts the
    decisions: one per (instance, classifier).
    """

    ids: np.ndarray
    classes: Mapping[ClassifierKind, np.ndarray]

    def __post_init__(self):
        ids = np.array(self.ids, dtype=np.int64)
        classes = {ClassifierKind(k): np.array(c, dtype=np.int64) for k, c in self.classes.items()}
        if ids.ndim != 1 or (ids.size and (ids[0] < 0 or np.any(ids[1:] <= ids[:-1]))):
            raise ValueError("ids must be a flat vector of increasing non-negative integers")
        if not classes or list(classes) != [kind for kind in KIND_ORDER if kind in classes]:
            raise ValueError(f"classes must name one or more classifiers, in the order "
                             f"{', '.join(k.value for k in KIND_ORDER)}")
        for kind, column in classes.items():
            if column.shape != ids.shape or np.any((column != 0) & (column != 1)):
                raise ValueError(f"the {kind.value} verdicts must be one 0 or 1 per id")
        for array in (ids, *classes.values()):
            array.flags.writeable = False
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "classes", classes)

    def __len__(self) -> int:
        return self.ids.size * len(self.classes)


@dataclass(frozen=True)
class TrainedModel:
    kind: ClassifierKind
    params: dict
    seed: int
    scaler: ScalerStats
    estimator: object


@dataclass(frozen=True)
class GridSearchResult:
    params: dict
    cv_accuracy: float
    candidate_scores: tuple[tuple[dict, float], ...]


def _build_estimator(kind: ClassifierKind, params: dict, seed: int):
    if kind is ClassifierKind.SVM:
        return KernelSVM(**params)
    if kind is ClassifierKind.KNN:
        return KNearestNeighbors(**params)
    if kind is ClassifierKind.DT:
        return DecisionTree(**params)
    if kind is ClassifierKind.RF:
        return RandomForest(seed=seed, **params)
    raise ValueError(f"unknown classifier kind {kind!r}")


def train(kind: ClassifierKind, params: dict, data: Dataset,
          train_ids, seed: int = 42) -> TrainedModel:
    """Fit the scaler on the training rows, then the estimator on scaled data."""
    stats = fit_scaler(data, train_ids)
    rows = data.rows(train_ids)
    estimator = _build_estimator(kind, dict(params), seed)
    estimator.fit(stats.scale(data.X[rows]), data.y[rows])
    return TrainedModel(kind, dict(params), seed, stats, estimator)


def predict_batch(model: TrainedModel, X) -> np.ndarray:
    """Deterministic class predictions for the raw rows of ``X``, in order."""
    return model.estimator.predict(model.scaler.scale(X))


def generate_initial_beliefs(models: Mapping[ClassifierKind, TrainedModel],
                             data: Dataset, test_ids) -> Beliefs:
    """Every classifier's verdict on the sorted test ids, one column per
    classifier; requires all four models."""
    missing = [k.value for k in KIND_ORDER if k not in models]
    if missing:
        raise ValueError(f"missing model for classifier(s): {', '.join(missing)}")
    rows = data.rows(test_ids)
    X = data.X[rows]
    return Beliefs(rows, {kind: predict_batch(models[kind], X) for kind in KIND_ORDER})


def _score_forests(group: list[dict], seed: int, X_fit, y_fit, X_val, y_val) -> list[float]:
    """The fold accuracy of each RF candidate in ``group``, which differ only
    in ``n_estimators`` and ``max_depth`` (see :func:`grid_search`)."""
    shapes = [RandomForest(seed=seed, **params) for params in group]
    depths = list(dict.fromkeys(f.max_depth for f in shapes))
    grown = RandomForest(seed=seed, **{
        **group[0], "n_estimators": max(f.n_estimators for f in shapes),
        "max_depth": None if None in depths else max(depths)}).fit(X_fit, y_fit)
    verdicts = [tree.predict(X_val) for tree in grown.trees_]
    accs = [0.0] * len(group)
    for depth in depths:
        members = [i for i, f in enumerate(shapes) if f.max_depth == depth]
        n_most = max(shapes[i].n_estimators for i in members)
        # the verdicts of this limit's trees; its forest is gone before the next is derived
        own = np.array([v if new is old else new.predict(X_val) for v, old, new in zip(
            verdicts, grown.trees_, grown.head(n_most).shallower(depth, X_fit, y_fit).trees_)])
        for i in members:
            n = shapes[i].n_estimators
            accs[i] = float((majority(own[:n].sum(axis=0), n) == y_val).mean())
    return accs


def grid_search(kind: ClassifierKind, grid: Mapping[str, tuple], data: Dataset,
                folds, seed: int = 42) -> GridSearchResult:
    """Pick the candidate with the best mean fold accuracy.

    The scaler is refit inside each fold on that fold's training portion,
    once per fold, and every candidate is scored on the same scaled folds;
    ties are broken by grid enumeration order (first listed wins).

    RF candidates that differ only in ``n_estimators`` and ``max_depth`` are
    scored off one forest per fold, grown with the largest of their sizes and
    the deepest of their limits (None is deepest).  Tree ``t`` draws its
    bootstrap sample, then each searched node's features in depth-first
    order, from its own generator seeded by ``(seed, t)``; a search draws even
    when it finds no cut.  So a forest of ``n`` trees is the first ``n`` trees
    of a larger one (the prefix property behind scikit-learn's
    ``warm_start``), and under a shallower limit ``D`` a tree makes the same
    draws and splits up to its first search at depth ``D`` or more.  A tree
    with no such search is kept node for node: its nodes at depth ``D`` are
    leaves with the same majority label either way.  The others are regrown,
    one limit's forest at a time, and each distinct tree predicts once.
    """
    folds = [frozenset(f) for f in folds]
    if not folds:
        raise ValueError("no folds given")
    candidates = effective_candidates(kind, grid)
    if not candidates:
        raise ValueError("empty hyperparameter grid")

    scaled_folds = []
    for f, holdout in enumerate(folds):
        val_rows = data.rows(holdout)
        if len(np.unique(data.y[val_rows])) < 2:
            raise ValueError(f"fold {f} contains a single class; refusing to score")
        fit_ids = frozenset().union(*(other for other in folds if other is not holdout))
        stats = fit_scaler(data, fit_ids)
        fit_rows = data.rows(fit_ids)
        scaled_folds.append((stats.scale(data.X[fit_rows]), data.y[fit_rows],
                             stats.scale(data.X[val_rows]), data.y[val_rows]))

    # RF candidates that differ only in n_estimators and max_depth share fits
    shared = ("n_estimators", "max_depth") if kind is ClassifierKind.RF else ()
    groups: dict[tuple, list[int]] = {}
    for i, params in enumerate(candidates):
        groups.setdefault(tuple(kv for kv in params.items() if kv[0] not in shared), []).append(i)
    fold_accs: list[list[float]] = [[] for _ in candidates]
    for members in groups.values():
        for X_fit, y_fit, X_val, y_val in scaled_folds:
            if kind is ClassifierKind.RF:
                accs = _score_forests([candidates[i] for i in members], seed,
                                      X_fit, y_fit, X_val, y_val)
            else:
                estimator = _build_estimator(kind, candidates[members[0]], seed)
                accs = [float((estimator.fit(X_fit, y_fit).predict(X_val) == y_val).mean())]
            for i, acc in zip(members, accs):
                fold_accs[i].append(acc)

    scores = []
    best = None
    for params, accs in zip(candidates, fold_accs):
        mean_acc = sum(accs) / len(accs)
        scores.append((params, mean_acc))
        if best is None or mean_acc > best[1]:
            best = (params, mean_acc)
    return GridSearchResult(best[0], best[1], tuple(scores))


def save_model(model: TrainedModel, path: str | Path) -> None:
    payload = {
        "format": MODEL_FORMAT,
        "kind": model.kind.value,
        "params": model.params,
        "seed": model.seed,
        "scaler": {
            "means": model.scaler.means.tolist(),
            "std_devs": model.scaler.std_devs.tolist(),
        },
        "state": model.estimator.to_dict(),
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    Path(path).write_text(text + "\n", encoding="utf-8")


def load_model(path: str | Path, data: Dataset, train_ids) -> TrainedModel:
    """The model that :func:`save_model` wrote to ``path`` in the run whose
    dataset is ``data`` and whose training rows are ``train_ids``.

    The stored scaler must be the one the training rows give, so a file of
    another split or with an edited scaler is refused.  KNN's training rows
    and SVM's support vectors are rebuilt as
    ``scaler.scale(data.X[data.rows(train_ids)])``, bitwise the matrix the
    fit saw.  Raises ValueError (or KeyError or TypeError) on a file that
    breaks the schema, such as a parameter its kind's grid lacks: see the
    estimators' ``from_dict``.
    """
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    fmt = payload.get("format") if type(payload) is dict else None
    if fmt != MODEL_FORMAT:
        raise ValueError(f"not a model file: format {fmt!r}, but this version reads "
                         f"{MODEL_FORMAT!r}")
    kind = ClassifierKind(payload["kind"])
    params, seed, state = payload["params"], payload["seed"], payload["state"]
    if type(params) is not dict or type(state) is not dict or type(seed) is not int:
        raise ValueError("params and state must be objects, and seed an integer")
    unknown = sorted(set(params) - set(DEFAULT_GRIDS[kind]))
    if unknown:
        raise ValueError(f"params not in the {kind.value} grid: {', '.join(map(repr, unknown))}")
    scaler = ScalerStats(float_list(payload["scaler"], "means"),
                         float_list(payload["scaler"], "std_devs"))
    width = data.X.shape[1]
    if scaler.width != width:
        raise ValueError(f"the scaler is {scaler.width} features wide "
                         f"but the dataset has {width}")
    refit = fit_scaler(data, train_ids)
    if not (np.array_equal(refit.means, scaler.means)
            and np.array_equal(refit.std_devs, scaler.std_devs)):
        raise ValueError("the scaler is not the one the manifest's training rows give")
    if kind is ClassifierKind.DT:
        estimator = DecisionTree.from_dict(state, width, **params)
    elif kind is ClassifierKind.RF:
        estimator = RandomForest.from_dict(state, width, seed=seed, **params)
    else:
        rows = data.rows(train_ids)
        train_x = scaler.scale(data.X[rows])
        if kind is ClassifierKind.KNN:
            estimator = KNearestNeighbors(**params).fit(train_x, data.y[rows])
        else:
            estimator = KernelSVM.from_dict(state, train_x, **params)
    return TrainedModel(kind, params, seed, scaler, estimator)
