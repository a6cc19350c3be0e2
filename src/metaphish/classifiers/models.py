"""Hyperparameter grids, cross-validated selection, and the trained-model API.

The four classifier kinds share one interface: :func:`train` fits the scaler
on the training rows of a :class:`~metaphish.dataset.Dataset` and the
estimator on the scaled matrix, and :func:`predict_batch` takes a raw
(unscaled) feature matrix and applies the model's own scaler.

A model file (``metaphish.model/2``) holds only what the fit learned: the
params, the scaler, and the estimator's state, whose floats round-trip
exactly through JSON.  It is not self-contained: KNN's training rows and
SVM's support vectors are rebuilt from the run's dataset and split manifest,
so a reloaded model reproduces bit-identical predictions only with those.
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
from metaphish.classifiers.forest import RandomForest
from metaphish.classifiers.knn import KNearestNeighbors
from metaphish.classifiers.schema import float_list
from metaphish.classifiers.svm import KernelSVM
from metaphish.classifiers.tree import DecisionTree

MODEL_FORMAT = "metaphish.model/2"


class ClassifierKind(str, Enum):
    SVM = "svm"
    KNN = "knn"
    DT = "dt"
    RF = "rf"


KIND_ORDER = tuple(ClassifierKind)


@dataclass(frozen=True)
class HyperGrid:
    """Named candidate lists, enumerated by itertools.product in field order."""

    kind: ClassifierKind
    parameter_lists: dict[str, tuple]


DEFAULT_GRIDS: dict[ClassifierKind, HyperGrid] = {
    ClassifierKind.SVM: HyperGrid(
        ClassifierKind.SVM,
        {"C": (0.1, 1.0, 10.0), "kernel": ("linear", "rbf"), "gamma": ("scale", "auto")},
    ),
    ClassifierKind.KNN: HyperGrid(
        ClassifierKind.KNN,
        {"k": (3, 5, 7, 9), "weights": ("uniform", "distance"),
         "metric": ("euclidean", "manhattan")},
    ),
    ClassifierKind.DT: HyperGrid(
        ClassifierKind.DT,
        {"criterion": ("gini", "entropy"), "max_depth": (3, 5, 10, None),
         "min_samples_split": (2, 5, 10)},
    ),
    ClassifierKind.RF: HyperGrid(
        ClassifierKind.RF,
        {"n_estimators": (100, 200), "max_depth": (5, 10, None),
         "criterion": ("gini", "entropy")},
    ),
}

# winning configurations from the benchmark model-selection run
BEST_CONFIGS: dict[ClassifierKind, dict] = {
    ClassifierKind.SVM: {"C": 10.0, "kernel": "rbf", "gamma": "scale"},
    ClassifierKind.KNN: {"k": 9, "weights": "distance", "metric": "manhattan"},
    ClassifierKind.DT: {"criterion": "gini", "max_depth": 10, "min_samples_split": 10},
    ClassifierKind.RF: {"n_estimators": 100, "max_depth": None, "criterion": "entropy"},
}


def effective_candidates(grid: HyperGrid) -> list[dict]:
    """Grid candidates in enumeration order, with duplicates removed.

    gamma is meaningless for the linear kernel, so linear candidates drop it
    and collapse to one effective fit each.
    """
    names = list(grid.parameter_lists)
    seen = set()
    out = []
    for values in itertools.product(*grid.parameter_lists.values()):
        params = dict(zip(names, values))
        if grid.kind is ClassifierKind.SVM and params.get("kernel") == "linear":
            params.pop("gamma", None)
        key = tuple(sorted(params.items(), key=lambda kv: kv[0]))
        if key in seen:
            continue
        seen.add(key)
        out.append(params)
    return out


@dataclass(frozen=True)
class InitialBelief:
    """A classifier's pre-revision verdict on one test instance."""

    classifier: ClassifierKind
    instance_id: int
    predicted_class: int


@dataclass(frozen=True)
class TrainedModel:
    kind: ClassifierKind
    params: dict
    seed: int
    scaler: ScalerStats
    estimator: object


@dataclass(frozen=True)
class GridSearchResult:
    kind: ClassifierKind
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
                             data: Dataset, test_ids) -> list[InitialBelief]:
    """One belief per (classifier, test instance), ordered by instance id, then by
    :data:`KIND_ORDER` (the row order of ``final_beliefs.csv``); requires all four models."""
    missing = [k.value for k in KIND_ORDER if k not in models]
    if missing:
        raise ValueError(f"missing model for classifier(s): {', '.join(missing)}")
    rows = data.rows(test_ids)
    X = data.X[rows]
    classes = [predict_batch(models[kind], X).tolist() for kind in KIND_ORDER]  # Python ints
    return [InitialBelief(kind, i, c)
            for i, *verdicts in zip(rows.tolist(), *classes)
            for kind, c in zip(KIND_ORDER, verdicts)]


def _shared_fits(kind: ClassifierKind, candidates: list[dict]) -> list[tuple[dict, list[int]]]:
    """Candidate indices grouped so that one fit per fold scores a group, in
    order of first appearance, as ``(parameters to fit, member indices)``.

    RF candidates that differ only in ``n_estimators`` share the fit of the
    group's largest forest; every other candidate is a group of one.
    """
    groups: dict[tuple, tuple[dict, list[int]]] = {}
    for i, params in enumerate(candidates):
        shares = kind is ClassifierKind.RF and "n_estimators" in params
        key = tuple(kv for kv in params.items() if not (shares and kv[0] == "n_estimators"))
        fit_params, members = groups.setdefault(key, (dict(params), []))
        if shares:
            fit_params["n_estimators"] = max(fit_params["n_estimators"], params["n_estimators"])
        members.append(i)
    return list(groups.values())


def grid_search(kind: ClassifierKind, grid: HyperGrid, data: Dataset,
                folds, seed: int = 42) -> GridSearchResult:
    """Pick the candidate with the best mean fold accuracy.

    The scaler is refit inside each fold on that fold's training portion,
    once per fold, and every candidate is scored on the same scaled folds;
    ties are broken by grid enumeration order (first listed wins).

    RF candidates that differ only in ``n_estimators`` are scored off one
    forest per fold, grown to the largest of their sizes: tree ``t`` draws
    its bootstrap sample and feature subsets only from ``(seed, t)``, and
    every candidate sees the same fold data, so a forest of ``n`` trees is
    exactly the first ``n`` trees of a larger one (the prefix property
    behind scikit-learn's ``warm_start``).  A group is scored before the next
    is grown, so at most one grown forest is alive at a time.
    """
    folds = [frozenset(f) for f in folds]
    if not folds:
        raise ValueError("no folds given")
    candidates = effective_candidates(grid)
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

    fold_accs: list[list[float]] = [[] for _ in candidates]
    for fit_params, members in _shared_fits(kind, candidates):
        for X_fit, y_fit, X_val, y_val in scaled_folds:
            estimator = _build_estimator(kind, fit_params, seed)
            estimator.fit(X_fit, y_fit)
            for i in members:
                scorer = (estimator.head(candidates[i]["n_estimators"])
                          if len(members) > 1 else estimator)
                fold_accs[i].append(float((scorer.predict(X_val) == y_val).mean()))
            del scorer  # it holds the trees, which must not outlive this fold's fit

    scores = []
    best = None
    for params, accs in zip(candidates, fold_accs):
        mean_acc = sum(accs) / len(accs)
        scores.append((params, mean_acc))
        if best is None or mean_acc > best[1]:
            best = (params, mean_acc)
    return GridSearchResult(kind, best[0], best[1], tuple(scores))


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
    Path(path).write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")


def load_model(path: str | Path, data: Dataset, train_ids) -> TrainedModel:
    """The model that :func:`save_model` wrote to ``path`` in the run whose
    dataset is ``data`` and whose training rows are ``train_ids``.

    KNN's training rows and SVM's support vectors are rebuilt as
    ``scaler.scale(data.X[data.rows(train_ids)])``, bitwise the matrix the fit
    saw, so the stored scaler must be the one those rows give.  Raises
    ValueError (or KeyError or TypeError) on a file that breaks the schema:
    see the estimators' ``from_dict``.
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
    scaler = ScalerStats(float_list(payload["scaler"], "means"),
                         float_list(payload["scaler"], "std_devs"))
    width = data.X.shape[1]
    if scaler.width != width:
        raise ValueError(f"the scaler is {scaler.width} features wide "
                         f"but the dataset has {width}")
    if kind is ClassifierKind.DT:
        estimator = DecisionTree.from_dict(state, width, **params)
    elif kind is ClassifierKind.RF:
        estimator = RandomForest.from_dict(state, width, seed=seed, **params)
    else:
        refit = fit_scaler(data, train_ids)
        if not (np.array_equal(refit.means, scaler.means)
                and np.array_equal(refit.std_devs, scaler.std_devs)):
            raise ValueError("the scaler is not the one the manifest's training rows give")
        rows = data.rows(train_ids)
        train_x = scaler.scale(data.X[rows])
        if kind is ClassifierKind.KNN:
            estimator = KNearestNeighbors(**params).fit(train_x, data.y[rows])
        else:
            estimator = KernelSVM.from_dict(state, train_x, **params)
    return TrainedModel(kind, params, seed, scaler, estimator)
