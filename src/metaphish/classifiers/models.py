"""Hyperparameter grids, cross-validated selection, and the trained-model API.

The four classifier kinds share one interface: :func:`train` fits the scaler
on the training rows of a :class:`~metaphish.dataset.Dataset` and the
estimator on the scaled matrix, and :func:`predict_batch` takes a raw
(unscaled) feature matrix and applies the model's own scaler.  Model files
are self-describing JSON whose floats round-trip exactly, so a reloaded
model reproduces bit-identical predictions.
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
from metaphish.classifiers.svm import KernelSVM
from metaphish.classifiers.tree import DecisionTree

MODEL_FORMAT = "metaphish.model/1"


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
    X = model.scaler.scale(X)
    if not len(X):
        return np.empty(0, dtype=np.int64)
    return model.estimator.predict(X)


def generate_initial_beliefs(models: Mapping[ClassifierKind, TrainedModel],
                             data: Dataset, test_ids) -> list[InitialBelief]:
    """One belief per (classifier, test instance); requires all four models."""
    missing = [k.value for k in KIND_ORDER if k not in models]
    if missing:
        raise ValueError(f"missing model for classifier(s): {', '.join(missing)}")
    rows = data.rows(test_ids)
    ids = rows.tolist()  # Python ints, as the fact encoding requires
    X = data.X[rows]
    beliefs = []
    for kind in KIND_ORDER:
        classes = predict_batch(models[kind], X)
        beliefs.extend(InitialBelief(kind, i, int(c)) for i, c in zip(ids, classes))
    return beliefs


def grid_search(kind: ClassifierKind, grid: HyperGrid, data: Dataset,
                folds, seed: int = 42) -> GridSearchResult:
    """Pick the candidate with the best mean fold accuracy.

    The scaler is refit inside each fold on that fold's training portion,
    once per fold, and every candidate is scored on the same scaled folds;
    ties are broken by grid enumeration order (first listed wins).
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

    scores = []
    best = None
    for params in candidates:
        fold_accs = []
        for X_fit, y_fit, X_val, y_val in scaled_folds:
            estimator = _build_estimator(kind, dict(params), seed)
            estimator.fit(X_fit, y_fit)
            fold_accs.append(float((estimator.predict(X_val) == y_val).mean()))
        mean_acc = sum(fold_accs) / len(fold_accs)
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


def load_model(path: str | Path) -> TrainedModel:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if payload.get("format") != MODEL_FORMAT:
        raise ValueError(f"{path}: not a model file (format {payload.get('format')!r})")
    kind = ClassifierKind(payload["kind"])
    params = payload["params"]
    scaler = ScalerStats(
        np.asarray(payload["scaler"]["means"], dtype=np.float64),
        np.asarray(payload["scaler"]["std_devs"], dtype=np.float64),
    )
    state = payload["state"]
    if kind is ClassifierKind.SVM:
        estimator = KernelSVM.from_dict(state)
    elif kind is ClassifierKind.KNN:
        estimator = KNearestNeighbors.from_dict(state, **params)
    elif kind is ClassifierKind.DT:
        estimator = DecisionTree.from_dict(state)
    else:
        estimator = RandomForest.from_dict(state)
    return TrainedModel(kind, params, payload["seed"], scaler, estimator)
