"""Typed reads of the fields of a model file's state, and checks of estimator
arguments and training sets.

Each raises ValueError naming the field when its value has the wrong type
or is not finite, so a damaged model file is rejected where it is read.
"""

from __future__ import annotations

import math
import numbers

import numpy as np


def _is_number(value) -> bool:
    return type(value) in (int, float) and math.isfinite(value)


def int_list(state: dict, key: str) -> list[int]:
    values = state[key]
    if type(values) is not list or not all(type(v) is int for v in values):
        raise ValueError(f"{key} must be a list of integers")
    return values


def float_list(state: dict, key: str) -> list[float]:
    values = state[key]
    if type(values) is not list or not all(map(_is_number, values)):
        raise ValueError(f"{key} must be a list of finite numbers")
    return [float(v) for v in values]


def number(state: dict, key: str) -> float:
    value = state[key]
    if not _is_number(value):
        raise ValueError(f"{key} must be a finite number, got {value!r}")
    return float(value)


def check_integer(name: str, value, least: int, none_ok: bool = False) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is an integer of at
    least ``least`` (or None, when ``none_ok``)."""
    if value is None and none_ok:
        return
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        allowed = " or None" if none_ok else ""
        raise ValueError(f"{name} must be an integer of at least {least}{allowed}, got {value!r}")


def check_query(X, n_features: int) -> np.ndarray:
    """``X`` as a float64 matrix; ValueError naming both widths unless it is
    2-D with the ``n_features`` columns the estimator was fit on."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != n_features:
        raise ValueError(f"pass a 2-D X with the {n_features} feature columns the model "
                         f"was fit on; got X of shape {X.shape}")
    return X


def finite_query(X, n_features: int) -> np.ndarray:
    """:func:`check_query`, and a ValueError on a value that is not finite."""
    X = check_query(X, n_features)
    if not np.isfinite(X).all():
        raise ValueError("X holds NaN or infinite values; pass finite feature values")
    return X


def training_set(X, y) -> tuple[np.ndarray, np.ndarray]:
    """``(X, y)`` as float64 and int64 arrays, or a ``ValueError`` that says
    what a fit needs: a 2-D ``X`` of finite values with at least one row and
    one column, and one label of 0 or 1 per row."""
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(y)
    if X.ndim != 2 or labels.shape != (len(X),):
        raise ValueError(f"pass a 2-D X and one label per row; got X of shape {X.shape} "
                         f"and y of shape {labels.shape}")
    if len(X) == 0:
        raise ValueError("empty training set")
    if X.shape[1] == 0:
        raise ValueError("X has no feature columns; pass at least one")
    bad = labels[(labels != 0) & (labels != 1)]
    if len(bad):
        raise ValueError(f"class labels must be 0 or 1, got {bad[0].item()!r}")
    if not np.isfinite(X).all():
        raise ValueError("X holds NaN or infinite values; pass finite feature values")
    return X, labels.astype(np.int64)
