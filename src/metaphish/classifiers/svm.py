"""Soft-margin kernel SVM trained by sequential minimal optimization.

Working sets of size two are chosen as the maximal violating pair;
optimization stops when the largest KKT violation drops below :data:`TOL`
or after :data:`MAX_ITER` pair updates.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from metaphish.classifiers.schema import (
    finite_query,
    float_list,
    int_list,
    number,
    training_set,
)

TOL = 1e-3
MAX_ITER = 10_000


def linear_kernel(X: np.ndarray, Z: np.ndarray) -> np.ndarray:
    return X @ Z.T


def rbf_kernel(X: np.ndarray, Z: np.ndarray, gamma: float) -> np.ndarray:
    sq_x = (X * X).sum(axis=1)
    sq_z = (Z * Z).sum(axis=1)
    d2 = sq_x[:, None] + sq_z[None, :] - 2.0 * (X @ Z.T)
    return np.exp(-gamma * np.maximum(d2, 0.0))


def resolve_gamma(gamma, X: np.ndarray) -> float:
    """'scale' = 1/(d * var(X)) over the whole matrix, 'auto' = 1/d."""
    d = X.shape[1]
    if gamma == "scale":
        var = float(X.var())
        return 1.0 / (d * var) if var > 0 else 1.0 / d
    if gamma == "auto":
        return 1.0 / d
    return float(gamma)


class KernelSVM:
    """Binary SVM over labels {0,1}; internally trained on {-1,+1}."""

    def __init__(self, C=1.0, kernel="linear", gamma="scale"):
        if kernel not in ("linear", "rbf"):
            raise ValueError(f"unknown kernel {kernel!r}")
        if isinstance(C, bool) or not isinstance(C, numbers.Real) or not 0 < C < math.inf:
            raise ValueError(f"C must be a positive number, got {C!r}")
        self.C = float(C)
        self.kernel = kernel
        self.gamma = gamma
        self.support_x_ = None
        self.support_rows_ = None
        self.dual_coef_ = None
        self.intercept_ = 0.0
        self.gamma_value_ = None
        self.n_iter_ = 0

    def _kernel_matrix(self, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
        if self.kernel == "linear":
            return linear_kernel(X, Z)
        return rbf_kernel(X, Z, self.gamma_value_)

    def fit(self, X, y):
        X, y01 = training_set(X, y)
        y = 2.0 * y01 - 1.0
        n = len(X)
        self.gamma_value_ = resolve_gamma(self.gamma, X) if self.kernel == "rbf" else None
        C = self.C

        if y01.min() == y01.max():
            # degenerate single-class input: constant decision
            self.support_x_ = X[:0]
            self.support_rows_ = np.empty(0, dtype=np.intp)
            self.dual_coef_ = np.empty(0)
            self.intercept_ = 1.0 if y01[0] == 1 else -1.0
            self.n_iter_ = 0
            return self

        if self.kernel == "rbf":
            sq = (X * X).sum(axis=1)

            def krow(i):
                d2 = sq + sq[i] - 2.0 * (X @ X[i])
                return np.exp(-self.gamma_value_ * np.maximum(d2, 0.0))
        else:
            def krow(i):
                return X @ X[i]

        alpha = np.zeros(n)
        g = np.ones(n)  # g_i = 1 - y_i * sum_j alpha_j y_j K_ij
        def working_sets(rows):  # the masks I_up and I_low of these rows
            below, above = alpha[rows] < C - 1e-12, alpha[rows] > 1e-12
            return ((y[rows] > 0) & below) | ((y[rows] < 0) & above), \
                ((y[rows] < 0) & below) | ((y[rows] > 0) & above)
        up, low = working_sets(slice(None))  # then kept current, as only two alphas move
        neg_inf = -np.inf
        iters = 0
        while iters < MAX_ITER:
            yg = y * g
            if not up.any() or not low.any():
                break
            i = int(np.argmax(np.where(up, yg, neg_inf)))
            j = int(np.argmin(np.where(low, yg, -neg_inf)))
            violation = yg[i] - yg[j]
            if violation < TOL:
                break
            Ki = krow(i)
            Kj = krow(j)
            a = Ki[i] + Kj[j] - 2.0 * Ki[j]
            if a <= 0.0:
                a = 1e-12
            box_i = (C if y[i] > 0 else 0.0) - y[i] * alpha[i]
            box_j = y[j] * alpha[j] - (0.0 if y[j] > 0 else -C)
            lam = min(box_i, box_j, violation / a)
            if lam <= 1e-15:
                break
            g += lam * y * (Kj - Ki)
            alpha[i] = min(max(alpha[i] + y[i] * lam, 0.0), C)
            alpha[j] = min(max(alpha[j] - y[j] * lam, 0.0), C)
            (up[i], low[i]), (up[j], low[j]) = working_sets(i), working_sets(j)
            iters += 1
        self.n_iter_ = iters

        yg = y * g
        free = (alpha > 1e-10) & (alpha < C - 1e-10)
        if free.any():
            self.intercept_ = float(yg[free].mean())
        else:
            hi = yg[up].max() if up.any() else 0.0
            lo = yg[low].min() if low.any() else 0.0
            self.intercept_ = float((hi + lo) / 2.0)

        sv = alpha > 1e-10
        self.support_rows_ = np.flatnonzero(sv)
        self.support_x_ = X[self.support_rows_]
        self.dual_coef_ = (alpha * y)[sv]
        return self

    def decision_function(self, X) -> np.ndarray:
        if self.support_x_ is None:
            raise ValueError("classifier is not fitted")
        X = finite_query(X, self.support_x_.shape[1])
        if len(self.support_x_) == 0:
            return np.full(len(X), self.intercept_)
        K = self._kernel_matrix(X, self.support_x_)
        return K @ self.dual_coef_ + self.intercept_

    def predict(self, X) -> np.ndarray:
        return (self.decision_function(X) > 0).astype(np.int64)

    def to_dict(self) -> dict:
        """The learned state without the support vectors themselves: their
        positions among the fit's rows, which are rebuilt from the dataset."""
        return {
            "support_rows": self.support_rows_.tolist(),
            "dual_coef": self.dual_coef_.tolist(),
            "intercept": float(self.intercept_),
            "gamma_value": self.gamma_value_,
        }

    @classmethod
    def from_dict(cls, d: dict, train_x: np.ndarray, **params) -> "KernelSVM":
        """The SVM of :meth:`to_dict`'s state whose fit saw the rows ``train_x``.

        Raises ValueError unless ``support_rows`` is strictly increasing,
        inside ``train_x`` and as long as ``dual_coef``, and every float is
        finite."""
        svm = cls(**params)
        rows = int_list(d, "support_rows")
        svm.dual_coef_ = np.array(float_list(d, "dual_coef"))
        svm.intercept_ = number(d, "intercept")
        svm.gamma_value_ = number(d, "gamma_value") if svm.kernel == "rbf" else None
        if len(rows) != len(svm.dual_coef_):
            raise ValueError(f"{len(rows)} support_rows but {len(svm.dual_coef_)} dual_coef")
        if rows and not (0 <= rows[0] and rows[-1] < len(train_x)
                         and all(a < b for a, b in zip(rows, rows[1:]))):
            raise ValueError(f"support_rows must increase strictly inside the "
                             f"{len(train_x)} training rows")
        svm.support_rows_ = np.array(rows, dtype=np.intp)
        svm.support_x_ = train_x[svm.support_rows_]
        return svm
