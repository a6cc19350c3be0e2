"""k-nearest-neighbor classifier with uniform or inverse-distance weighting."""

from __future__ import annotations

import numpy as np

from metaphish.classifiers.schema import check_integer


class KNearestNeighbors:
    """Lazy learner: fit stores the training matrix verbatim.

    Distance weighting uses 1/d; a neighbor at distance exactly 0 decides the
    query outright (majority among zero-distance neighbors, ties to class 0).
    All remaining ties also resolve to class 0.
    """

    def __init__(self, k=5, weights="uniform", metric="euclidean"):
        check_integer("k", k, 1)
        if weights not in ("uniform", "distance"):
            raise ValueError(f"unknown weights {weights!r}")
        if metric not in ("euclidean", "manhattan"):
            raise ValueError(f"unknown metric {metric!r}")
        self.k = k
        self.weights = weights
        self.metric = metric
        self.X_ = None
        self.y_ = None

    def fit(self, X, y):
        self.X_ = np.asarray(X, dtype=np.float64)
        self.y_ = np.asarray(y, dtype=np.int64)
        if len(self.X_) == 0:
            raise ValueError("empty training set")
        return self

    def _distances(self, q: np.ndarray) -> np.ndarray:
        diff = q - self.X_
        if self.metric == "euclidean":
            return np.sqrt((diff * diff).sum(axis=1))
        return np.abs(diff).sum(axis=1)

    def predict(self, X) -> np.ndarray:
        """Classes of the rows of ``X``, taking the distances of one query row at a
        time: memory O(n_train x d), however many rows ``X`` has."""
        if self.X_ is None:
            raise ValueError("classifier is not fitted")
        Q = np.asarray(X, dtype=np.float64)
        out = np.empty(len(Q), dtype=np.int64)
        for row, q in enumerate(Q):
            dist = self._distances(q)
            order = np.argsort(dist, kind="stable")[: self.k]
            out[row] = self._vote(dist[order], self.y_[order])
        return out

    def _vote(self, dist: np.ndarray, labels: np.ndarray) -> int:
        if self.weights == "uniform":
            return 1 if 2 * int(labels.sum()) > len(labels) else 0
        exact = dist == 0.0
        if exact.any():
            hits = labels[exact]
            return 1 if 2 * int(hits.sum()) > len(hits) else 0
        w = 1.0 / dist
        pos = float(w[labels == 1].sum())
        neg = float(w[labels == 0].sum())
        return 1 if pos > neg else 0

    def to_dict(self) -> dict:
        """Nothing: the training rows are the scaled rows of the run's dataset
        that its split manifest names, and they are rebuilt from there."""
        return {}
