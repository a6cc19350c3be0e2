"""k-nearest-neighbor classifier with uniform or inverse-distance weighting.

``predict`` works on blocks of query rows.  A float32 pass gives each of a
block's distances to every training row within a proven bound
(:meth:`KNearestNeighbors._distances`).  Only the rows that bound cannot put
past the k-th distance get an exact one, from ``np.abs(q - X).sum(axis=1)``
(or ``np.sqrt(((q - X) ** 2).sum(axis=1))``) itself; the rest are ``+inf``.
``np.argpartition`` picks the ``k`` nearest rows; the block then votes at
once, and the few rows whose verdict a tie or rounding could change are
decided one by one by :meth:`KNearestNeighbors._vote` on neighbours in stable
(distance, index) order.
"""

from __future__ import annotations

import numpy as np

from metaphish.classifiers.schema import check_integer, check_query, training_set

# Elements per block: its query rows times the training rows plus the k x d
# values that each query's candidates gather for the exact distances.
BLOCK_ELEMENTS = 2**17

_U32, _U64 = 2.0**-24, 2.0**-53  # unit roundoffs of float32 and float64
_TINY32 = 2.0**-149  # the smallest float32 subnormal


class KNearestNeighbors:
    """Lazy learner: fit checks the training set as the trees do (finite
    values, labels 0 or 1) and stores it verbatim, beside the float32 copy
    and the row norms that the distance filter reads.

    Distance weighting uses 1/d; a neighbor at distance exactly 0 decides the
    query outright (majority among zero-distance neighbors, ties to class 0).
    All remaining ties also resolve to class 0.  Neighbours tied at the k-th
    distance are taken in training-row order.
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
        self.X_, self.y_ = training_set(X, y)
        with np.errstate(over="ignore"):  # past float32's range a value is inf
            self._columns = np.ascontiguousarray(self.X_.T, dtype=np.float32)
        self._x_norms = self._norms(self.X_)
        return self

    @np.errstate(over="ignore", invalid="ignore")  # past float32's range a norm is inf
    def _norms(self, A: np.ndarray) -> np.ndarray:
        """Each row's norm, in the metric's own norm, as float32."""
        p = 2 if self.metric == "euclidean" else 1
        return np.linalg.norm(A, ord=p, axis=1).astype(np.float32)

    @np.errstate(over="ignore", invalid="ignore")
    def _distances(self, Q: np.ndarray) -> np.ndarray:
        """Distances from each row of ``Q`` to each training row, shape
        ``(len(Q), n_train)``: bitwise those of ``Q[i] - X_`` reduced with
        ``sum(axis=1)`` for every row that may be among the k nearest or tied
        with the k-th, ``+inf`` for the others."""
        euclid = self.metric == "euclidean"
        per_column = np.square if euclid else np.abs  # np.square(x) is bitwise x * x
        Q32 = Q.astype(np.float32)
        approx = np.zeros((len(Q), len(self.X_)), dtype=np.float32)
        diff32 = np.empty_like(approx)
        for c, column in enumerate(self._columns):
            approx += per_column(np.subtract(Q32[:, c, None], column, out=diff32), out=diff32)
        if euclid:
            np.sqrt(approx, out=approx)
        # |approx - reference| <= slack / 2 (Higham 2002, sections 3.1 and 4.2):
        # rounding the inputs to float32 moves a distance by u32 (|q| + |x|) at
        # most; both sums and the square roots by a relative (d + 2)(u32 + u64);
        # float32 underflow by d 2^-149 (manhattan) or its root (euclidean)
        d = Q.shape[1]
        slack = (d + 2) * (_U32 + _U64) * approx
        slack += _U32 * (self._norms(Q)[:, None] + self._x_norms)
        slack += np.sqrt(d * _TINY32) if euclid else d * _TINY32
        slack *= 2
        k = min(self.k, len(self.X_))
        far = ~np.isfinite(approx)  # the float32 copy overflowed: always a candidate
        kth = np.partition(np.where(far, np.inf, approx + slack), k - 1, axis=1)[:, k - 1]
        rows, cols = np.nonzero(far | (approx - slack <= kth[:, None]))
        dist = np.full(approx.shape, np.inf)
        step = max(1, BLOCK_ELEMENTS // d)  # a tie or an overflow may keep every row
        for at in range(0, len(rows), step):
            r, c = rows[at:at + step], cols[at:at + step]
            diff = Q[r]
            diff -= self.X_[c]
            sums = per_column(diff, out=diff).sum(axis=1)
            dist[r, c] = np.sqrt(sums) if euclid else sums
        return dist

    def predict(self, X) -> np.ndarray:
        """Classes of the rows of ``X``, taken ``BLOCK_ELEMENTS // (n_train +
        k * d)`` query rows (at least one) at a time: the scratch stays near
        ``BLOCK_ELEMENTS`` elements however many rows ``X`` has."""
        if self.X_ is None:
            raise ValueError("classifier is not fitted")
        n, d = self.X_.shape
        Q = check_query(X, d)
        out = np.empty(len(Q), dtype=np.int64)
        step = max(1, BLOCK_ELEMENTS // (n + min(self.k, n) * d))
        for start in range(0, len(Q), step):
            out[start:start + step] = self._vote_block(self._distances(Q[start:start + step]))
        return out

    def _vote_block(self, dist: np.ndarray) -> np.ndarray:
        """The verdicts for a block of distance rows, each the one ``_vote``
        gives on the row's first k neighbours in stable (distance, index)
        order.  ``argpartition`` finds each row's k-th distance; a row with
        more than k training rows at or below it takes a stable ``argsort``
        of the whole row.  Label counts (uniform) or per-class sums of
        ``1 / d`` decide the rest, except rows with a zero distance or class
        sums within their rounding bound of each other, which ``_vote``
        decides on the neighbours sorted by ``lexsort``."""
        k = min(self.k, dist.shape[1])
        near = np.argpartition(dist, k - 1, axis=1)[:, :k]
        near_dist = np.take_along_axis(dist, near, axis=1)
        labels = self.y_[near]
        kth = near_dist.max(axis=1)
        tied = (dist <= kth[:, None]).sum(axis=1) > k
        if self.weights == "uniform":
            out = 2 * labels.sum(axis=1) > k
            exact = tied
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                w = 1.0 / near_dist
                pos = np.where(labels == 1, w, 0.0).sum(axis=1)
                neg = np.where(labels == 0, w, 0.0).sum(axis=1)
                # in any order, a sum of k terms is within (k - 1) eps / 2 of the
                # exact one relative to pos + neg; so is _vote's: a wider margin
                # fixes the sign of pos - neg.  A zero distance makes a weight
                # and so the margin infinite: that row is never clear either.
                clear = np.abs(pos - neg) > 4 * k * np.finfo(np.float64).eps * (pos + neg)
            out = pos > neg
            exact = tied | ~clear
        out = out.astype(np.int64)
        for row in np.flatnonzero(exact):
            if tied[row]:
                order = np.argsort(dist[row], kind="stable")[:k]
            else:
                order = near[row][np.lexsort((near[row], near_dist[row]))]
            out[row] = self._vote(dist[row, order], self.y_[order])
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
