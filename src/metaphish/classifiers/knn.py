"""k-nearest-neighbor classifier with uniform or inverse-distance weighting.

``predict`` works on blocks of query rows.  A block's distances to every
training row come from a column-major copy of the training matrix, eight
columns per ufunc call, added in the order numpy's ``sum(axis=1)`` adds one
row (:func:`_row_sums`), so each distance is bitwise the one that
``np.abs(q - X).sum(axis=1)`` (or ``np.sqrt(((q - X) ** 2).sum(axis=1))``)
gives.  ``np.argpartition`` picks the ``k`` nearest rows; the block then
votes at once, and the few rows whose verdict a different summation order or
a tie could change are decided one by one by :meth:`KNearestNeighbors._vote`
on neighbours in stable (distance, index) order.
"""

from __future__ import annotations

import numpy as np

from metaphish.classifiers.schema import check_integer, finite_query, training_set

# Query rows x training rows per block.  The eight running lanes and the
# eight-column terms take 8 x 8 bytes per element each: 1 MiB together.
BLOCK_ELEMENTS = 2**13

_LANES = 8  # numpy's pairwise sum keeps eight partial sums
_PAIRWISE_BLOCK = 128  # and splits a longer row in two


def _row_sums(term, lo: int, hi: int) -> np.ndarray:
    """Sum ``term(c)`` over columns ``lo <= c < hi`` in the order of numpy's
    pairwise summation of one contiguous row (``pairwise_sum`` in
    ``loops_utils.h``): left to right below eight columns; up to 128 columns,
    column ``c`` into lane ``c % 8``, the lanes combined as
    ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))`` and the rest added left to right;
    above 128, the two halves split at a multiple of eight, each summed this
    way.  ``term(c, width)`` returns the terms of ``width`` columns from ``c``
    as a ``(rows, width, n)`` array, ``term(c)`` those of column ``c`` alone."""
    n = hi - lo
    if n > _PAIRWISE_BLOCK:
        half = n // 2
        half -= half % _LANES
        return _row_sums(term, lo, lo + half) + _row_sums(term, lo + half, hi)
    if n < _LANES:
        total = 0.0
        for c in range(lo, hi):
            total = total + term(c)
        return total
    stop = hi - n % _LANES
    lanes = term(lo, _LANES)
    for c in range(lo + _LANES, stop, _LANES):
        lanes += term(c, _LANES)
    r = [lanes[:, i] for i in range(_LANES)]
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for c in range(stop, hi):
        total += term(c)
    return total


class KNearestNeighbors:
    """Lazy learner: fit checks the training set as the trees do (finite
    values, labels 0 or 1) and stores it verbatim.

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
        return self

    def _distances(self, Q: np.ndarray, columns: np.ndarray | None = None) -> np.ndarray:
        """Distances from each row of ``Q`` to each training row, shape
        ``(len(Q), n_train)``, bitwise those of ``Q[i] - X_`` reduced with
        ``sum(axis=1)``.  ``columns`` is ``X_.T`` in C order (made if not given)."""
        if columns is None:
            columns = np.ascontiguousarray(self.X_.T)
        square = self.metric == "euclidean"

        def term(c, width=None):
            if width is None:
                diff = Q[:, c, None] - columns[c]
            else:
                diff = Q[:, c:c + width, None] - columns[c:c + width]
            return np.multiply(diff, diff, out=diff) if square else np.abs(diff, out=diff)

        dist = _row_sums(term, 0, Q.shape[1])
        return np.sqrt(dist, out=dist) if square else dist

    def predict(self, X) -> np.ndarray:
        """Classes of the rows of ``X``, taken ``BLOCK_ELEMENTS // n_train``
        query rows (at least one) at a time: the scratch stays near 1 MiB
        however many rows ``X`` has, beside a column-major copy of ``X_``."""
        if self.X_ is None:
            raise ValueError("classifier is not fitted")
        n, d = self.X_.shape
        Q = finite_query(X, d)
        columns = np.ascontiguousarray(self.X_.T)
        out = np.empty(len(Q), dtype=np.int64)
        step = max(1, BLOCK_ELEMENTS // n)
        for start in range(0, len(Q), step):
            dist = self._distances(Q[start:start + step], columns)
            out[start:start + step] = self._vote_block(dist)
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
