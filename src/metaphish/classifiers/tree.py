"""Binary decision tree with exhaustive midpoint threshold search over ranks.

A fit first turns its training matrix into a :class:`RankTable`: each column's
values become integer codes that sort like the values, with the row's class
label packed into the low bit.  A node then finds its split by gathering the
codes of its rows for the candidate features and running one integer sort per
feature (the presort idea of SLIQ: Mehta, Agrawal & Rissanen, EDBT 1996);
no float column is copied or argsorted per node.

A node of at most :data:`TABLE_ROWS` rows scores its cuts by lookup in two
tables built once per criterion, ``I[m, k] = impurity(k / m)`` and
``W[m, k] = m * I[m, k]`` (:func:`impurity_tables`), with the elementwise
expressions a larger node evaluates, so both give bit-identical gains.  A
split hands each child the rows and positives of its side of the cut, so no
node sums its labels again.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from metaphish.classifiers.schema import (
    check_integer,
    check_query,
    float_list,
    int_list,
    training_set,
)


def gini(p):
    """Gini impurity 2p(1-p) for positive-class proportion p (scalar or array)."""
    p = np.asarray(p, dtype=np.float64)
    return 2.0 * p * (1.0 - p)


def entropy(p):
    """Binary entropy -p*log2(p) - (1-p)*log2(1-p), with 0*log2(0) = 0."""
    p = np.asarray(p, dtype=np.float64)
    q = 1 - p
    # log2 of 1 is exactly 0, so a zero side adds the same 0.0 the masked sum did
    return 0.0 - p * np.log2(np.where(p > 0, p, 1)) - q * np.log2(np.where(q > 0, q, 1))


CRITERIA = {"gini": gini, "entropy": entropy}

# Nodes of at most this many rows read their impurities from impurity_tables.
# The four tables (two per criterion) take 0.5 MB here and took 2.1 MB at 256.
TABLE_ROWS = 128


@functools.cache
def impurity_tables(impurity) -> tuple[np.ndarray, np.ndarray]:
    """``(I, W)`` with ``I[m, k] = impurity(k / m)`` and ``W[m, k] = m * I[m, k]``
    for ``0 <= k <= m <= TABLE_ROWS`` (other entries are 0), built once per
    criterion with the expressions a larger node evaluates: int64 true
    division, then ``impurity`` elementwise.  So a lookup is bitwise the
    value that node computes."""
    I = np.zeros((TABLE_ROWS + 1, TABLE_ROWS + 1))
    for m in range(1, TABLE_ROWS + 1):  # row by row: no table-sized temporaries
        I[m, :m + 1] = impurity(np.arange(m + 1) / m)
    W = np.arange(TABLE_ROWS + 1)[:, None] * I
    I.flags.writeable = W.flags.writeable = False  # every caller shares them
    return I, W


# position r of a feature row holds the flat table index of (r + 1, 0): the
# rows left of cut r, with no positives
_LEFT_ROWS = np.arange(1, TABLE_ROWS + 1) * (TABLE_ROWS + 1)


@dataclass
class TreeNode:
    feature: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    label: int | None = None

    @property
    def is_leaf(self) -> bool:
        return self.label is not None


def _threshold(below: float, above: float) -> float:
    """The midpoint of two distinct values, or ``below`` when the midpoint is
    not below ``above`` (adjacent floats round it up; huge ones overflow), so
    that ``x <= threshold`` always parts the two values."""
    mid = (below + above) / 2.0
    return mid if mid < above else below


class RankTable:
    """The training rows of a fit as integer sort keys, built once per fit.

    ``values`` holds the sorted distinct values of every column, column after
    column, so column ``f`` owns one contiguous range of codes and a code
    sorts like its value.  ``keys[f, r]`` is ``code << 1 | y[r]`` for row ``r``
    and column ``f`` (a d x n int64 array).  ``-0.0`` and ``0.0`` share a code;
    the midpoint of either with another value is the same.
    """

    def __init__(self, X, y):
        self.X, self.y = training_set(X, y)
        columns = np.ascontiguousarray(self.X.T)
        order = np.argsort(columns, axis=1)
        ordered = np.take_along_axis(columns, order, axis=1)
        starts = np.ones(columns.shape, dtype=bool)
        starts[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
        self.values = ordered[starts]  # row-major: column by column, ascending
        ranks = np.cumsum(starts, axis=1)  # 1-based rank within the column
        ranks += (np.cumsum(ranks[:, -1]) - ranks[:, -1] - 1)[:, None]  # -> code
        codes = np.empty_like(ranks)
        np.put_along_axis(codes, order, ranks, axis=1)
        self.keys = codes << 1 | self.y


class DecisionTree:
    """CART-style tree; splits maximize impurity decrease, ties broken by
    (lower feature index, lower threshold) for determinism.

    A node sorts the rank-table keys of its rows once per candidate feature.
    A cut lies wherever the code changes between sorted neighbours, so only
    thresholds between distinct values are scored.  The counts left of such a
    cut (rows, and positives from the label bits) do not depend on the order
    of rows inside a run of equal values, so the integer sort needs no
    stability, and every gain is the one a stable float argsort of the node's
    column gives, bit for bit.  The threshold is the midpoint of the two
    distinct values, or the lower one where the midpoint rounds up to the
    upper; the node's rows are partitioned by comparing their float values
    with it, as ``predict`` does.

    A node of ``n <= TABLE_ROWS`` rows with ``n_pos`` positives scores the
    cut that leaves ``n_left`` rows and ``pos_left`` positives on the left
    as ``I[n, n_pos] - (W[n_left, pos_left] + W[n - n_left, n_pos - pos_left]) / n``
    from :func:`impurity_tables`; a larger node computes the same values.
    Each child takes ``(n_left, pos_left)`` or the rest from its parent's
    cut, and a leaf takes its label (the majority, ties to class 0) from them.
    """

    def __init__(self, criterion="gini", max_depth=None, min_samples_split=2,
                 max_features=None, rng=None):
        if criterion not in CRITERIA:
            raise ValueError(f"unknown criterion {criterion!r}")
        check_integer("max_features", max_features, 1, none_ok=True)
        check_integer("max_depth", max_depth, 0, none_ok=True)
        check_integer("min_samples_split", min_samples_split, 2)
        self.criterion = criterion
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.max_features = max_features
        self.rng = rng
        self.root_ = None
        self.n_features_ = None
        self.search_depth_ = None  # set by fit; a tree from_dict has no record

    def fit(self, X, y, sample=None, table=None):
        """Grow the tree on the rows ``sample`` of ``(X, y)`` (every row when
        None; a row id may repeat, as in a bootstrap).  ``table`` is
        ``RankTable(X, y)`` when the caller shares one across fits; it is built
        here otherwise."""
        if table is None:
            table = RankTable(X, y)
        self.n_features_ = table.X.shape[1]
        if self.max_features is not None and self.max_features < self.n_features_ \
                and self.rng is None:
            raise ValueError(f"max_features={self.max_features} draws features at random; "
                             "pass rng=np.random.default_rng(seed)")
        impurity = CRITERIA[self.criterion]

        root = TreeNode()
        idx = np.arange(len(table.y)) if sample is None else sample
        stack = [(idx, int(table.y[idx].sum()), 0, root)]
        searched = -1  # depth of the deepest node that searched for a split
        while stack:
            idx, n_pos, depth, node = stack.pop()
            n = len(idx)
            at_depth_limit = self.max_depth is not None and depth >= self.max_depth
            split = None
            if not (n_pos in (0, n) or at_depth_limit or n < self.min_samples_split):
                searched = max(searched, depth)
                split = self._best_cut(table, idx, impurity)
            if split is None:
                node.label = 1 if 2 * n_pos > n else 0  # ties go to class 0
                continue
            node.feature, node.threshold, n_left, pos_left = split
            node.left = TreeNode()
            node.right = TreeNode()
            left_mask = table.X[idx, node.feature] <= node.threshold
            stack.append((idx[left_mask], pos_left, depth + 1, node.left))
            stack.append((idx[~left_mask], n_pos - pos_left, depth + 1, node.right))
        self.root_, self.search_depth_ = root, searched
        return self

    def _candidate_features(self, n_features: int) -> np.ndarray:
        if self.max_features is None or self.max_features >= n_features:
            return np.arange(n_features)
        features = self.rng.choice(n_features, size=self.max_features, replace=False)
        features.sort()
        return features

    def _best_cut(self, table: RankTable, rows: np.ndarray, impurity):
        """The best ``(feature, threshold, n_left, pos_left)`` for the node of
        ``rows``, where the last two count the rows and the positives that
        go left, or None when no cut decreases the impurity.

        Every cut of every candidate feature is scored with the same
        elementwise operations in the same order, so equal splits give
        bitwise-equal gains and the tie-break (the first maximum in feature,
        then value order) is exact; an algebraically rearranged impurity would
        round differently and could pick another split.  A node of at most
        ``TABLE_ROWS`` rows reads the results of those operations from
        :func:`impurity_tables` instead of computing them."""
        features = self._candidate_features(table.keys.shape[0])
        keys = table.keys[features[:, None], rows]
        keys.sort(axis=1)
        n = len(rows)
        # neighbours' codes differ where their keys differ above the label bit;
        # j = f * n + r is the cut of feature row f after sorted entry r
        flat = keys.ravel()
        cut = (flat[1:] ^ flat[:-1]) > 1
        cut[n - 1::n] = False  # the last entry of one feature and the first of the next
        j = np.flatnonzero(cut)
        if len(j) == 0:
            return None
        pos = np.cumsum(keys & 1, axis=1)
        total_pos = int(pos[0, -1])
        if n <= TABLE_ROWS:
            I, W = impurity_tables(impurity)
            # flat table index of (n_left, pos_left); (n - n_left, total_pos - pos_left) is c - a
            a = (pos + _LEFT_ROWS[:n]).ravel()[j]
            c = n * (TABLE_ROWS + 1) + total_pos
            gains = I[n, total_pos] - (W.take(a) + W.take(c - a)) / n
        else:
            pos_left = pos.ravel()[j]
            n_left = j % n + 1
            n_right = n - n_left
            parent = float(impurity(total_pos / n))
            p_left = pos_left / n_left
            p_right = (total_pos - pos_left) / n_right
            gains = parent - (n_left * impurity(p_left) + n_right * impurity(p_right)) / n
        best = gains.argmax()  # first max -> lowest feature, then threshold
        if not gains[best] > 0.0:
            return None
        f, r = divmod(int(j[best]), n)
        below, above = table.values[keys[f, r:r + 2] >> 1]
        return int(features[f]), _threshold(float(below), float(above)), r + 1, int(pos[f, r])

    def predict(self, X) -> np.ndarray:
        """Route row-index arrays down the tree; empty partitions stop early."""
        if self.root_ is None:
            raise ValueError("tree is not fitted")
        X = check_query(X, self.n_features_)
        out = np.empty(len(X), dtype=np.int64)
        stack = [(self.root_, np.arange(len(X)))]
        while stack:
            node, rows = stack.pop()
            if len(rows) == 0:
                continue
            if node.is_leaf:
                out[rows] = node.label
                continue
            go_left = X[rows, node.feature] <= node.threshold
            stack.append((node.left, rows[go_left]))
            stack.append((node.right, rows[~go_left]))
        return out

    def to_dict(self) -> dict:
        """The tree in pre-order, each split followed by its left subtree and
        then its right: ``feature`` holds one entry per node (-1 for a leaf),
        ``threshold`` one per split and ``label`` one per leaf."""
        flat = {"feature": [], "threshold": [], "label": []}
        stack = [self.root_]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                flat["feature"].append(-1)
                flat["label"].append(int(node.label))
            else:
                flat["feature"].append(int(node.feature))
                flat["threshold"].append(float(node.threshold))
                stack += (node.right, node.left)
        return flat

    @classmethod
    def from_dict(cls, d: dict, n_features: int, **params) -> "DecisionTree":
        """The tree of :meth:`to_dict`'s sequences, decoded without recursion.

        Raises ValueError unless every feature is -1 or below ``n_features``,
        every threshold is finite, every label is 0 or 1, and the sequences
        describe one tree: a threshold per split, a label per leaf, and a
        last node that completes the tree."""
        tree = cls(**params)
        feature, label = int_list(d, "feature"), int_list(d, "label")
        threshold = float_list(d, "threshold")
        if not feature:
            raise ValueError("a tree needs at least one node")
        for f in feature:
            if not -1 <= f < n_features:
                raise ValueError(f"a tree splits on feature {f}, but rows have {n_features} "
                                 "features (a leaf has feature -1)")
        for c in label:
            if c not in (0, 1):
                raise ValueError(f"a tree leaf has class label {c}, not 0 or 1")
        leaves = feature.count(-1)
        if len(threshold) != len(feature) - leaves:
            raise ValueError(f"a tree needs one threshold per split: {len(feature) - leaves} "
                             f"splits, {len(threshold)} thresholds")
        if len(label) != leaves:
            raise ValueError(f"a tree needs one label per leaf: {leaves} leaves, "
                             f"{len(label)} labels")
        labels, thresholds = iter(label), iter(threshold)
        root = TreeNode()
        stack = [root]  # the nodes still to be read, the next one last
        for i, f in enumerate(feature):
            if not stack:
                raise ValueError(f"tree node {i} follows a complete tree")
            node = stack.pop()
            if f == -1:
                node.label = next(labels)
            else:
                node.feature, node.threshold = f, next(thresholds)
                node.left, node.right = TreeNode(), TreeNode()
                stack += (node.right, node.left)
        if stack:
            raise ValueError(f"a tree's sequences end with {len(stack)} subtrees missing")
        tree.root_ = root
        tree.n_features_ = n_features
        return tree
