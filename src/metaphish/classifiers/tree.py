"""Binary decision tree with exhaustive midpoint threshold search."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def gini(p):
    """Gini impurity 2p(1-p) for positive-class proportion p (scalar or array)."""
    p = np.asarray(p, dtype=np.float64)
    return 2.0 * p * (1.0 - p)


def entropy(p):
    """Binary entropy -p*log2(p) - (1-p)*log2(1-p), with 0*log2(0) = 0."""
    p = np.asarray(p, dtype=np.float64)
    out = np.zeros(p.shape)
    for side in (p, 1.0 - p):
        mask = side > 0
        out = out - np.where(mask, side * np.log2(side, where=mask, out=np.ones(p.shape)), 0.0)
    return out


_CRITERIA = {"gini": gini, "entropy": entropy}


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

    def to_dict(self) -> dict:
        if self.is_leaf:
            return {"label": int(self.label)}
        return {
            "feature": int(self.feature),
            "threshold": float(self.threshold),
            "left": self.left.to_dict(),
            "right": self.right.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TreeNode":
        if "label" in d:
            return cls(label=int(d["label"]))
        return cls(
            feature=int(d["feature"]),
            threshold=float(d["threshold"]),
            left=cls.from_dict(d["left"]),
            right=cls.from_dict(d["right"]),
        )


def _majority(y) -> int:
    # ties go to class 0
    return 1 if 2 * int(y.sum()) > len(y) else 0


class DecisionTree:
    """CART-style tree; splits maximize impurity decrease, ties broken by
    (lower feature index, lower threshold) for determinism."""

    def __init__(self, criterion="gini", max_depth=None, min_samples_split=2,
                 max_features=None, rng=None):
        if criterion not in _CRITERIA:
            raise ValueError(f"unknown criterion {criterion!r}")
        self.criterion = criterion
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.max_features = max_features
        self.rng = rng
        self.root_ = None
        self.n_features_ = None

    def fit(self, X, y):
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        if len(X) == 0:
            raise ValueError("empty training set")
        self.n_features_ = X.shape[1]
        impurity = _CRITERIA[self.criterion]

        root = TreeNode()
        stack = [(np.arange(len(y)), 0, root)]
        while stack:
            idx, depth, node = stack.pop()
            y_node = y[idx]
            n = len(idx)
            n_pos = int(y_node.sum())
            at_depth_limit = self.max_depth is not None and depth >= self.max_depth
            if n_pos in (0, n) or at_depth_limit or n < self.min_samples_split:
                node.label = _majority(y_node)
                continue
            split = self._best_split(X[idx], y_node, impurity)
            if split is None:
                node.label = _majority(y_node)
                continue
            feature, threshold = split
            node.feature = feature
            node.threshold = threshold
            node.left = TreeNode()
            node.right = TreeNode()
            left_mask = X[idx, feature] <= threshold
            stack.append((idx[left_mask], depth + 1, node.left))
            stack.append((idx[~left_mask], depth + 1, node.right))
        self.root_ = root
        return self

    def _candidate_features(self, n_features: int) -> np.ndarray:
        if self.max_features is None or self.max_features >= n_features:
            return np.arange(n_features)
        return np.sort(self.rng.choice(n_features, size=self.max_features, replace=False))

    def _best_split(self, X, y, impurity):
        """Score every threshold of every candidate feature in one (n-1) x k
        gain matrix; row i of a column is the cut between its sorted values
        i and i + 1.

        The gain is computed elementwise with the same operations in the same
        order for every cut, so equal splits give bitwise-equal gains and the
        tie-break below is exact; an algebraically rearranged impurity would
        round differently and could pick another split."""
        n = len(y)
        total_pos = int(y.sum())
        parent = float(impurity(total_pos / n))
        features = self._candidate_features(X.shape[1])
        cols = X[:, features]
        order = np.argsort(cols, axis=0, kind="stable")
        sv = np.take_along_axis(cols, order, axis=0)
        n_left = np.arange(1, n)[:, None]
        n_right = n - n_left
        pos_left = np.cumsum(y[order], axis=0)[:-1]
        p_left = pos_left / n_left
        p_right = (total_pos - pos_left) / n_right
        child = (n_left * impurity(p_left) + n_right * impurity(p_right)) / n
        # only boundaries between distinct values are thresholds
        gains = np.where(sv[:-1] < sv[1:], parent - child, -np.inf)
        col_best = gains.max(axis=0)
        j = int(np.argmax(col_best))  # first max -> lowest feature index
        if not col_best[j] > 0.0:
            return None
        r = int(np.argmax(gains[:, j]))  # first max -> lowest threshold
        return int(features[j]), float((sv[r, j] + sv[r + 1, j]) / 2.0)

    def predict(self, X) -> np.ndarray:
        """Route row-index arrays down the tree; empty partitions stop early."""
        X = np.asarray(X, dtype=np.float64)
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
        return {"criterion": self.criterion, "root": self.root_.to_dict()}

    @classmethod
    def from_dict(cls, d: dict) -> "DecisionTree":
        tree = cls(criterion=d.get("criterion", "gini"))
        tree.root_ = TreeNode.from_dict(d["root"])
        return tree
