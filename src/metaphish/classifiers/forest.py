"""Random forest of decision trees over bootstrap samples."""

from __future__ import annotations

import math

import numpy as np

from metaphish.classifiers.schema import check_integer, check_query
from metaphish.classifiers.tree import CRITERIA, DecisionTree, RankTable


def majority(votes: np.ndarray, n_trees: int) -> np.ndarray:
    """Class 1 where most of ``n_trees`` trees vote 1 (``votes``); a tie is class 0."""
    return (2 * votes > n_trees).astype(np.int64)


class RandomForest:
    """Majority vote over trees; an exact tie predicts class 0.

    Each tree draws its bootstrap sample and per-node feature subsets
    (ceil(sqrt(d)) features) from a generator seeded by (seed, tree index),
    so training is reproducible and order-independent.  The trees share one
    :class:`RankTable` of the training set and take their bootstrap samples
    as row ids, so no tree copies rows.
    """

    def __init__(self, n_estimators=100, criterion="gini", max_depth=None,
                 min_samples_split=2, seed=0):
        if criterion not in CRITERIA:
            raise ValueError(f"unknown criterion {criterion!r}")
        check_integer("n_estimators", n_estimators, 1)
        check_integer("max_depth", max_depth, 0, none_ok=True)
        check_integer("min_samples_split", min_samples_split, 2)
        check_integer("seed", seed, 0)
        self.n_estimators = n_estimators
        self.criterion = criterion
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.seed = seed
        self.trees_: list[DecisionTree] = []

    def fit(self, X, y):
        table = RankTable(X, y)  # one rank table for every tree
        self.trees_ = [self._grow(table, t) for t in range(self.n_estimators)]
        return self

    def _grow(self, table: RankTable, t: int) -> DecisionTree:
        """Tree ``t`` of this forest, fit on the rows of ``table``."""
        rng = np.random.default_rng([self.seed, t])
        n, d = table.X.shape
        tree = DecisionTree(criterion=self.criterion, max_depth=self.max_depth,
                            min_samples_split=self.min_samples_split,
                            max_features=min(d, math.ceil(math.sqrt(d))), rng=rng)
        return tree.fit(table.X, table.y, rng.integers(0, n, size=n), table)

    def head(self, n: int) -> "RandomForest":
        """The forest of this one's first ``n`` trees.

        Tree ``t`` depends only on the data and ``(seed, t)``, so this is the
        forest that ``fit`` grows with ``n_estimators=n`` on the same data.
        """
        forest = RandomForest(n_estimators=n, criterion=self.criterion, max_depth=self.max_depth,
                              min_samples_split=self.min_samples_split, seed=self.seed)
        forest.trees_ = self.trees_[:n]
        return forest

    def shallower(self, max_depth, X, y) -> "RandomForest":
        """The forest that ``fit`` grows on ``(X, y)``, the data this one was
        fit on, with the limit ``max_depth`` in place of this forest's deeper
        one: each tree that never searched for a split at depth ``max_depth``
        or deeper is kept, and the others are regrown (see ``grid_search``).
        """
        if any(tree.search_depth_ is None for tree in self.trees_):
            raise ValueError("a tree of the forest has no record of its split searches")
        forest = RandomForest(n_estimators=len(self.trees_), criterion=self.criterion,
                              max_depth=max_depth, min_samples_split=self.min_samples_split,
                              seed=self.seed)
        limit = math.inf if max_depth is None else max_depth
        if self.max_depth is not None and limit > self.max_depth:
            raise ValueError(f"max_depth {max_depth} is deeper than the forest's {self.max_depth}")
        table = RankTable(X, y) if any(t.search_depth_ >= limit for t in self.trees_) else None
        forest.trees_ = [tree if tree.search_depth_ < limit else forest._grow(table, t)
                         for t, tree in enumerate(self.trees_)]
        return forest

    def predict(self, X) -> np.ndarray:
        if not self.trees_:
            raise ValueError("forest is not fitted")
        X = check_query(X, self.trees_[0].n_features_)
        votes = np.zeros(len(X), dtype=np.int64)
        for tree in self.trees_:
            votes += tree.predict(X)
        return majority(votes, len(self.trees_))

    def to_dict(self) -> dict:
        return {"trees": [tree.to_dict() for tree in self.trees_]}

    @classmethod
    def from_dict(cls, d: dict, n_features: int, **params) -> "RandomForest":
        """The forest of :meth:`to_dict`'s trees, each checked by
        :meth:`DecisionTree.from_dict`; ``n_estimators`` must count them."""
        forest = cls(**params)
        trees = d["trees"]
        if type(trees) is not list or not trees:
            raise ValueError("trees must be a non-empty list")
        if len(trees) != forest.n_estimators:
            raise ValueError(f"the forest holds {len(trees)} trees, "
                             f"but n_estimators is {forest.n_estimators}")
        forest.trees_ = [DecisionTree.from_dict(t, n_features) for t in trees]
        return forest
