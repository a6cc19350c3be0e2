"""Random forest of decision trees over bootstrap samples."""

from __future__ import annotations

import math

import numpy as np

from metaphish.classifiers.schema import check_integer, check_query
from metaphish.classifiers.tree import CRITERIA, DecisionTree, RankTable


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
        n, d = table.X.shape
        max_features = min(d, math.ceil(math.sqrt(d)))
        self.trees_ = []
        for t in range(self.n_estimators):
            rng = np.random.default_rng([self.seed, t])
            sample = rng.integers(0, n, size=n)
            tree = DecisionTree(
                criterion=self.criterion,
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                max_features=max_features,
                rng=rng,
            )
            tree.fit(table.X, table.y, sample, table)
            self.trees_.append(tree)
        return self

    def head(self, n: int) -> "RandomForest":
        """The forest of this one's first ``n`` trees.

        Tree ``t`` depends only on the data and ``(seed, t)``, so this is the
        forest that ``fit`` grows with ``n_estimators=n`` on the same data.
        """
        forest = RandomForest(n_estimators=n, criterion=self.criterion, max_depth=self.max_depth,
                              min_samples_split=self.min_samples_split, seed=self.seed)
        forest.trees_ = self.trees_[:n]
        return forest

    def predict(self, X) -> np.ndarray:
        if not self.trees_:
            raise ValueError("forest is not fitted")
        X = check_query(X, self.trees_[0].n_features_)
        votes = np.zeros(len(X), dtype=np.int64)
        for tree in self.trees_:
            votes += tree.predict(X)
        return (2 * votes > len(self.trees_)).astype(np.int64)

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
