"""Random forest of decision trees over bootstrap samples."""

from __future__ import annotations

import math

import numpy as np

from metaphish.classifiers.tree import DecisionTree, RankTable


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
        votes = np.zeros(len(X), dtype=np.int64)
        for tree in self.trees_:
            votes += tree.predict(X)
        return (2 * votes > len(self.trees_)).astype(np.int64)

    def to_dict(self) -> dict:
        return {
            "criterion": self.criterion,
            "trees": [tree.to_dict() for tree in self.trees_],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RandomForest":
        forest = cls(n_estimators=len(d["trees"]), criterion=d.get("criterion", "gini"))
        forest.trees_ = [DecisionTree.from_dict(t) for t in d["trees"]]
        return forest
