"""Bagged forest of Gini trees with per-split sqrt feature subsampling.

The forest score is the fraction of trees voting positive (each tree votes
its leaf majority), so scores land on a {0, 1/T, ..., 1} lattice.
"""
from __future__ import annotations

import numpy as np

from .tree import DecisionTree, FlatTree, traverse

DEFAULTS = {"n_trees": 100, "max_depth": 12, "min_leaf": 2, "max_features": "sqrt", "bootstrap": True}


class RandomForest:
    def __init__(self, n_trees=100, max_depth=12, min_leaf=2, max_features="sqrt", bootstrap=True):
        self.n_trees = int(n_trees)
        self.max_depth = int(max_depth)
        self.min_leaf = int(min_leaf)
        self.max_features = max_features
        self.bootstrap = bool(bootstrap)
        self.trees: list[DecisionTree] = []

    def fit(self, X: np.ndarray, y: np.ndarray, rng: np.random.Generator):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=int)
        n = X.shape[0]
        self.trees = []
        for _ in range(self.n_trees):
            rows = rng.integers(0, n, size=n) if self.bootstrap else np.arange(n)
            tree = DecisionTree(self.max_depth, self.min_leaf, self.max_features)
            tree.fit(X[rows], y[rows], rng=rng)
            self.trees.append(tree)
        self._flat = FlatTree.stack([tree.flat for tree in self.trees])  # so one traversal predicts every tree
        return self

    def predict_scores(self, X: np.ndarray) -> np.ndarray:
        n_trees = len(self.trees)
        return traverse(self._flat, X,
                        lambda leaves: np.count_nonzero(self._flat.value[leaves] >= 0.5, axis=0) / n_trees)

    @property
    def importances(self) -> np.ndarray:
        stacked = np.mean([t.importances for t in self.trees], axis=0)
        total = stacked.sum()
        return stacked / total if total > 0 else stacked

    def to_dict(self) -> dict:
        return {**{name: getattr(self, name) for name in DEFAULTS}, "trees": [t.to_dict() for t in self.trees]}

    @classmethod
    def from_dict(cls, payload: dict) -> "RandomForest":
        model = cls(**{name: payload[name] for name in DEFAULTS})
        model.trees = [DecisionTree.from_dict(t) for t in payload["trees"]]
        model._flat = FlatTree.stack([tree.flat for tree in model.trees])
        return model
