"""Gradient-boosted shallow regression trees with logistic loss.

Each round fits a squared-error regression tree to the residual y - p and
replaces leaf values with a Newton step sum(residual) / sum(p(1-p)), the
classic binomial-deviance update.  Scores are the sigmoid of the raw sum.
The training matrix never changes between rounds, so its columns are
sorted once per fit and every round's tree partitions a copy of that order.
"""
from __future__ import annotations

import numpy as np

from .logistic import sigmoid
from .tree import FlatTree, best_split, grow_tree, presort, traverse

DEFAULTS = {"n_trees": 100, "max_depth": 3, "learning_rate": 0.1, "min_leaf": 1}


def mse_cost(left_n, right_n, sums, n: int) -> np.ndarray:
    """Children's summed squared deviations at each boundary :func:`scan_splits` gives.

    No division by ``n``: the cost only ranks boundaries of one node.
    """
    [(left_sum, right_sum), (left_sq, right_sq)] = sums
    left_sse = left_sq - left_sum * left_sum / left_n
    right_sse = right_sq - right_sum * right_sum / right_n
    return left_sse + right_sse


def _grow_regression_tree(X, ordered, residual, hessian, max_depth: int, min_leaf: int) -> FlatTree:
    """Squared-error tree on ``residual`` whose leaves hold Newton steps; ``ordered`` is ``presort(X)``."""
    targets = (residual, residual * residual)
    features = np.arange(X.shape[1])

    def visit(rows, ordered, depth):
        h = hessian[rows].sum()
        value = 0.0 if h <= 1e-12 else float(residual[rows].sum() / h)
        target = residual[rows]
        if depth >= max_depth or rows.size < 2 * min_leaf or np.allclose(target, target[0]):
            return value, None
        return value, best_split(X, rows, features, targets, mse_cost, min_leaf, ordered)

    return grow_tree(X, visit, ordered, max_depth)


class GradientBoostedTrees:
    def __init__(self, n_trees=100, max_depth=3, learning_rate=0.1, min_leaf=1):
        self.n_trees = int(n_trees)
        self.max_depth = int(max_depth)
        self.learning_rate = float(learning_rate)
        self.min_leaf = int(min_leaf)
        self.base_score = 0.0  # log-odds of the positive rate
        self.n_features = 0
        self.trees: list[FlatTree] = []

    def fit(self, X: np.ndarray, y: np.ndarray, rng=None):
        X = np.ascontiguousarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        self.n_features = X.shape[1]
        rate = min(max(y.mean(), 1e-6), 1 - 1e-6)
        self.base_score = float(np.log(rate / (1.0 - rate)))
        raw = np.full(y.size, self.base_score)
        self.trees = []
        ordered = presort(X)
        partitioned = np.empty_like(ordered)  # each round's tree partitions a copy in place
        for _ in range(self.n_trees):
            p = sigmoid(raw)
            residual = y - p
            hessian = p * (1.0 - p)
            np.copyto(partitioned, ordered)
            tree = _grow_regression_tree(X, partitioned, residual, hessian, self.max_depth, self.min_leaf)
            raw += self.learning_rate * traverse(tree, X, lambda leaves: tree.value[leaves[0]])
            self.trees.append(tree)
        self._flat = FlatTree.stack(self.trees)  # so one traversal predicts every tree
        return self

    def _raw_sum(self, leaves: np.ndarray) -> np.ndarray:
        # tree by tree, in fit order, so the float sums match a loop over trees
        raw = np.full(leaves.shape[1], self.base_score)
        for step in self.learning_rate * self._flat.value[leaves]:
            raw += step
        return raw

    def predict_scores(self, X: np.ndarray) -> np.ndarray:
        return sigmoid(traverse(self._flat, X, self._raw_sum))

    def to_dict(self) -> dict:
        return {
            **{name: getattr(self, name) for name in DEFAULTS},
            "base_score": self.base_score,
            "n_features": self.n_features,
            "trees": [t.to_dict() for t in self.trees],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "GradientBoostedTrees":
        model = cls(**{name: payload[name] for name in DEFAULTS})
        model.base_score = float(payload["base_score"])
        model.n_features = int(payload["n_features"])
        model.trees = [FlatTree.from_dict(t, model.n_features) for t in payload["trees"]]
        model._flat = FlatTree.stack(model.trees)
        return model
