"""Gradient-boosted shallow regression trees with logistic loss.

Each round fits a squared-error regression tree to the residual y - p and
replaces leaf values with a Newton step sum(residual) / sum(p(1-p)), the
classic binomial-deviance update.  Scores are the sigmoid of the raw sum.

Trees grow level by level from per-(node, value) sums, as XGBoost's exact
greedy grower does (Chen & Guestrin, KDD 2016).  Columns are coded once per
fit by their distinct values (:func:`tree.code_values`); per level, one
``np.bincount`` of residuals and one of rows over (searched node, value)
keys, cumulated over each feature's values, give every boundary's left
count and sum.  A boundary between two values present in the node costs
-(L²/n_L + R²/n_R), which ranks a node's splits as their summed squared
error does; thresholds and tie rules are :mod:`tree`'s.  A default tree has
at most 4 searched nodes per level, so these dense sums stay small.
"""
from __future__ import annotations

import itertools

import numpy as np

from .logistic import sigmoid
from .tree import FlatTree, _partition, _preorder, code_values, first_minima, midpoint, pick_features, traverse

DEFAULTS = {"n_trees": 100, "max_depth": 3, "learning_rate": 0.1, "min_leaf": 1}

# a level sums at most this many (node, value) bins at a time (at least one
# node), which keeps each per-bin array at 1 MB however deep the tree
_SUM_BLOCK = 1 << 17


def code_matrix(X: np.ndarray):
    """``(codes, distinct, starts)``: cell (i, j) is ``distinct[codes[i, j]]``, and column j's values are
    ``distinct[starts[j]:starts[j + 1]]``."""
    codes, distinct, offsets, _ = code_values(X)
    return codes + offsets, distinct, np.append(offsets, distinct.size)


def grow_regression_tree(X, coded, residual, hessian, max_depth: int, min_leaf: int) -> FlatTree:
    """Squared-error tree on ``residual`` whose nodes hold Newton steps; ``coded`` is :func:`code_matrix` of ``X``.

    A node is a leaf at ``max_depth``, below ``2 * min_leaf`` rows, or when
    its residuals are all ``np.allclose`` to its first row's.
    """
    n = X.shape[0]
    rows, sizes = np.arange(n), np.array([n])
    levels, links, count = [], [], 0  # as tree.grow_trees keeps them
    for depth in itertools.count():
        m = sizes.size
        node = np.repeat(np.arange(m), sizes)
        target = residual[rows]
        hessians = np.bincount(node, weights=hessian[rows], minlength=m)
        value = np.divide(np.bincount(node, weights=target, minlength=m), hessians, out=np.zeros(m),
                          where=hessians > 1e-12)
        feature, threshold = np.zeros(m, dtype=np.intp), np.zeros(m)  # set below at splits
        levels.append((np.zeros(m, dtype=np.intp), feature, threshold, value, sizes, np.zeros(m)))
        if depth >= max_depth:
            break
        starts = np.cumsum(sizes) - sizes
        first = np.repeat(target[starts], sizes)  # np.allclose(target, target[0]) for every node at once
        constant = np.logical_and.reduceat(np.abs(target - first) <= 1e-8 + 1e-5 * np.abs(first), starts)
        is_searched = (sizes >= 2 * min_leaf) & ~constant
        searched = np.flatnonzero(is_searched)
        if searched.size == 0 or X.shape[1] == 0:
            break
        rows = rows[np.repeat(is_searched, sizes)]
        cost, best, cut = _cheapest_splits(rows, sizes[searched], residual, coded, min_leaf)
        split = np.isfinite(cost)
        if not split.any():
            break
        parents = searched[split]
        feature[parents], threshold[parents] = best[split], cut[split]
        links.append((count + parents, count + m + 2 * np.arange(parents.size)))
        count += m
        rows, sizes, _ = _partition(X, residual, rows[np.repeat(split, sizes[searched])], sizes[parents],
                                    feature[parents], threshold[parents])  # its label counts go unused
    [(flat, _)] = _preorder(levels, links, 1)
    return flat


def _cheapest_splits(rows, sizes, residual, coded, min_leaf: int):
    """Each node's cheapest ``(cost, feature, threshold)``, for ``rows`` holding the nodes' rows node after node."""
    codes, distinct, starts = coded
    n_nodes, d, n_values = sizes.size, codes.shape[1], distinct.size
    pair_cost, pair_threshold = np.full((n_nodes, d), np.inf), np.zeros((n_nodes, d))
    feature_of = np.repeat(np.arange(d), np.diff(starts))
    lowest = max(min_leaf, 1)
    ends = np.cumsum(sizes)
    step = max(1, _SUM_BLOCK // max(n_values, 1))
    for first in range(0, n_nodes, step):
        block = sizes[first:first + step]
        part = rows[ends[first] - sizes[first]:ends[first + block.size - 1]]
        keys = (codes[part] + (np.repeat(np.arange(block.size), block) * n_values)[:, None]).ravel()
        bins = block.size * n_values
        counts = np.bincount(keys, minlength=bins).reshape(block.size, n_values)
        left = np.bincount(keys, weights=np.repeat(residual[part], d), minlength=bins).reshape(block.size, n_values)
        for start, stop in zip(starts[:-1].tolist(), starts[1:].tolist()):  # each feature's sums, cumulated
            np.cumsum(left[:, start:stop], axis=1, out=left[:, start:stop])
        left_n = np.cumsum(counts, axis=1) - feature_of * block[:, None]  # each feature holds every row once
        right_n = block[:, None] - left_n
        present = counts > 0
        at, code = np.nonzero(present & (left_n >= lowest) & (right_n >= lowest))
        if at.size == 0:
            continue
        feature = feature_of[code]
        left_sum, n_left, n_right = left[at, code], left_n[at, code], right_n[at, code]
        right_sum = left[at, starts[feature + 1] - 1] - left_sum
        costs = -(left_sum * left_sum / n_left + right_sum * right_sum / n_right)
        hits = first_minima(at * d + feature, costs)
        at, code, feature = at[hits], code[hits], feature[hits]
        filled = np.flatnonzero(present)
        above = filled[np.searchsorted(filled, at * n_values + code, side="right")] - at * n_values
        pair_cost[first + at, feature] = costs[hits]
        pair_threshold[first + at, feature] = midpoint(distinct[code], distinct[above])
    return pick_features(pair_cost, pair_threshold, np.broadcast_to(np.arange(d), (n_nodes, d)))


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
        coded = code_matrix(X)
        for _ in range(self.n_trees):
            p = sigmoid(raw)
            residual = y - p
            hessian = p * (1.0 - p)
            tree = grow_regression_tree(X, coded, residual, hessian, self.max_depth, self.min_leaf)
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
