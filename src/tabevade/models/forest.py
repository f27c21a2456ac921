"""Bagged forest of Gini trees with per-node sqrt feature subsampling, grown level by level.

The forest score is the fraction of trees voting positive (each tree votes
its leaf majority), so scores land on a {0, 1/T, ..., 1} lattice.

Every tree draws from its own random stream (Breiman, "Random Forests",
2001).  One integer from the forest's generator, ``rng.integers(2**63)``,
seeds a ``numpy.random.SeedSequence`` whose ``spawn(n_trees)`` children
seed the trees' generators, in tree order (:func:`tree.tree_streams`).
Tree t's generator first draws its bootstrap sample, ``integers(0, n,
size=n)`` (every row once, and no draw, without bootstrap).  Then, once per
level, it draws one ``random((nodes, d))`` block of uniform keys, row i for
the level's i-th searched node in level order: the root, then the children
of each level's nodes, left before right, in their parents' order.  A node
is searched when it lies above ``max_depth``, holds at least ``2 *
min_leaf`` samples and has a nonzero Gini impurity; it takes the k
features with the smallest keys (ties to the lower index), in ascending
index order, where k is ``feature_count(max_features, d)``, floor(sqrt(d))
by default.  When k is d no keys are drawn; they are the last draws of a
tree's stream, so that changes nothing else.

The trees of a batch grow together, one level at a time, through
:func:`tree.grow_trees`, the grower a :class:`tree.DecisionTree` grows its
one tree with.  ``min_leaf`` counts bootstrap duplicates.  Each tree is the
:class:`tree.FlatTree` a decision tree holds.
"""
from __future__ import annotations

import numpy as np

from .tree import DecisionTree, FlatTree, code_columns, feature_count, grow_trees, traverse, tree_streams

DEFAULTS = {"n_trees": 100, "max_depth": 12, "min_leaf": 2, "max_features": "sqrt", "bootstrap": True}

# trees grow together in batches of at most this many bootstrap samples (at
# least one tree), which bounds every per-level array of the grower
_TREE_BLOCK = 1 << 15


class RandomForest:
    def __init__(self, n_trees=100, max_depth=12, min_leaf=2, max_features="sqrt", bootstrap=True):
        self.n_trees = int(n_trees)
        self.max_depth = int(max_depth)
        self.min_leaf = int(min_leaf)
        self.max_features = max_features
        self.bootstrap = bool(bootstrap)
        self.trees: list[DecisionTree] = []

    def fit(self, X: np.ndarray, y: np.ndarray, rng: np.random.Generator):
        X = np.ascontiguousarray(X, dtype=float)
        y = np.asarray(y, dtype=np.intp)
        n, d = X.shape
        streams = tree_streams(rng, self.n_trees)
        columns = code_columns(X, y)
        k = feature_count(self.max_features, d)
        self.trees = []
        batch = max(1, _TREE_BLOCK // max(n, 1))
        for start in range(0, self.n_trees, batch):
            part = streams[start:start + batch]
            # the samples go straight to the grower, which drops them level by level
            for flat, importances in grow_trees(X, y, columns, self._samples(part, n), part, k, self.max_depth,
                                                self.min_leaf):
                tree = DecisionTree(self.max_depth, self.min_leaf, self.max_features)
                tree.n_features, tree.flat, tree.importances = d, flat, importances
                self.trees.append(tree)
        self._flat = FlatTree.stack([tree.flat for tree in self.trees])  # so one traversal predicts every tree
        return self

    def _samples(self, streams, n: int) -> np.ndarray:
        """Every tree's bootstrap sample (or every row once), tree after tree."""
        return np.concatenate([g.integers(0, n, size=n) if self.bootstrap else np.arange(n) for g in streams])

    def predict_scores(self, X: np.ndarray) -> np.ndarray:
        n_trees = len(self.trees)
        return traverse(self._flat, X,
                        lambda leaves: np.count_nonzero(self._flat.value[leaves] >= 0.5, axis=0) / n_trees)

    def to_dict(self) -> dict:
        return {**{name: getattr(self, name) for name in DEFAULTS}, "trees": [t.to_dict() for t in self.trees]}

    @classmethod
    def from_dict(cls, payload: dict) -> "RandomForest":
        model = cls(**{name: payload[name] for name in DEFAULTS})
        model.trees = [DecisionTree.from_dict(t) for t in payload["trees"]]
        model._flat = FlatTree.stack([tree.flat for tree in model.trees])
        return model
