"""CART-style binary classification tree (Gini criterion) and the flat tree
layout every tree model shares.

Splits are searched over midpoints between consecutive distinct sorted
values; ties break toward the lower feature index and lower threshold so
training is fully deterministic.  The fitted tree also exposes
impurity-decrease feature importances, which recursive feature elimination
uses as its default estimator signal.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from ..errors import FitError, ShapeError

DEFAULTS = {"max_depth": 12, "min_leaf": 2, "max_features": None}
NODE_FIELDS = ("feature", "threshold", "left", "right", "value", "n_samples")

# traverse() works on at most this many (tree, row) pairs at a time, which
# keeps each of its temporary arrays at 128 KB however many rows are predicted
_TRAVERSE_BLOCK = 1 << 14


def _gini(counts: np.ndarray, total: float) -> float:
    if total <= 0:
        return 0.0
    p = counts / total
    return float(1.0 - np.sum(p * p))


def scan_splits(col: np.ndarray, min_leaf: int, *targets: np.ndarray):
    """The boundaries between consecutive distinct values of ``col`` that keep
    at least ``min_leaf`` rows on each side, or None when there is none.

    The column is sorted once (stably).  Returns ``(left_n, right_n, sums,
    threshold)`` in ascending threshold order: the row counts below and at or
    above each threshold, each target's ``(left, right)`` sums there (all as
    floats), and ``threshold(k)``, the midpoint of the two distinct values
    around boundary ``k``.
    """
    n = col.size
    order = np.argsort(col, kind="stable")
    values = col[order]
    pos = np.flatnonzero(values[:-1] < values[1:])  # sorted position of the last row below
    # ascending, so the boundaries with min_leaf <= pos + 1 <= n - min_leaf are a slice
    lo, hi = np.searchsorted(pos, (min_leaf - 1, n - min_leaf))
    pos = pos[lo:hi]
    if pos.size == 0:
        return None
    sums = []
    for target in targets:
        running = np.cumsum(target[order])
        left = running[pos].astype(float, copy=False)
        sums.append((left, running[-1] - left))

    def threshold(k: int) -> float:
        return float(0.5 * (values[pos[k]] + values[pos[k] + 1]))

    left_n = pos + 1.0
    return left_n, n - left_n, sums, threshold


def best_gini_split(col: np.ndarray, y: np.ndarray, min_leaf: int):
    """Best threshold for one feature: (weighted child impurity, threshold).

    Returns None when no split keeps ``min_leaf`` rows on both sides.
    """
    scan = scan_splits(col, min_leaf, y)
    if scan is None:
        return None
    left_n, right_n, [(left_ones, right_ones)], threshold = scan
    left_gini = 1.0 - ((left_ones / left_n) ** 2 + ((left_n - left_ones) / left_n) ** 2)
    right_gini = 1.0 - ((right_ones / right_n) ** 2 + ((right_n - right_ones) / right_n) ** 2)
    weighted = (left_n * left_gini + right_n * right_gini) / col.size
    best = int(np.argmin(weighted))  # first occurrence -> lowest threshold
    return float(weighted[best]), threshold(best)


@dataclass(eq=False)
class FlatTree:
    """One tree, or several stacked, as parallel arrays indexed by node id.

    Nodes are numbered in preorder from each root, the layout of
    scikit-learn's ``tree_``.  A row goes left when ``X[row, feature] <
    threshold`` and right otherwise, so ties and NaN go right.  A leaf points
    both children at itself, so walking extra levels is safe.
    """

    feature: np.ndarray  # 0 at leaves
    threshold: np.ndarray  # 0.0 at leaves
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray  # leaf output (also kept at inner nodes)
    n_samples: np.ndarray  # training rows per node
    roots: np.ndarray = field(default_factory=lambda: np.zeros(1, dtype=np.intp))

    @cached_property
    def children(self) -> np.ndarray:
        """Right child of node i at 2i and left child at 2i + 1, for one-gather steps."""
        return np.stack([self.right, self.left], axis=1).ravel()

    @cached_property
    def depth(self) -> int:
        """Most levels any row descends from a root before reaching a leaf."""
        level, nodes = 0, self.roots
        while True:
            nodes = nodes[self.left[nodes] != nodes]
            if nodes.size == 0:
                return level
            nodes = np.concatenate([self.left[nodes], self.right[nodes]])
            level += 1

    def to_dict(self) -> dict:
        return {name: getattr(self, name).tolist() for name in NODE_FIELDS}

    @classmethod
    def from_dict(cls, payload: dict, n_features: int) -> "FlatTree":
        """Rebuild a tree written by :meth:`to_dict`, rejecting any that is not well formed."""
        arrays = {name: np.asarray(payload[name]) for name in NODE_FIELDS}
        for name, array in arrays.items():
            floats = name in ("threshold", "value")
            if array.ndim != 1 or (array.size and array.dtype.kind not in ("iuf" if floats else "iu")):
                raise FitError(f"tree field {name!r} must be a flat list of {'numbers' if floats else 'integers'}")
        if len({array.size for array in arrays.values()}) != 1 or arrays["left"].size == 0:
            raise FitError("tree arrays are empty or of unequal lengths")
        ids = np.arange(arrays["left"].size)
        feature, left, right = arrays["feature"], arrays["left"], arrays["right"]
        if np.any((feature < 0) | (feature >= n_features)):
            raise FitError(f"tree splits on a feature outside [0, {n_features})")
        inner = (left > ids) & (right > ids) & (left < ids.size) & (right < ids.size)
        if not np.all(np.where(left == ids, right == ids, inner)):
            raise FitError("tree child ids are out of range or not after their parent (not a preorder tree)")
        if not (np.all(np.isfinite(arrays["threshold"])) and np.all(np.isfinite(arrays["value"]))):
            raise FitError("tree holds a non-finite threshold or value")
        return cls(**{name: array.astype(float if name in ("threshold", "value") else np.intp)
                      for name, array in arrays.items()})

    @classmethod
    def stack(cls, trees: Sequence["FlatTree"]) -> "FlatTree":
        """One flat tree holding the nodes of every tree, with one root per tree."""
        if not trees:
            raise FitError("an ensemble needs at least one tree")
        sizes = [tree.left.size for tree in trees]
        roots = np.cumsum([0] + sizes[:-1])
        joined = {name: np.concatenate([getattr(tree, name) for tree in trees]) for name in NODE_FIELDS}
        offset = np.repeat(roots, sizes)
        joined["left"] += offset
        joined["right"] += offset
        return cls(**joined, roots=roots)


def best_split(X, rows, target, features, scan, min_leaf: int):
    """Cheapest ``(cost, feature, threshold)`` that ``scan`` finds over ``features``, or None.

    Only a strict improvement replaces the best, so ties keep the lowest feature index.
    """
    best = (np.inf, -1, 0.0)
    for j in features:
        found = scan(X[rows, j], target, min_leaf)
        if found is not None and found[0] < best[0] - 1e-15:
            best = (found[0], int(j), found[1])
    return best if best[1] >= 0 else None


def grow_tree(X: np.ndarray, visit) -> FlatTree:
    """Grow a tree depth first, left before right, numbering nodes in preorder.

    ``visit(rows, depth)`` returns a node's value and its split as
    ``best_split`` gives it, or None to make the node a leaf.
    """
    nodes: list[list] = []  # one list of NODE_FIELDS per node
    pending = [(np.arange(X.shape[0]), 0, None)]  # rows, depth, (parent, slot) of the child id
    while pending:
        rows, depth, link = pending.pop()
        node = len(nodes)
        value, split = visit(rows, depth)
        nodes.append([0, 0.0, node, node, value, rows.size])
        if link is not None:
            nodes[link[0]][link[1]] = node
        if split is not None:
            _, feature, threshold = split
            nodes[node][:2] = [feature, threshold]
            mask = X[rows, feature] < threshold
            pending += [(rows[~mask], depth + 1, (node, 3)), (rows[mask], depth + 1, (node, 2))]
    return FlatTree(*(np.array(column) for column in zip(*nodes)))


def traverse(tree: FlatTree, X: np.ndarray, reduce: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """One output per row of ``X``, from the leaves it reaches from every root.

    All (root, row) pairs descend one level per step together, level by level
    (the "TreeTraversal" strategy of Hummingbird, Nakandala et al., OSDI
    2020).  Rows go in blocks; ``reduce`` maps a block's (roots, rows) leaf
    ids to one value per row.
    """
    X = np.asarray(X, dtype=float)
    n_rows, n_cols = X.shape
    if n_cols <= tree.feature.max():
        raise ShapeError(f"matrix has {n_cols} columns, the tree splits on column {tree.feature.max()}")
    out = np.empty(n_rows)
    block = max(1, _TRAVERSE_BLOCK // tree.roots.size)
    for start in range(0, n_rows, block):
        rows = np.ascontiguousarray(X[start:start + block]).ravel()
        row_base = np.arange(0, rows.size, n_cols)
        node = np.repeat(tree.roots[:, None], row_base.size, axis=1)
        for _ in range(tree.depth):
            go_left = rows[row_base + tree.feature[node]] < tree.threshold[node]
            node = tree.children[2 * node + go_left]
        out[start:start + block] = reduce(node)
    return out


class DecisionTree:
    def __init__(self, max_depth=12, min_leaf=2, max_features=None):
        self.max_depth = int(max_depth)
        self.min_leaf = int(min_leaf)
        self.max_features = max_features
        self.flat: FlatTree | None = None
        self.n_features = 0
        self.importances: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray, rng: np.random.Generator | None = None):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=int)
        self.n_features = X.shape[1]
        imp = np.zeros(self.n_features)
        self.flat = grow_tree(X, lambda rows, depth: self._visit(X, y, rows, depth, rng, imp))
        total = imp.sum()
        self.importances = imp / total if total > 0 else imp
        return self

    def _candidate_features(self, rng: np.random.Generator | None) -> np.ndarray:
        if self.max_features is None or rng is None:
            return np.arange(self.n_features)
        if self.max_features == "sqrt":
            k = max(1, int(np.sqrt(self.n_features)))
        else:
            k = max(1, min(int(self.max_features), self.n_features))
        return np.sort(rng.choice(self.n_features, size=k, replace=False))

    def _visit(self, X, y, rows, depth, rng, imp):
        sub_y = y[rows]
        value = float(sub_y.mean()) if rows.size else 0.0
        parent_gini = _gini(np.bincount(sub_y, minlength=2).astype(float), rows.size)
        if depth >= self.max_depth or rows.size < 2 * self.min_leaf or parent_gini == 0.0:
            return value, None
        found = best_split(X, rows, sub_y, self._candidate_features(rng), best_gini_split, self.min_leaf)
        if found is not None:
            # zero-gain splits are allowed (XOR-style patterns need them to start)
            imp[found[1]] += rows.size * max(parent_gini - found[0], 0.0)
        return value, found

    def predict_scores(self, X: np.ndarray) -> np.ndarray:
        return traverse(self.flat, X, lambda leaves: self.flat.value[leaves[0]])

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            **{name: getattr(self, name) for name in DEFAULTS},
            "n_features": self.n_features,
            "importances": list(map(float, self.importances)),
            **self.flat.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "DecisionTree":
        tree = cls(**{name: payload[name] for name in DEFAULTS})
        tree.n_features = int(payload["n_features"])
        tree.importances = np.asarray(payload["importances"], dtype=float)
        tree.flat = FlatTree.from_dict(payload, tree.n_features)
        return tree
