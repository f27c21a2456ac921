"""CART-style binary classification tree (Gini criterion) and the flat tree
layout every tree model shares.

Splits are searched over midpoints between consecutive distinct sorted
values; ties break toward the lower feature index and lower threshold so
training is fully deterministic.  One vectorized scan costs every boundary
of every candidate feature of a node (:func:`best_split`).  A tree that
scans all features sorts each column once per fit and partitions that
order down the tree; a tree drawing a few features per node sorts those at
the node.  The fitted tree also exposes impurity-decrease feature
importances, which recursive feature elimination uses as its default
estimator signal.
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
# best_split() scans, and grow_tree() partitions, at most this many (feature,
# row) pairs at a time, which keeps each temporary array at 32 KB however
# large the node
_SCAN_BLOCK = 1 << 12


def scan_splits(values: np.ndarray, min_leaf: int, *targets: np.ndarray):
    """Every boundary of each row of ``values`` that could split it, or None when none is valid.

    ``values`` is a (features x rows) block, each row sorted ascending, and
    each target a block of the same shape in the same order.  Boundary ``b``
    sits after sorted position ``p = first + b``; the positions run over
    those that leave at least ``min_leaf`` rows on each side.  Returns
    ``(left_n, right_n, sums, valid, threshold)``: the row counts below and at
    or above each boundary (as floats, shared by every row), each target's
    ``(left, right)`` sums there (as floats), the mask of boundaries between
    two distinct values, and ``threshold(i, b)``, the midpoint of the two
    values around boundary ``b`` of row ``i``.
    """
    n = values.shape[1]
    first, stop = max(min_leaf, 1) - 1, n - max(min_leaf, 1)  # stop excluded
    if stop <= first:
        return None
    valid = values[:, first:stop] < values[:, first + 1:stop + 1]
    if not valid.any():
        return None
    sums = []
    for target in targets:
        running = np.cumsum(target, axis=1)
        left = running[:, first:stop].astype(float, copy=False)
        sums.append((left, running[:, -1:] - left))

    def threshold(i: int, b: int) -> float:
        return float(0.5 * (values[i, first + b] + values[i, first + b + 1]))

    left_n = np.arange(first, stop) + 1.0
    return left_n, n - left_n, sums, valid, threshold


def gini_cost(left_n, right_n, sums, n: int) -> np.ndarray:
    """Weighted child Gini impurity at each boundary that :func:`scan_splits` gives."""
    [(left_ones, right_ones)] = sums
    left_gini = 1.0 - ((left_ones / left_n) ** 2 + ((left_n - left_ones) / left_n) ** 2)
    right_gini = 1.0 - ((right_ones / right_n) ** 2 + ((right_n - right_ones) / right_n) ** 2)
    return (left_n * left_gini + right_n * right_gini) / n


def feature_count(max_features, n_features: int) -> int:
    """How many features a node draws: all for None, floor(sqrt(d)) for "sqrt", else the number given, in [1, d]."""
    if max_features is None:
        return n_features
    if max_features == "sqrt":
        return max(1, int(np.sqrt(n_features)))
    return max(1, min(int(max_features), n_features))


def presort(X: np.ndarray) -> np.ndarray:
    """Each column's row ids in ascending value order, ties in row order, as a (features x rows) int32 block."""
    ordered = np.empty(X.shape[::-1], dtype=np.int32)
    for j, column in enumerate(X.T):  # column by column, so the only int64 temporary is one column's
        ordered[j] = np.argsort(column, kind="stable")
    return ordered


def best_split(X, rows, features, targets, cost, min_leaf: int, ordered=None):
    """Cheapest ``(cost, feature, threshold)`` splitting ``rows`` on one of ``features``, or None.

    ``X`` is the C-contiguous training matrix, ``targets`` are arrays over
    all its rows, and ``cost`` maps a :func:`scan_splits` result and the row
    count to a cost per boundary.  ``ordered[i]``, when given, holds ``rows``
    sorted by ``features[i]``; otherwise the columns are sorted here.
    Features are scanned in blocks of at most ``_SCAN_BLOCK`` (feature, row)
    pairs.  Each feature's cheapest boundary is its first (lowest threshold)
    minimum, and in feature order only a strict improvement replaces the
    best, so ties keep the lowest feature index.
    """
    features = np.asarray(features)
    flat, width = X.ravel(), np.intp(X.shape[1])
    n = rows.size
    best = (np.inf, -1, 0.0)
    step = max(1, _SCAN_BLOCK // max(n, 1))
    for start in range(0, features.size, step):
        block = features[start:start + step, None]
        if ordered is None:
            ids = rows[np.argsort(flat[rows * width + block], axis=1, kind="stable")]
        else:
            ids = ordered[start:start + step]
        values = flat[ids * width + block]
        scan = scan_splits(values, min_leaf, *(target[ids] for target in targets))
        if scan is None:
            continue
        left_n, right_n, sums, valid, threshold = scan
        costs = np.where(valid, cost(left_n, right_n, sums, n), np.inf)
        at = costs.argmin(axis=1)
        for i, found in enumerate(costs[np.arange(at.size), at].tolist()):
            if found < best[0] - 1e-15:
                best = (found, int(block[i, 0]), threshold(i, int(at[i])))
    return best if best[1] >= 0 else None


def best_gini_split(col: np.ndarray, y: np.ndarray, min_leaf: int):
    """Best threshold for one feature: (weighted child impurity, threshold).

    Returns None when no split keeps ``min_leaf`` rows on both sides.
    """
    found = best_split(np.asarray(col, dtype=float)[:, None], np.arange(col.size), [0], (y,), gini_cost, min_leaf)
    return None if found is None else (found[0], found[2])


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


def grow_tree(X: np.ndarray, visit, ordered: np.ndarray | None, max_depth: int) -> FlatTree:
    """Grow a tree depth first, left before right, numbering nodes in preorder.

    ``visit(rows, ordered, depth)`` returns a node's value and its split as
    ``best_split`` gives it, or None to make the node a leaf.  ``rows`` are
    the node's row ids in ascending order.  Given a :func:`presort` block,
    the tree stable-partitions it in place at every split (as SLIQ does,
    Mehta et al. 1996), so each node gets a view of it holding its rows
    sorted by every column; otherwise every node gets None.  Nodes at
    ``max_depth`` get None too, so ``visit`` must make them leaves without
    reading ``ordered``.
    """
    nodes: list[list] = []  # one list of NODE_FIELDS per node
    goes_left = np.zeros(X.shape[0], dtype=bool)
    pending = [(np.arange(X.shape[0]), ordered, 0, None)]  # rows, ordered, depth, (parent, slot) of the child id
    while pending:
        rows, ordered, depth, link = pending.pop()
        node = len(nodes)
        value, split = visit(rows, ordered, depth)
        nodes.append([0, 0.0, node, node, value, rows.size])
        if link is not None:
            nodes[link[0]][link[1]] = node
        if split is None:
            continue
        _, feature, threshold = split
        nodes[node][:2] = [feature, threshold]
        mask = X[rows, feature] < threshold
        left = right = None
        if ordered is not None and depth + 1 < max_depth:
            goes_left[rows] = mask
            n_left = int(np.count_nonzero(mask))
            step = max(1, _SCAN_BLOCK // rows.size)
            for start in range(0, len(ordered), step):
                part = ordered[start:start + step]
                side = goes_left[part]
                to_left, to_right = part[side], part[~side]
                part[:, :n_left] = to_left.reshape(len(part), n_left)
                part[:, n_left:] = to_right.reshape(len(part), -1)
            left, right = ordered[:, :n_left], ordered[:, n_left:]
        pending += [(rows[~mask], right, depth + 1, (node, 3)), (rows[mask], left, depth + 1, (node, 2))]
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
        X = np.ascontiguousarray(X, dtype=float)
        y = np.asarray(y, dtype=int)
        self.n_features = X.shape[1]
        imp = np.zeros(self.n_features)
        # a tree that scans every feature at every node sorts each column once;
        # one drawing a few features per node sorts just those, at the node
        ordered = presort(X) if self._scans_all_features(rng) else None
        self.flat = grow_tree(X, lambda rows, ordered, depth: self._visit(X, y, rows, ordered, depth, rng, imp),
                              ordered, self.max_depth)
        total = imp.sum()
        self.importances = imp / total if total > 0 else imp
        return self

    def _scans_all_features(self, rng: np.random.Generator | None) -> bool:
        return self.max_features is None or rng is None

    def _candidate_features(self, rng: np.random.Generator | None) -> np.ndarray:
        if self._scans_all_features(rng):
            return np.arange(self.n_features)
        k = feature_count(self.max_features, self.n_features)
        return np.sort(rng.choice(self.n_features, size=k, replace=False))

    def _visit(self, X, y, rows, ordered, depth, rng, imp):
        n = rows.size
        if n == 0:
            return 0.0, None
        ones = int(y[rows].sum())
        p0, p1 = (n - ones) / n, ones / n  # class shares from exact counts
        value, parent_gini = p1, 1.0 - (p0 * p0 + p1 * p1)
        if depth >= self.max_depth or n < 2 * self.min_leaf or parent_gini == 0.0:
            return value, None
        found = best_split(X, rows, self._candidate_features(rng), (y,), gini_cost, self.min_leaf, ordered)
        if found is not None:
            # zero-gain splits are allowed (XOR-style patterns need them to start)
            imp[found[1]] += n * max(parent_gini - found[0], 0.0)
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
