"""Bagged forest of Gini trees with per-node sqrt feature subsampling, grown level by level.

The forest score is the fraction of trees voting positive (each tree votes
its leaf majority), so scores land on a {0, 1/T, ..., 1} lattice.

Every tree draws from its own random stream (Breiman, "Random Forests",
2001).  One integer from the forest's generator, ``rng.integers(2**63)``,
seeds a ``numpy.random.SeedSequence`` whose ``spawn(n_trees)`` children
seed the trees' generators, in tree order.  Tree t's generator first draws
its bootstrap sample, ``integers(0, n, size=n)`` (every row once, and no
draw, without bootstrap).  Then, once per level, it draws one
``random((nodes, d))`` block of uniform keys, row i for the level's i-th
searched node in level order: the root, then the children of each level's
nodes, left before right, in their parents' order.  A node is searched
when it lies above ``max_depth``, holds at least ``2 * min_leaf`` samples
and has a nonzero Gini impurity; it takes the k features with the smallest
keys (ties to the lower index), in ascending index order, where k is
``feature_count(max_features, d)``, floor(sqrt(d)) by default.

The trees of a batch grow together, one level at a time, as XGBoost's
depthwise ``exact`` grower does (Chen & Guestrin, KDD 2016).  Each column
is coded once per fit as dense int32 value ranks, and one segmented pass
per block of nodes costs every (node, drawn feature, distinct-value
boundary) of a level: sorting (pair, code, label) keys gives every group's
sample and positive counts, and the boundaries are costed by
:func:`tree.gini_cost`.  The inputs are integer counts, so the costs are
the bits :func:`tree.best_split` gives for the same node and features.
The split rules are :class:`tree.DecisionTree`'s: ``min_leaf`` counts
bootstrap duplicates, each feature keeps its lowest-threshold minimum, a
later feature replaces the best only when cheaper by more than 1e-15, and
samples go left when ``X < threshold``.  The nodes are then renumbered to
preorder, so each tree is the :class:`tree.FlatTree` a decision tree holds.
"""
from __future__ import annotations

import itertools

import numpy as np

from .tree import DecisionTree, FlatTree, feature_count, gini_cost, traverse

DEFAULTS = {"n_trees": 100, "max_depth": 12, "min_leaf": 2, "max_features": "sqrt", "bootstrap": True}

# trees grow together in batches of at most this many bootstrap samples (at
# least one tree), which bounds every per-level array of the grower
_TREE_BLOCK = 1 << 15
# one sort costs at most this many (drawn feature, sample) pairs (at least
# one node's), which keeps each temporary array of a level's scan at 256 KB
_PAIR_BLOCK = 1 << 15


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
        seeds = np.random.SeedSequence(int(rng.integers(2**63))).spawn(self.n_trees)
        streams = [np.random.default_rng(seed) for seed in seeds]
        columns = code_columns(X, y)
        k = feature_count(self.max_features, d)
        self.trees = []
        batch = max(1, _TREE_BLOCK // max(n, 1))
        for start in range(0, self.n_trees, batch):
            for flat, gain in self._grow(X, y, columns, streams[start:start + batch], k):
                tree = DecisionTree(self.max_depth, self.min_leaf, self.max_features)
                imp = np.bincount(flat.feature, weights=gain, minlength=d)  # preorder sums, as a tree's fit adds
                total = imp.sum()
                tree.n_features, tree.flat, tree.importances = d, flat, imp / total if total > 0 else imp
                self.trees.append(tree)
        self._flat = FlatTree.stack([tree.flat for tree in self.trees])  # so one traversal predicts every tree
        return self

    def _grow(self, X, y, columns, streams, k):
        """The trees of ``streams``, grown together level by level, as ``(FlatTree, gain)`` pairs.

        ``gain`` holds each node's impurity decrease times its sample count
        (0 at leaves), in preorder, for the tree's importances.
        """
        n, d = X.shape
        n_trees = len(streams)
        rows = np.concatenate([g.integers(0, n, size=n) if self.bootstrap else np.arange(n) for g in streams])
        tree = np.arange(n_trees)  # per node of the level: its tree, sample count and positive count
        sizes = np.full(n_trees, n)
        ones = y[rows].reshape(n_trees, n).sum(axis=1)
        levels = []  # per level: its nodes' (tree, feature, threshold, value, n_samples, gain)
        links = []  # per level: the ids of its split nodes and of their left children
        count = 0  # nodes numbered so far, level by level
        for depth in itertools.count():
            m = tree.size
            # a midpoint that rounds onto the lower of two adjacent values can leave a child empty
            value = ones / np.maximum(sizes, 1)
            p0 = (sizes - ones) / np.maximum(sizes, 1)
            impurity = 1.0 - (p0 * p0 + value * value)
            is_searched = (sizes > 0) & (sizes >= 2 * self.min_leaf) & (impurity != 0.0)
            searched = np.flatnonzero(is_searched)
            feature, threshold, gain = np.zeros(m, dtype=np.intp), np.zeros(m), np.zeros(m)  # set below at splits
            levels.append((tree, feature, threshold, value, sizes, gain))
            if depth >= self.max_depth or searched.size == 0:
                break
            rows = rows[np.repeat(is_searched, sizes)]
            counts = np.bincount(tree[searched], minlength=n_trees).tolist()
            keys = np.concatenate([g.random((c, d)) for g, c in zip(streams, counts) if c])
            drawn = np.sort(np.argsort(keys, axis=1, kind="stable")[:, :k], axis=1)
            cost, best, cut = cheapest_splits(rows, sizes[searched], ones[searched], drawn, columns, self.min_leaf)
            split = np.isfinite(cost)
            if not split.any():
                break
            parents = searched[split]
            feature[parents], threshold[parents] = best[split], cut[split]
            gain[parents] = sizes[parents] * np.maximum(impurity[parents] - cost[split], 0.0)
            links.append((count + parents, count + m + 2 * np.arange(parents.size)))
            count += m
            rows, sizes, ones = _partition(X, y, rows[np.repeat(split, sizes[searched])], sizes[parents],
                                           feature[parents], threshold[parents])
            tree = np.repeat(tree[parents], 2)
        return _preorder(levels, links, n_trees)

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


def code_columns(X: np.ndarray, y: np.ndarray):
    """The training matrix as sort keys: ``(keyed, distinct, offsets, span)``.

    Code c of column j stands for the c-th smallest distinct value of column
    j; ``keyed`` is the (n x d) int32 block of ``2 * code + label`` of every
    cell, ``distinct`` holds every column's sorted distinct values end to
    end, ``offsets`` each column's offset into them, and ``span`` exceeds
    every code.
    """
    keyed = np.empty(X.shape, dtype=np.int32)
    distinct = []
    for j, column in enumerate(X.T):
        values, keyed[:, j] = np.unique(column, return_inverse=True)
        distinct.append(values)
    keyed *= 2
    keyed += y[:, None].astype(np.int32)
    offsets = np.cumsum([0] + [values.size for values in distinct[:-1]])
    return keyed, np.concatenate(distinct), offsets, max(values.size for values in distinct)


def _int_type(bound: int):
    """The narrower of int32 and int64 that holds every value below ``bound`` (int32 sorts faster)."""
    return np.int32 if bound < 2**31 else np.int64


def cheapest_splits(rows, sizes, ones, drawn, columns, min_leaf: int):
    """Each node's cheapest ``(cost, feature, threshold)`` over its drawn features, as three arrays.

    ``rows`` holds the samples of every node (duplicates included), node
    after node; node i has ``sizes[i]`` samples, ``ones[i]`` of them
    positive, and draws the ascending features ``drawn[i]``.  ``columns`` is
    :func:`code_columns` of the training data.  A node without a valid
    split gets cost ``inf``, feature 0 and threshold 0.0.  Whole nodes are
    costed at once, in blocks of at most ``_PAIR_BLOCK`` (feature, sample)
    pairs.
    """
    n_nodes, k = drawn.shape
    pair_cost, pair_threshold = np.full((n_nodes, k), np.inf), np.zeros((n_nodes, k))
    ends = np.cumsum(sizes)
    start = 0
    while start < n_nodes:
        first = ends[start] - sizes[start]
        stop = max(start + 1, int(np.searchsorted(ends, first + _PAIR_BLOCK // k, side="right")))
        block = slice(start, stop)
        _cost_pairs(rows[first:ends[stop - 1]], sizes[block], ones[block], drawn[block], columns, min_leaf,
                    pair_cost[block], pair_threshold[block])
        start = stop
    cost, feature, threshold = np.full(n_nodes, np.inf), np.zeros(n_nodes, dtype=np.intp), np.zeros(n_nodes)
    for slot in range(k):  # in feature order, only a clear improvement replaces the best
        better = pair_cost[:, slot] < cost - 1e-15
        cost[better], feature[better] = pair_cost[better, slot], drawn[better, slot]
        threshold[better] = pair_threshold[better, slot]
    return cost, feature, threshold


def _cost_pairs(rows, sizes, ones, drawn, columns, min_leaf, out_cost, out_threshold):
    """Write each (node, drawn feature) pair's first cheapest split into ``out_cost`` and ``out_threshold``."""
    keyed, distinct, offsets, span = columns
    n_nodes, k = drawn.shape
    pair_size = np.repeat(sizes, k)  # pair p = node * k + slot
    pair_start = np.cumsum(pair_size) - pair_size
    # one key per (pair, sample): (pair * span + code) * 2 + label
    keys = np.repeat(np.arange(0, 2 * span * pair_size.size, 2 * span, dtype=_int_type(2 * span * pair_size.size))
                     .reshape(n_nodes, k), sizes, axis=0)
    cells = np.repeat(drawn, sizes, axis=0)
    cells += rows[:, None] * keyed.shape[1]
    keys += keyed.ravel().take(cells)
    keys = np.sort(keys, axis=None)  # by pair, then code, then label
    group = keys >> 1
    last = np.flatnonzero(group[1:] != group[:-1])  # each group's last position, but the final group's
    at = group[last] // span  # the pair left of each boundary
    left_n = last + 1 - pair_start[at]
    right_n = pair_size[at] - left_n
    valid = np.flatnonzero((left_n >= max(min_leaf, 1)) & (right_n >= max(min_leaf, 1)))
    if valid.size == 0:
        return
    last, at, left_n, right_n = last[valid], at[valid], left_n[valid], right_n[valid]
    positives = np.cumsum(keys & 1)
    left_ones = positives[last] - np.concatenate([[0], positives[pair_start[1:] - 1]])[at]
    right_ones = ones[at // k] - left_ones
    costs = gini_cost(left_n.astype(float), right_n.astype(float),
                      [(left_ones.astype(float), right_ones.astype(float))], pair_size[at])
    heads = np.flatnonzero(np.concatenate([[True], at[1:] != at[:-1]]))
    lowest = np.repeat(np.minimum.reduceat(costs, heads), np.diff(np.append(heads, costs.size)))
    hits = np.flatnonzero(costs == lowest)
    hits = hits[np.concatenate([[True], at[hits[1:]] != at[hits[:-1]]])]  # each pair's first minimum
    pairs = at[hits]
    below, above = group[last[hits]] - pairs * span, group[last[hits] + 1] - pairs * span  # codes either side
    column = offsets[drawn.ravel()[pairs]]
    out_cost.ravel()[pairs] = costs[hits]
    out_threshold.ravel()[pairs] = 0.5 * (distinct[column + below] + distinct[column + above])


def _partition(X, y, rows, sizes, feature, threshold):
    """The samples of every split node regrouped into its two children, left then right.

    Returns the regrouped samples, in row order within each child, and each
    child's sample and positive counts; a sample goes left when
    ``X[row, feature] < threshold``.
    """
    n, d = X.shape
    node = np.repeat(np.arange(sizes.size), sizes)
    child = 2 * node + (X.ravel().take(rows * d + feature[node]) >= threshold[node])
    counts = np.bincount(child, minlength=2 * sizes.size)
    ones = np.bincount(child, weights=y[rows], minlength=2 * sizes.size).astype(np.intp)
    keys = (child * n + rows).astype(_int_type(2 * sizes.size * n))
    return (np.sort(keys) % n).astype(np.intp), counts, ones


def _preorder(levels, links, n_trees: int) -> list[tuple[FlatTree, np.ndarray]]:
    """Split level-ordered nodes into one preorder ``(FlatTree, gain)`` pair per tree.

    Node ids run level by level; ``links`` gives each level's split nodes
    and their left children, whose right siblings follow them.
    """
    tree, feature, threshold, value, n_samples, gain = (np.concatenate(field) for field in zip(*levels))
    ids = np.arange(tree.size)
    left, right = ids.copy(), ids.copy()
    subtree = np.ones(tree.size, dtype=np.intp)
    for parents, lefts in reversed(links):
        left[parents], right[parents] = lefts, lefts + 1
        subtree[parents] += subtree[lefts] + subtree[lefts + 1]
    local = np.zeros(tree.size, dtype=np.intp)  # preorder id within the node's tree
    for parents, lefts in links:
        local[lefts] = local[parents] + 1
        local[lefts + 1] = local[parents] + 1 + subtree[lefts]
    ends = np.cumsum(subtree[:n_trees])  # the roots are the first n_trees nodes
    starts = ends - subtree[:n_trees]
    order = np.empty(tree.size, dtype=np.intp)
    order[starts[tree] + local] = ids
    fields = [field[order] for field in (feature, threshold, local[left], local[right], value, n_samples)]
    gain = gain[order]
    return [(FlatTree(*(field[start:stop] for field in fields)), gain[start:stop]) for start, stop in zip(starts, ends)]
