"""CART-style binary classification tree (Gini criterion), the flat tree
layout every tree model shares, and the level-wise Gini grower.

Splits are searched over the boundaries between distinct sorted values, at
their :func:`midpoint`.  Each feature keeps its lowest-threshold minimum and
a later feature replaces the best only when cheaper by more than 1e-15
(:func:`pick_features`), so training is fully deterministic.  Gini trees
(:class:`DecisionTree`, rfe's trees and every tree of a random forest) grow
level by level through :func:`grow_trees`, as XGBoost's depthwise
``exact`` grower does (Chen & Guestrin, KDD 2016).  A forest's level holds
thousands of bootstrapped nodes, so it sorts (node, feature, value) keys
and costs only the groups its samples fill; a boosted tree's level has at
most a few nodes, so :mod:`boosting` sums residuals per (node, value)
instead, over the same :func:`code_values`, :func:`_partition` and
:func:`_preorder`.  The fitted tree also exposes impurity-decrease feature
importances, which recursive feature elimination uses; it keeps one
:class:`Growth` across its steps and regrows only the subtrees that an
eliminated feature can change.
"""
from __future__ import annotations

import itertools
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
# grow_trees() costs at most this many (drawn feature, sample) pairs in one
# sort, which keeps each temporary array of a level's scan at 256 KB
_PAIR_BLOCK = 1 << 15


def midpoint(low, high):
    """The split threshold between values ``low < high``: their midpoint, or ``high`` if it rounds onto ``low``.

    Either way ``low < threshold <= high``, so ``X < threshold`` sends
    ``low`` left and ``high`` right, also when ``high`` is the next double.
    """
    mid = 0.5 * (low + high)
    return np.where(mid > low, mid, high)


def gini_cost(left_n, right_n, left_ones, right_ones, n) -> np.ndarray:
    """Weighted child Gini impurity at each boundary, from its children's sizes and positive counts."""
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
            # take() reads what indexing reads, with less overhead per call
            go_left = rows.take(row_base + tree.feature.take(node)) < tree.threshold.take(node)
            node = tree.children.take(2 * node + go_left)
        out[start:start + block] = reduce(node)
    return out


def tree_streams(rng: np.random.Generator, n_trees: int) -> list[np.random.Generator]:
    """One generator per tree: ``SeedSequence(rng.integers(2**63)).spawn(n_trees)``, in tree order."""
    return [np.random.default_rng(seed) for seed in np.random.SeedSequence(int(rng.integers(2**63))).spawn(n_trees)]


def code_values(X: np.ndarray):
    """Each column's cells as codes of its sorted distinct values: ``(codes, distinct, offsets, span)``.

    ``codes`` is an (n x d) int32 block; code c of column j stands for
    ``distinct[offsets[j] + c]``, and ``span`` exceeds every code.
    """
    codes = np.empty(X.shape, dtype=np.int32)
    distinct = []
    for j, column in enumerate(X.T):
        values, codes[:, j] = np.unique(column, return_inverse=True)
        distinct.append(values)
    bounds = np.cumsum([0] + [values.size for values in distinct])
    span = max((values.size for values in distinct), default=0)
    return codes, np.concatenate([np.empty(0), *distinct]), bounds[:-1], span


def code_columns(X: np.ndarray, y: np.ndarray):
    """The training matrix as sort keys: :func:`code_values` with ``2 * code + label`` in place of each code."""
    keyed, distinct, offsets, span = code_values(X)
    keyed *= 2
    keyed += y[:, None].astype(np.int32)
    return keyed, distinct, offsets, span


def grow_trees(X, y, columns, rows, streams, k: int, max_depth: int, min_leaf: int):
    """Gini trees grown together level by level, as one ``(FlatTree, importances)`` pair per tree.

    Tree t grows on the t-th run of n (= ``X.shape[0]``) samples of ``rows``
    and its searched nodes draw k of the d features from ``streams[t]``, as
    :mod:`forest` documents; with k equal to d nothing is drawn.  Every
    (node, drawn feature, boundary) of a level is costed in one segmented
    pass per block of nodes over ``columns``, :func:`code_columns` of ``(X,
    y)``: sorting (pair, code, label) keys gives every group's sample and
    positive counts, which :func:`gini_cost` turns into costs.  The nodes are
    renumbered to preorder at the end.  ``importances`` are each feature's
    impurity decrease times node size, summed in preorder and normalised to
    sum 1 (:func:`shares`).
    """
    growth = Growth(y, rows, len(streams))
    del rows  # the growth drops the samples level by level
    growth.grow(X, y, columns, streams, k, max_depth, min_leaf)
    return [(flat, shares(gains)) for flat, gains in growth.trees(X.shape[1])]


def shares(gains: np.ndarray) -> np.ndarray:
    """Feature importances from summed gains: each feature's share of the total (all zeros for no split)."""
    total = gains.sum()
    return gains / total if total > 0 else gains


class Growth:
    """Gini trees grown together level by level (:func:`grow_trees`), kept so that they can regrow by subtree.

    Per level j, ``levels[j]`` holds its nodes' (tree, feature, threshold,
    value, n_samples, gain), ``links[j]``, once the level splits, the ids
    of its split nodes and of their left children, and ``fronts[j]`` its
    nodes' trees, their samples node after node, and their sample and
    positive counts.  A growth that is not ``resumable`` keeps only the
    front it grows next, so that each level's samples go once split.  A
    resumable one keeps every front, and in ``node_leads[j]``, once the
    level splits, which features led each node's choice (:func:`leaders`),
    so that :meth:`drop` can forget a column and leave only the subtrees
    it can change to regrow.
    """

    def __init__(self, y, rows, n_trees: int, resumable: bool = False):
        n = rows.size // n_trees
        self.n_trees = n_trees
        self.fronts = [(np.arange(n_trees), rows, np.full(n_trees, n), y[rows].reshape(n_trees, n).sum(axis=1))]
        self.levels, self.links, self.node_leads = [], [], []
        # the old levels from the first that :meth:`drop` changed, each as (kept, feature, threshold, gain, split,
        # leads) per old node: kept is False where a dropped column led, and leads None on a level without splits
        self.regrow = []
        self.resumable = resumable
        self.grown = False

    @property
    def leads(self) -> list[np.ndarray]:
        """Per split level of a resumable growth, which features led some node's choice."""
        return [lead.any(axis=0) for lead in self.node_leads]

    def grow(self, X, y, columns, streams, k: int, max_depth: int, min_leaf: int) -> None:
        """Grow from the last front until no node splits, as :func:`grow_trees` documents.

        After :meth:`drop`, a node whose old counterpart kept its choice
        copies that choice, and only the others are scanned.  The children
        of a node that kept its choice are its old children, in level order.
        """
        n_trees, d = self.n_trees, X.shape[1]
        count = sum(level[0].size for level in self.levels)  # nodes numbered so far, level by level
        start, regrow, self.regrow = len(self.levels), self.regrow, []
        twins = np.arange(self.fronts[-1][0].size) if regrow else None  # each node's old counterpart, -1 for none
        for depth in itertools.count(start):
            tree, rows, sizes, ones = self.fronts[-1] if self.resumable else self.fronts.pop()
            m = tree.size
            value = ones / np.maximum(sizes, 1)  # only a tree fitted on no rows has an empty node
            p0 = (sizes - ones) / np.maximum(sizes, 1)
            impurity = 1.0 - (p0 * p0 + value * value)
            is_searched = (sizes > 0) & (sizes >= 2 * min_leaf) & (impurity != 0.0)
            searched = np.flatnonzero(is_searched)
            feature, threshold, gain = np.zeros(m, dtype=np.intp), np.zeros(m), np.zeros(m)  # set below at splits
            self.levels.append((tree, feature, threshold, value, sizes, gain))
            if depth >= max_depth or searched.size == 0 or d == 0:
                break
            rows = rows[np.repeat(is_searched, sizes)]
            split = np.zeros(searched.size, dtype=bool)
            lead = np.zeros((m, d), dtype=bool) if self.resumable else None
            scan_at, scan_rows = slice(None), rows  # which searched nodes are scanned, and their samples
            if twins is not None:
                kept, old_feature, old_threshold, old_gain, old_split, old_lead = regrow[depth - start]
                twin = twins[searched]
                copied = twin >= 0
                copied[copied] = kept[twin[copied]]
                twin[~copied] = -1
                nodes, twin_kept = searched[copied], twin[copied]
                feature[nodes], threshold[nodes], gain[nodes] = (old_feature[twin_kept], old_threshold[twin_kept],
                                                                 old_gain[twin_kept])
                split[copied] = old_split[twin_kept]
                if old_lead is not None:
                    lead[nodes] = old_lead[twin_kept]
                scan_at = np.flatnonzero(~copied)
                scan_rows = rows[np.repeat(~copied, sizes[searched])]
            scan = searched[scan_at]
            if scan.size:
                if k < d:
                    counts = np.bincount(tree[scan], minlength=n_trees).tolist()
                    keys = np.concatenate([g.random((c, d)) for g, c in zip(streams, counts) if c])
                    drawn = np.sort(np.argsort(keys, axis=1, kind="stable")[:, :k], axis=1)
                else:
                    drawn = np.broadcast_to(np.arange(d), (scan.size, d))
                pair_cost, pair_threshold = pair_costs(scan_rows, sizes[scan], ones[scan], drawn, columns, min_leaf)
                leads = leaders(pair_cost)
                cost, best, cut = pick_features(pair_cost, pair_threshold, drawn, leads)
                found = np.isfinite(cost)
                split[scan_at] = found
                nodes = scan[found]
                feature[nodes], threshold[nodes] = best[found], cut[found]
                gain[nodes] = sizes[nodes] * np.maximum(impurity[nodes] - cost[found], 0.0)
                if lead is not None:
                    lead[scan[:, None], drawn] = leads
            if not split.any():
                break
            parents = searched[split]
            self.links.append((count + parents, count + m + 2 * np.arange(parents.size)))
            count += m
            self.fronts.append((np.repeat(tree[parents], 2),
                                *_partition(X, y, rows[np.repeat(split, sizes[searched])], sizes[parents],
                                            feature[parents], threshold[parents])))
            if lead is not None:
                self.node_leads.append(lead)
            if twins is not None and depth + 1 - start < len(regrow):
                # a parent that kept its choice has its old children: the 2r-th and next of the old level below,
                # for the parent's rank r among the old level's split nodes
                old = twin[split]
                rank = np.cumsum(old_split) - 1
                twins = np.where(old[:, None] >= 0, 2 * rank[old][:, None] + np.arange(2), -1).ravel()
            else:
                twins = None
        self.grown = True

    def drop(self, column: int) -> None:
        """Forget ``column`` of a resumable growth's matrix, whose later columns each move down one.

        The trees must draw no features (k equal to d).  Only a feature
        that led some node's choice can change that choice when it goes,
        and with it the samples of every node below.  So every other node
        keeps its choice, partition, gain and node id, and the next
        :meth:`grow` rescans only the nodes ``column`` led and the subtrees
        under them; a column that never led leaves the trees grown.
        """
        old, offset = [], 0  # every old level, grown or still to regrow, as :attr:`regrow` holds them
        for j, (tree, feature, threshold, _, _, gain) in enumerate(self.levels):
            split, lead = np.zeros(tree.size, dtype=bool), None
            if j < len(self.links):
                split[self.links[j][0] - offset] = True
                lead = self.node_leads[j]
            old.append((np.ones(tree.size, dtype=bool), feature, threshold, gain, split, lead))
            offset += tree.size
        levels = []  # only a node with a kept parent can keep its choice, and grow() looks no further
        for kept, feature, threshold, gain, split, lead in old + self.regrow:
            if lead is not None:
                kept = kept & ~lead[:, column]
                lead = np.delete(lead, column, axis=1)
            feature[feature > column] -= 1
            levels.append((kept, feature, threshold, gain, split, lead))
        first = next((j for j, level in enumerate(levels) if not level[0].all()), len(levels))
        self.node_leads = [level[5] for level in levels[:min(first, len(self.links))]]
        if first < len(levels):
            del self.levels[first:], self.links[first:], self.fronts[first + 1:]
            self.regrow = levels[first:]
            self.grown = False

    def trees(self, d: int) -> list[tuple[FlatTree, np.ndarray]]:
        """One preorder ``(FlatTree, gains)`` pair per tree.

        ``gains`` holds each of the d features' impurity decrease times node
        size, summed in preorder.
        """
        return [(flat, np.bincount(flat.feature, weights=gain, minlength=d))
                for flat, gain in _preorder(self.levels, self.links, self.n_trees)]


def _int_type(bound: int):
    """The narrower of int32 and int64 that holds every value below ``bound`` (int32 sorts faster)."""
    return np.int32 if bound < 2**31 else np.int64


def pair_costs(rows, sizes, ones, drawn, columns, min_leaf: int):
    """Each (node, drawn feature) pair's first cheapest split, as (nodes x slots) ``(cost, threshold)`` arrays.

    ``rows`` holds the samples of every node (duplicates included), node
    after node; node i has ``sizes[i]`` samples, ``ones[i]`` of them
    positive, and draws the ascending features ``drawn[i]``.  ``columns`` is
    :func:`code_columns` of the training data.  A pair without a valid
    boundary costs ``inf``.  Each sort costs at most ``_PAIR_BLOCK``
    (feature, sample) pairs: whole nodes at once, or a lone larger node a
    slice of its drawn features at a time.
    """
    n_nodes, k = drawn.shape
    pair_cost, pair_threshold = np.full((n_nodes, k), np.inf), np.zeros((n_nodes, k))
    ends = np.cumsum(sizes)
    start = 0
    while start < n_nodes:
        first = ends[start] - sizes[start]
        stop = max(start + 1, int(np.searchsorted(ends, first + _PAIR_BLOCK // k, side="right")))
        width = min(k, max(1, _PAIR_BLOCK // int(ends[stop - 1] - first)))  # k unless one node exceeds a block
        for slot in range(0, k, width):
            found = _cost_pairs(rows[first:ends[stop - 1]], sizes[start:stop], ones[start:stop],
                                drawn[start:stop, slot:slot + width], columns, min_leaf)
            if found is not None:
                node, slots, costs, thresholds = found
                pair_cost[start + node, slot + slots], pair_threshold[start + node, slot + slots] = costs, thresholds
        start = stop
    return pair_cost, pair_threshold


def leaders(pair_cost) -> np.ndarray:
    """Which slots lead each node's choice, as a (nodes x slots) mask of the ``pair_cost`` array.

    In slot order the first finite cost leads, then each one cheaper than
    the last leader by more than 1e-15, and the node picks its last leader.
    A feature that never leads changes no pick: without it, every node's
    leaders, and so its pick, stay as they are.
    """
    best = np.minimum.accumulate(pair_cost, axis=1)[:, :-1]
    leads = pair_cost < np.inf
    leads[:, 1:] = pair_cost[:, 1:] < best
    # without the margin, a feature cheaper than all before leads; nodes where the margin refuses one take the loop
    for node in np.flatnonzero((leads[:, 1:] & ~(pair_cost[:, 1:] < best - 1e-15)).any(axis=1)).tolist():
        cheapest = np.inf
        for at, cost in enumerate(pair_cost[node].tolist()):
            leads[node, at] = cost < cheapest - 1e-15
            if leads[node, at]:
                cheapest = cost
    return leads


def pick_features(pair_cost, pair_threshold, features, leads=None):
    """Each node's ``(cost, feature, threshold)`` from the cheapest split of each of its ascending ``features``.

    The (nodes x slots) arrays give each feature's cost (``inf`` without a split) and threshold.  In feature
    order only a feature cheaper than the best by more than 1e-15 replaces it, so near ties keep the lower
    index: each node takes its last of ``leads``, :func:`leaders` of ``pair_cost`` unless the caller has it.
    A node without a split gets cost ``inf``, feature 0 and threshold 0.0.
    """
    leads = leaders(pair_cost) if leads is None else leads
    nodes = np.arange(pair_cost.shape[0])
    slot = pair_cost.shape[1] - 1 - leads[:, ::-1].argmax(axis=1)  # a node with no leader reads an inf cost
    cost = pair_cost[nodes, slot]
    split = np.isfinite(cost)
    return cost, np.where(split, features[nodes, slot], 0), np.where(split, pair_threshold[nodes, slot], 0.0)


def first_minima(group, costs):
    """Positions of each group's first cheapest entry, for ``group`` ids ascending along ``costs``."""
    heads = np.flatnonzero(np.concatenate([[True], group[1:] != group[:-1]]))
    lowest = np.repeat(np.minimum.reduceat(costs, heads), np.diff(np.append(heads, costs.size)))
    hits = np.flatnonzero(costs == lowest)
    return hits[np.concatenate([[True], group[hits[1:]] != group[hits[:-1]]])]


def _cost_pairs(rows, sizes, ones, drawn, columns, min_leaf):
    """Each (node, drawn feature) pair's first cheapest split, as ``(node, slot, cost, threshold)`` arrays.

    Pairs without a valid boundary are left out; None when no pair has one.
    """
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
    ends = np.flatnonzero(np.append(keys[1:] != keys[:-1], True))  # each run of equal keys' last position
    run = keys[ends]
    positives = np.cumsum((run & 1) * np.diff(ends, prepend=-1))  # positive samples up to each run's end
    group = run >> 1  # each run's (pair, code)
    last = np.flatnonzero(group[1:] != group[:-1])  # each group's last run, but the final group's
    at = group[last] // span  # the pair left of each boundary
    left_n = ends[last] + 1 - pair_start[at]
    right_n = pair_size[at] - left_n
    valid = np.flatnonzero((left_n >= max(min_leaf, 1)) & (right_n >= max(min_leaf, 1)))
    if valid.size == 0:
        return None
    last, at, left_n, right_n = last[valid], at[valid], left_n[valid], right_n[valid]
    pair_ones = np.repeat(ones, k)  # each pair sees all its node's samples
    left_ones = positives[last] - (np.cumsum(pair_ones) - pair_ones)[at]
    right_ones = pair_ones[at] - left_ones
    costs = gini_cost(left_n.astype(float), right_n.astype(float), left_ones.astype(float),
                      right_ones.astype(float), pair_size[at])
    hits = first_minima(at, costs)  # each pair's first (lowest threshold) minimum
    node, slot = np.divmod(at[hits], k)
    below, above = group[last[hits]] - at[hits] * span, group[last[hits] + 1] - at[hits] * span  # codes either side
    column = offsets[drawn[node, slot]]
    return node, slot, costs[hits], midpoint(distinct[column + below], distinct[column + above])


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


class DecisionTree:
    def __init__(self, max_depth=12, min_leaf=2, max_features=None):
        self.max_depth = int(max_depth)
        self.min_leaf = int(min_leaf)
        self.max_features = max_features
        self.flat: FlatTree | None = None
        self.n_features = 0
        self.importances: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray, rng: np.random.Generator | None = None):
        """Grow on every row, drawing ``max_features`` per node as a one-tree forest without bootstrap does.

        A tree that draws fewer than all the features needs ``rng`` (FitError
        without one); a tree that scans them all draws nothing from it.
        """
        X = np.ascontiguousarray(X, dtype=float)
        y = np.asarray(y, dtype=np.intp)
        n, d = X.shape
        k = feature_count(self.max_features, d)
        if k < d and rng is None:
            raise FitError(f"max_features={self.max_features!r} draws {k} of {d} features per node, "
                           "which needs an rng")
        streams = tree_streams(rng, 1) if k < d else [None]
        [(self.flat, self.importances)] = grow_trees(X, y, code_columns(X, y), np.arange(n), streams, k,
                                                     self.max_depth, self.min_leaf)
        self.n_features = d
        return self

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
