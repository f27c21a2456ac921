"""Independent brute-force oracles the main implementations are checked against.

Everything here is deliberately slow, loop-based pure Python so it shares
no code path with the vectorized implementations under test.
"""
from __future__ import annotations

import math


def gini(labels) -> float:
    if not labels:
        return 0.0
    p1 = sum(labels) / len(labels)
    return 1.0 - p1 * p1 - (1.0 - p1) ** 2


def entropy(labels) -> float:
    if not labels:
        return 0.0
    total = len(labels)
    out = 0.0
    for count in (sum(labels), total - sum(labels)):
        if count:
            p = count / total
            out -= p * math.log2(p)
    return out


def _thresholds(column) -> list[float]:
    vals = sorted(set(column))
    return [(a + b) / 2.0 for a, b in zip(vals, vals[1:])]


def brute_force_gini_gain(column, labels) -> float:
    """Max Gini gain over every candidate midpoint threshold."""
    parent = gini(list(labels))
    best = 0.0
    n = len(labels)
    for t in _thresholds(column):
        left = [y for c, y in zip(column, labels) if c < t]
        right = [y for c, y in zip(column, labels) if c >= t]
        weighted = (len(left) * gini(left) + len(right) * gini(right)) / n
        best = max(best, parent - weighted)
    return best


def brute_force_info_gain(column, labels) -> float:
    parent = entropy(list(labels))
    best = 0.0
    n = len(labels)
    for t in _thresholds(column):
        left = [y for c, y in zip(column, labels) if c < t]
        right = [y for c, y in zip(column, labels) if c >= t]
        gain = parent - (len(left) * entropy(left) + len(right) * entropy(right)) / n
        best = max(best, gain)
    return best


def brute_force_info_gain_ratio(column, labels) -> float:
    """Ratio at the max-gain threshold (lowest threshold wins gain ties)."""
    parent = entropy(list(labels))
    n = len(labels)
    best_gain = -1.0
    best_split = None
    for t in _thresholds(column):
        left = [y for c, y in zip(column, labels) if c < t]
        right = [y for c, y in zip(column, labels) if c >= t]
        gain = parent - (len(left) * entropy(left) + len(right) * entropy(right)) / n
        if gain > best_gain + 1e-15:
            best_gain = gain
            best_split = (len(left), len(right))
    if best_split is None:
        return 0.0
    split_entropy = 0.0
    for size in best_split:
        if size:
            p = size / n
            split_entropy -= p * math.log2(p)
    if split_entropy <= 0.0:
        return 0.0
    return max(best_gain / split_entropy, 0.0)


def brute_force_auprc(scores, labels) -> float:
    """Exhaustive threshold enumeration with step integration."""
    points = []
    positives = sum(labels)
    for t in sorted(set(scores), reverse=True):
        tp = sum(1 for s, y in zip(scores, labels) if s >= t and y == 1)
        fp = sum(1 for s, y in zip(scores, labels) if s >= t and y == 0)
        points.append((tp / positives, tp / (tp + fp)))
    area = 0.0
    prev_recall = 0.0
    for rec, prec in points:
        area += (rec - prev_recall) * prec
        prev_recall = rec
    return area


def confusion_recall(predictions, labels) -> float:
    tp = sum(1 for p, y in zip(predictions, labels) if p == 1 and y == 1)
    fn = sum(1 for p, y in zip(predictions, labels) if p == 0 and y == 1)
    return tp / (tp + fn)


def walk_flat_tree(tree: dict, row, root: int = 0) -> float:
    """Leaf value one row reaches in a flat tree (lists as in ``to_dict``).

    One node at a time: go left when ``row[feature] < threshold``, else
    right, so ties and NaN go right; a leaf points left at itself.
    """
    node = root
    while tree["left"][node] != node:
        if row[tree["feature"][node]] < tree["threshold"][node]:
            node = tree["left"][node]
        else:
            node = tree["right"][node]
    return tree["value"][node]


def split_costs(column, target, min_leaf: int, cost) -> list[tuple[float, float]]:
    """``(threshold, cost(left, right))`` at every midpoint leaving ``min_leaf`` rows per side."""
    out = []
    for t in _thresholds(column):
        left = [y for c, y in zip(column, target) if c < t]
        right = [y for c, y in zip(column, target) if c >= t]
        if len(left) >= min_leaf and len(right) >= min_leaf:
            out.append((t, cost(left, right)))
    return out


def weighted_gini(left, right) -> float:
    return (len(left) * gini(left) + len(right) * gini(right)) / (len(left) + len(right))


def squared_deviations(left, right) -> float:
    """Sum over both sides of each value's squared distance from its side's mean."""
    total = 0.0
    for side in (left, right):
        mean = sum(side) / len(side)
        total += sum((y - mean) ** 2 for y in side)
    return total


def perturb_reference(x, plan, selected) -> list[float]:
    """One raw sample perturbed one selected feature at a time.

    Each feature moves by (epsilon / n) * sum(scaled) in its direction,
    clamped to [0, 1] scaled, inverted, and rounded toward the original when
    discrete; a clamp landing on the original keeps the raw value, and a row
    without a positive budget is returned as is.  With one-hot consistency,
    every group holding a selected feature ends with exactly one hot member:
    the highest scaled value, the lowest index on ties.  Only the budget's
    sum goes through numpy, so that it adds in numpy's pairwise order.
    """
    import numpy as np

    mins = [float(v) for v in plan.scaler.mins]
    maxs = [float(v) for v in plan.scaler.maxs]

    def scale(values):
        return [0.0 if hi == lo else (v - lo) / (hi - lo) for v, lo, hi in zip(values, mins, maxs)]

    out = [float(v) for v in x]
    scaled = scale(out)
    delta = (plan.config.epsilon / plan.config.n) * float(np.sum(scaled))
    if delta <= 0.0:
        return out
    for i in selected:
        sign = int(plan.direction.signs[i])
        moved = min(max(scaled[i] + delta * sign, 0.0), 1.0)
        if moved == scaled[i]:
            continue
        raw = moved * (maxs[i] - mins[i]) + mins[i]
        if plan.schema.features[i].is_discrete:
            raw = float(math.floor(raw) if sign > 0 else math.ceil(raw))
        out[i] = raw
    if plan.config.onehot_consistency:
        scaled = scale(out)
        groups: dict = {}
        for i, spec in enumerate(plan.schema.features):
            if spec.kind == "onehot":
                groups.setdefault(spec.group, []).append(i)
        for members in groups.values():
            if not set(members) & set(selected):
                continue
            winner = max(members, key=lambda i: (scaled[i], -i))
            for i in members:
                out[i] = maxs[i] if i == winner else mins[i]
    return out
