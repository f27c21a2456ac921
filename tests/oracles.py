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
