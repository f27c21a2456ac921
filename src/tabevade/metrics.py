"""Detection metrics: recall, attack success rate, and AUPRC."""
from __future__ import annotations

import numpy as np

from .errors import MetricError
from .models import Model, predict


def recall(model: Model, X, y) -> float:
    """Fraction of actual positives the model labels positive."""
    return label_recall(predict(model, X), y)


def label_recall(labels, y) -> float:
    """Fraction of actual positives among the rows ``labels`` marks 1."""
    y = np.asarray(y, dtype=int)
    positives = int((y == 1).sum())
    if positives == 0:
        raise MetricError("recall is undefined without positive samples")
    return float(((labels == 1) & (y == 1)).sum() / positives)


def success_rate(baseline_recall: float, attack_recall: float) -> float:
    """Fractional drop in recall caused by the attack.

    Negative when the perturbation accidentally improves detection.
    """
    if baseline_recall <= 0.0:
        raise MetricError("success rate is undefined when the baseline recall is 0")
    return (baseline_recall - attack_recall) / baseline_recall


def auprc(scores, y) -> float:
    """Area under the precision-recall step curve.

    Computed by a descending-score sweep over tied groups with step (not
    linear) interpolation: area = sum over thresholds of
    (recall_k - recall_{k-1}) * precision_k.
    """
    scores = np.asarray(scores, dtype=float)
    y = np.asarray(y, dtype=int)
    if scores.shape != y.shape or scores.ndim != 1:
        raise MetricError("scores and labels must be matching 1-D vectors")
    positives = int((y == 1).sum())
    if positives == 0 or positives == y.size:
        raise MetricError("AUPRC needs both classes present")
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_y = y[order]
    # threshold group boundaries: last index of each tied score block
    block_end = np.flatnonzero(np.diff(sorted_scores) != 0.0)
    block_end = np.append(block_end, sorted_y.size - 1)
    tp = np.cumsum(sorted_y)[block_end].astype(float)
    taken = block_end + 1.0
    precision = tp / taken
    rec = tp / positives
    prev = np.concatenate(([0.0], rec[:-1]))
    return float(np.sum((rec - prev) * precision))
