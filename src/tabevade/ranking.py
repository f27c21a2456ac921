"""Feature-importance ranking methods that pick the attack's targets.

Five methods are supported: info_gain_ratio, gini_impurity, permutation,
rfe and ffs.  All produce a full permutation of feature indices, best
first.  Ties always break toward the lower feature index.  Split-based
scores (gini, information gain) search thresholds at midpoints between
consecutive distinct sorted values; one-hot columns reduce to the single
membership split.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import models as models_mod
from .data import Dataset, fit_scaler, split, transform
from .errors import RankingError
from .metrics import label_recall
from .models import Model, logistic, tree

RANKING_METHODS = ("info_gain_ratio", "gini_impurity", "permutation", "rfe", "ffs")

# ffs fits a step's candidates of one table size in stacks of at most this many (candidate, row, column)
# elements; padding each table to its own size keeps a candidate's bits whatever its stack-mates
_FFS_BLOCK = 1 << 14


@dataclass(frozen=True)
class FeatureRanking:
    """Ranked feature indices (best first) with per-feature scores."""

    order: tuple[int, ...]
    scores: tuple[float, ...]
    method: str

    def __post_init__(self) -> None:
        n = len(self.scores)
        if sorted(self.order) != list(range(n)):
            raise RankingError("ranking order must be a permutation of all feature indices")
        along = [self.scores[i] for i in self.order]
        if any(along[k] < along[k + 1] - 1e-12 for k in range(n - 1)):
            raise RankingError("scores must be non-increasing along the ranking order")

    @property
    def n_features(self) -> int:
        return len(self.scores)


def _class_arrays(train: Dataset) -> tuple[np.ndarray, np.ndarray]:
    y = train.y
    if np.unique(y).size < 2:
        raise RankingError("ranking needs both classes present")
    return train.X, y


def _gini(y: np.ndarray) -> float:
    p = np.bincount(y, minlength=2) / y.size
    return float(1.0 - np.sum(p * p))


def _entropy(y: np.ndarray) -> float:
    p = np.bincount(y, minlength=2) / y.size
    p = p[p > 0]
    return float(-np.sum(p * np.log2(p)))


def _boundaries(train: Dataset, feature_index: int):
    """Labels, and ``(left_n, right_n, left_ones, right_ones)`` at every
    distinct-value boundary of one feature (whole numbers, as floats, from
    its rows and positives per value code, cumulated), or None without one."""
    X, y = _class_arrays(train)
    codes = tree.code_values(X[:, [feature_index]])[0][:, 0]
    rows = np.bincount(codes)
    if rows.size < 2:
        return y, None
    left_n = np.cumsum(rows[:-1]).astype(float)
    left_ones = np.cumsum(np.bincount(codes, weights=y)[:-1])
    return y, (left_n, y.size - left_n, left_ones, float(y.sum()) - left_ones)


def _gini_vec(ones: np.ndarray, totals: np.ndarray) -> np.ndarray:
    p = ones / totals
    return 1.0 - p * p - (1.0 - p) ** 2


def _entropy_vec(ones: np.ndarray, totals: np.ndarray) -> np.ndarray:
    p = ones / totals
    q = 1.0 - p
    out = np.zeros_like(p)
    nz = p > 0
    out[nz] -= p[nz] * np.log2(p[nz])
    nz = q > 0
    out[nz] -= q[nz] * np.log2(q[nz])
    return out


def _conditional_entropy(left_n, right_n, left_ones, right_ones, n: int) -> np.ndarray:
    return (left_n * _entropy_vec(left_ones, left_n) + right_n * _entropy_vec(right_ones, right_n)) / n


def gini_gain(train: Dataset, feature_index: int) -> float:
    """Parent Gini impurity minus the best split's weighted child impurity."""
    y, scan = _boundaries(train, feature_index)
    if scan is None:
        return 0.0
    left_n, right_n, left_ones, right_ones = scan
    weighted = (left_n * _gini_vec(left_ones, left_n) + right_n * _gini_vec(right_ones, right_n)) / y.size
    return max(_gini(y) - float(weighted.min()), 0.0)


def info_gain(train: Dataset, feature_index: int) -> float:
    """Raw information gain (bits) of the best binary split."""
    y, scan = _boundaries(train, feature_index)
    if scan is None:
        return 0.0
    left_n, right_n, left_ones, right_ones = scan
    conditional = _conditional_entropy(left_n, right_n, left_ones, right_ones, y.size)
    return max(_entropy(y) - float(conditional.min()), 0.0)


def info_gain_ratio(train: Dataset, feature_index: int) -> float:
    """Information gain over split entropy at the max-gain threshold.

    The split is chosen by raw gain (first/lowest threshold on ties), then
    normalized; ranking degenerate near-empty splits by their ratio would
    let noise features score arbitrarily high.
    """
    y, scan = _boundaries(train, feature_index)
    if scan is None:
        return 0.0
    left_n, right_n, left_ones, right_ones = scan
    n = y.size
    gains = _entropy(y) - _conditional_entropy(left_n, right_n, left_ones, right_ones, n)
    best = int(np.argmax(gains))
    split_entropy = float(_entropy_vec(np.array([left_n[best]]), np.array([float(n)]))[0])
    return max(float(gains[best]) / split_entropy, 0.0)


def permutation_importance(
    train: Dataset,
    holdout: Dataset,
    probe_model: Model,
    repeats: int = 5,
    seed: int = 0,
) -> np.ndarray:
    """Per-feature mean drop in holdout recall over independent shuffles.

    Each shuffle permutes one column over all holdout rows, but only the
    holdout positives are predicted: recall reads no other row.  They are
    predicted once unshuffled, and each shuffle predicts only the positives
    whose value in the shuffled column changed.  Every model kind scores
    each row on its own, so the drops are those of predicting the whole
    shuffled holdout.
    """
    if not isinstance(probe_model, Model):
        raise RankingError("permutation importance needs a fitted probe model")
    if repeats < 1:
        raise RankingError("repeats must be positive")
    rng = np.random.default_rng(seed)
    pos = np.flatnonzero(holdout.y == 1)
    X_pos, y_pos = holdout.X[pos], holdout.y[pos]
    base_labels = models_mod.predict(probe_model, X_pos)
    base = label_recall(base_labels, y_pos)
    n = holdout.n_rows
    scores = np.zeros(holdout.n_features)
    for j in range(holdout.n_features):
        drops = 0.0
        for _ in range(repeats):
            column = holdout.X[rng.permutation(n)[pos], j]
            moved = np.flatnonzero(column != X_pos[:, j])
            if moved.size:
                shuffled = X_pos[moved]
                shuffled[:, j] = column[moved]
                labels = base_labels.copy()
                labels[moved] = models_mod.predict(probe_model, shuffled)
                drops += base - label_recall(labels, y_pos)
        scores[j] = drops / repeats
    return scores


def _by_score(scores, method: str) -> FeatureRanking:
    """Features ordered by descending score, ties toward the lower index."""
    scores = np.asarray(scores, dtype=float)
    order = tuple(sorted(range(scores.size), key=lambda j: (-scores[j], j)))
    return FeatureRanking(order=order, scores=tuple(scores), method=method)


def _by_position(order: list[int], method: str) -> FeatureRanking:
    """An ordinal ranking: each feature scores feature count minus position."""
    scores = np.zeros(len(order))
    scores[order] = len(order) - np.arange(len(order))
    return FeatureRanking(order=tuple(order), scores=tuple(scores), method=method)


def rfe_rank(train: Dataset, seed: int = 0) -> FeatureRanking:
    """Recursive elimination: repeatedly drop the least important feature.

    Importances come from a decision tree grown on the survivors
    (:func:`rfe_steps`).  The last survivor ranks first.  Among equally
    unimportant features the highest index is eliminated first, so the
    lower index wins the rank.  The tree draws nothing, so ``seed`` changes
    nothing.
    """
    X, y = _class_arrays(train)
    if X.shape[1] < 2:
        raise RankingError("RFE needs at least 2 features")
    eliminated = [worst for _, _, worst in rfe_steps(transform(X, fit_scaler(train)), y)]
    return _by_position(sorted(set(range(X.shape[1])) - set(eliminated)) + eliminated[::-1], "rfe")


def rfe_steps(Xs: np.ndarray, y: np.ndarray):
    """Each elimination step on the scaled matrix ``Xs``: its survivors, their tree and the feature it drops.

    Yields ``(remaining, FlatTree, worst)``.  Each step's tree is the one
    ``DecisionTree(**tree.DEFAULTS)`` grows on ``Xs[:, remaining]`` alone,
    its features numbered by position in ``remaining``, and ``worst`` is
    the survivor with the smallest importance.  The tree is not refitted:
    dropping a feature leaves every node that it did not lead, nor any
    node above, as it is, so only the subtrees under the nodes it led
    regrow (:meth:`tree.Growth.drop`), and a feature that led nowhere
    leaves the last tree.  Every growth reads the surviving columns of one
    coding of ``Xs``.
    """
    keyed, distinct, offsets, span = tree.code_columns(Xs, y)
    remaining = list(range(Xs.shape[1]))
    growth = tree.Growth(y, np.arange(y.size), 1, resumable=True)
    while len(remaining) > 1:
        if not growth.grown:
            # a bare tree on scaled columns: part of a one-hot group is no valid Dataset for models.fit.
            # take() keeps the rows contiguous, which each level's scan and partition read; Xs[:, remaining]
            # would come out column-major and be copied again at every level
            columns = (keyed.take(remaining, axis=1), distinct, offsets[remaining], span)
            growth.grow(Xs.take(remaining, axis=1), y, columns, [None], len(remaining), tree.DEFAULTS["max_depth"],
                        tree.DEFAULTS["min_leaf"])
        [(flat, gains)] = growth.trees(len(remaining))
        imps = tree.shares(gains)
        worst = max(range(len(remaining)), key=lambda k: (-imps[k], remaining[k]))
        yield list(remaining), flat, remaining[worst]
        growth.drop(worst)
        remaining.pop(worst)


def ffs_rank(train: Dataset, seed: int = 0) -> FeatureRanking:
    """Greedy forward selection by holdout recall of logistic regression.

    The holdout is a 75/25 stratified split of ``train``.  Starts from the
    empty model (recall 0); stops once the best candidate no longer improves
    recall, then appends the remaining features ordered by their last
    evaluated recall.

    Each candidate's logistic regression runs on the distinct rows of its
    columns, each weighted by the training rows it stands for
    (``logistic.descend`` with counts), so an epoch costs the distinct rows,
    not all of them.  A table is padded with rows of count 0 to the next
    power of two, or to the training rows' count if that is smaller.  A step
    fits its candidates of one table size together, in stacks of at most
    ``_FFS_BLOCK`` elements, and each gets the bits it would get alone.
    Grouped sums round differently, so the weights may differ from a lone
    ``LogisticRegression`` fit in their last bits.
    """
    _class_arrays(train)
    n_features = train.n_features
    if n_features < 2:
        raise RankingError("forward selection needs at least 2 features")
    train, holdout = split(train, 0.75, seed)
    scaler = fit_scaler(train)
    Xs = transform(train.X, scaler)
    codes, distinct, offsets, _ = tree.code_values(Xs)
    spans = np.diff(offsets, append=distinct.size)
    # feature-major: HsT[cols] viewed as (C, rows, k) is F order per slice, as each fit's table is
    HsT = np.ascontiguousarray(transform(holdout.X, scaler).T)
    y = train.y.astype(float)
    n = y.size
    positive = holdout.y == 1
    positives = int(positive.sum())

    def holdout_recalls(cols: np.ndarray, tables, size: int) -> np.ndarray:
        """Holdout recall of a logistic regression fitted on each row of ``cols``,
        over its table of ``(first, inverse)`` distinct rows padded to ``size``."""
        X = np.zeros((len(cols), cols.shape[1], size))  # each slice viewed as (size, k) in F order
        counts = np.zeros((len(cols), size))
        ones = np.zeros((len(cols), size))
        for c, (first, inverse) in enumerate(tables):
            X[c, :, :first.size] = Xs[np.ix_(first, cols[c])].T
            counts[c, :first.size] = np.bincount(inverse, minlength=first.size)
            ones[c, :first.size] = np.bincount(inverse, weights=y, minlength=first.size)
        w, b = logistic.descend(X.transpose(0, 2, 1), ones, **logistic.DEFAULTS, counts=counts)
        scores = logistic.sigmoid((HsT[cols].transpose(0, 2, 1) @ w[:, :, None])[:, :, 0] + b[:, None])
        return ((scores >= 0.5) & positive).sum(axis=1) / positives

    selected: list[int] = []
    joint = np.zeros(n, dtype=np.int64)  # one code per distinct row of the selected columns
    current = 0.0
    last_eval = np.zeros(n_features)
    while len(selected) < n_features:
        candidates = [j for j in range(n_features) if j not in selected]
        by_size: dict[int, list] = {}  # padded table size -> [(candidate, table)]
        for j in candidates:
            _, first, inverse = np.unique(joint * spans[j] + codes[:, j], return_index=True, return_inverse=True)
            size = min(1 << (first.size - 1).bit_length(), n)
            by_size.setdefault(size, []).append((j, (first, inverse)))
        for size, members in by_size.items():
            step = max(1, _FFS_BLOCK // ((len(selected) + 1) * size))
            for start in range(0, len(members), step):
                js, tables = zip(*members[start:start + step])
                cols = np.array([selected + [j] for j in js])
                last_eval[list(js)] = holdout_recalls(cols, tables, size)
        best_j = max(candidates, key=lambda j: last_eval[j])  # the lowest index among equal recalls
        if last_eval[best_j] - current <= 0.0:
            break
        selected.append(best_j)
        joint = np.unique(joint * spans[best_j] + codes[:, best_j], return_inverse=True)[1]
        current = last_eval[best_j]
    rest = [j for j in range(n_features) if j not in selected]
    rest.sort(key=lambda j: (-last_eval[j], j))
    return _by_position(selected + rest, "ffs")


_SPLIT_SCORES = {"gini_impurity": gini_gain, "info_gain_ratio": info_gain_ratio}


def rank_features(train: Dataset, method: str, seed: int = 0) -> FeatureRanking:
    """Rank all features with the named method, deterministically per seed.

    permutation shuffles each feature 5 times on a 75/25 stratified holdout
    of ``train`` and scores a random forest fitted on the rest.
    """
    if method not in RANKING_METHODS:
        raise RankingError(f"unknown ranking method {method!r}; choose from {RANKING_METHODS}")
    _class_arrays(train)
    if train.n_features < 2:
        raise RankingError("ranking needs at least 2 features")
    if method in _SPLIT_SCORES:
        return _by_score([_SPLIT_SCORES[method](train, j) for j in range(train.n_features)], method)
    if method == "permutation":
        fit_part, holdout = split(train, 0.75, seed)
        probe = models_mod.fit("random_forest", fit_part, seed=seed)
        return _by_score(permutation_importance(fit_part, holdout, probe, seed=seed), method)
    if method == "rfe":
        return rfe_rank(train, seed=seed)
    return ffs_rank(train, seed=seed)
