"""Mimicry perturbation of the top-ranked features toward the target class.

The attack is one-shot and gradient-free.  Given a ranked feature list, a
per-feature direction (sign of target-class mean minus input-class mean)
and a budget epsilon, each of the n selected features moves by
(epsilon / n) * sum(scaled features) in its direction, clamped to the
scaled [0, 1] training range.  Discrete features round toward the original
value afterwards so the realized movement never exceeds the budget.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data import Dataset, FeatureSchema, ScalerState, fit_scaler, transform
from .errors import SelectionError, ShapeError
from .ranking import RANKING_METHODS, FeatureRanking, rank_features


@dataclass(frozen=True)
class DirectionVector:
    """Per-feature movement sign in {-1, 0, +1}.

    0 means the class means coincide or the schema rules the feature out
    (immutable features are pinned to 0 at construction).
    """

    signs: np.ndarray

    def __post_init__(self) -> None:
        signs = np.asarray(self.signs, dtype=np.int8)
        object.__setattr__(self, "signs", signs)
        if signs.ndim != 1 or not np.isin(signs, (-1, 0, 1)).all():
            raise ValueError("direction signs must be a 1-D vector over {-1, 0, +1}")
        signs.setflags(write=False)

    @property
    def n_features(self) -> int:
        return int(self.signs.size)


@dataclass(frozen=True)
class AttackConfig:
    """Attack strength knobs: how many features (n) and how hard (epsilon)."""

    n: int
    epsilon: float
    method: str = "gini_impurity"
    feature_mask: frozenset[int] | None = None
    onehot_consistency: bool = False

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        if not 0 <= self.epsilon < np.inf:  # NaN fails every comparison
            raise ValueError(f"epsilon must be a finite number >= 0, got {self.epsilon}")
        if self.method not in RANKING_METHODS:
            raise ValueError(f"unknown ranking method {self.method!r}")
        if self.feature_mask is not None:
            object.__setattr__(self, "feature_mask", frozenset(int(i) for i in self.feature_mask))


@dataclass(frozen=True)
class AttackPlan:
    """Everything a perturbation needs: ranking, direction, budget, scaler."""

    schema: FeatureSchema
    ranking: FeatureRanking
    direction: DirectionVector
    config: AttackConfig
    scaler: ScalerState

    def __post_init__(self) -> None:
        counts = {self.schema.n_features, self.ranking.n_features, self.direction.n_features, self.scaler.n_features}
        if len(counts) != 1:
            raise ShapeError(f"plan components disagree on feature count: {sorted(counts)}")

    @cached_property
    def _selection(self) -> tuple[list[int], np.ndarray]:
        """The selected columns and which of them are discrete, worked out at first use.

        A plan that selects too few features raises SelectionError on every
        use, since an exception is not cached.
        """
        selected = select_features(self)
        return selected, self.schema.discrete_mask()[selected]


def compute_direction(train: Dataset) -> DirectionVector:
    """Sign of (target-class mean - input-class mean) per feature.

    Positive means the input class must grow the feature to mimic the
    target class.  Immutable features get sign 0 so they can never be
    selected.
    """
    input_rows = train.rows_of_class(1)
    target_rows = train.rows_of_class(0)
    if input_rows.size == 0 or target_rows.size == 0:
        raise ValueError("direction needs both classes present in the training data")
    diff = train.X[target_rows].mean(axis=0) - train.X[input_rows].mean(axis=0)
    signs = np.sign(diff).astype(np.int8)
    signs[~train.schema.mutable_mask()] = 0
    return DirectionVector(signs=signs)


def eligible_features(order, n: int, schema: FeatureSchema, direction: DirectionVector, scaler: ScalerState,
                      feature_mask: frozenset[int] | None = None) -> list[int]:
    """The entries of ``order`` an attack may move, refusing with SelectionError when fewer than ``n``.

    Features drop out when their direction is 0, the schema marks them
    immutable, their training range is constant, or ``feature_mask``
    excludes them.
    """
    movable = (direction.signs != 0) & schema.mutable_mask() & ~scaler.constant_mask()
    eligible = [i for i in order if movable[i] and (feature_mask is None or i in feature_mask)]
    if len(eligible) < n:
        raise SelectionError(f"attack wants n={n} features but only {len(eligible)} are eligible")
    return eligible


def select_features(plan: AttackPlan) -> list[int]:
    """Top-n eligible entries of the ranking (see `eligible_features`)."""
    config = plan.config
    return eligible_features(plan.ranking.order, config.n, plan.schema, plan.direction, plan.scaler,
                             config.feature_mask)[: config.n]


def build_plan(train: Dataset, config: AttackConfig, seed: int = 0) -> AttackPlan:
    """Orient, fit the scaler and rank on the training data in one step.

    A config that cannot select ``config.n`` features (see `eligible_features`)
    is refused with SelectionError before the ranking runs.
    """
    direction, scaler = compute_direction(train), fit_scaler(train)
    eligible_features(range(train.n_features), config.n, train.schema, direction, scaler, config.feature_mask)
    return AttackPlan(train.schema, rank_features(train, config.method, seed=seed), direction, config, scaler)


def perturbations(X: np.ndarray, plan: AttackPlan, epsilons):
    """Each of ``epsilons``' perturbation of every row of a raw matrix, in turn, under ``plan`` with that budget.

    The plan's own epsilon is not used.  The samples are scaled, and the
    selection worked out, once for every epsilon; only one epsilon's rows
    are built at a time.  Unselected features stay bit-identical.  A row
    whose budget is not positive (zero epsilon, or a pathological negative
    scaled sum) comes back unchanged, and so does a selected value whose
    clamp lands back on the original.
    """
    selected, discrete = plan._selection
    config, scaler = plan.config, plan.scaler
    scaled = transform(X, scaler)
    total = scaled.sum(axis=1, keepdims=True)
    signs = plan.direction.signs[selected]
    before = scaled[:, selected]
    mins = scaler.mins[selected]
    span = scaler.maxs[selected] - mins
    original = X[:, selected]
    for epsilon in epsilons:
        delta = (epsilon / config.n) * total
        moved = np.minimum(np.maximum(before + delta * signs, 0.0), 1.0)
        raw = moved * span + mins
        # discrete features round toward the original: floor when growing, ceil when shrinking
        raw = np.where(discrete, np.floor(raw * signs) * signs, raw)
        live = delta > 0.0
        out = X.copy()
        out[:, selected] = np.where(live & (moved != before), raw, original)
        if config.onehot_consistency:
            # exactly one hot per touched group: the member with the highest scaled
            # value wins, the lowest index on ties; only rows that had a budget
            rows = np.flatnonzero(live)
            hot_scaled = transform(out[rows], scaler)
            for members in plan.schema.onehot_groups().values():
                if set(members).isdisjoint(selected):
                    continue
                hot = np.argmax(hot_scaled[:, members], axis=1)[:, None] == np.arange(len(members))
                out[np.ix_(rows, members)] = np.where(hot, scaler.maxs[members], scaler.mins[members])
        yield out


def perturb(x: np.ndarray, plan: AttackPlan) -> np.ndarray:
    """Perturb one raw sample vector; unselected features stay bit-identical."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size != plan.schema.n_features:
        raise ShapeError(f"sample must be a vector of {plan.schema.n_features} features")
    return next(perturbations(x[None], plan, [plan.config.epsilon]))[0]


def perturb_batch(samples: Dataset, plan: AttackPlan) -> np.ndarray:
    """Row-wise perturbation of an input-class-only dataset.

    Each row comes out exactly as :func:`perturb` would return it;
    already-misclassified rows are perturbed like any other.
    """
    if samples.n_rows and not np.all(samples.y == 1):
        raise ValueError("perturb_batch expects input-class rows only")
    if samples.n_features != plan.schema.n_features:
        raise ShapeError("sample columns do not match the plan's schema")
    return next(perturbations(samples.X, plan, [plan.config.epsilon]))
