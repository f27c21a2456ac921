import dataclasses

import numpy as np
import pytest
from oracles import perturb_reference

import tabevade.attack as attack
from tabevade.attack import (
    AttackConfig,
    AttackPlan,
    DirectionVector,
    build_plan,
    compute_direction,
    perturb,
    perturb_batch,
    perturbations,
    select_features,
)
from tabevade.data import Dataset, FeatureSchema, FeatureSpec, ScalerState, fit_scaler, transform
from tabevade.errors import SelectionError
from tabevade.ranking import FeatureRanking


def schema_of(kinds, mutable=None, groups=None):
    mutable = mutable or [True] * len(kinds)
    groups = groups or [None] * len(kinds)
    return FeatureSchema(
        features=tuple(
            FeatureSpec(f"f{j}", kinds[j], group=groups[j], mutable=mutable[j])
            for j in range(len(kinds))
        ),
        target_column="class",
        positive_class_label="1",
        negative_class_label="0",
    )


def manual_plan(kinds, order, signs, mins, maxs, n, epsilon, mask=None, mutable=None, groups=None, onehot_consistency=False):
    count = len(kinds)
    scores = np.zeros(count)
    for pos, j in enumerate(order):
        scores[j] = float(count - pos)
    return AttackPlan(
        schema=schema_of(kinds, mutable=mutable, groups=groups),
        ranking=FeatureRanking(order=tuple(order), scores=tuple(scores), method="gini_impurity"),
        direction=DirectionVector(signs=np.array(signs, dtype=np.int8)),
        config=AttackConfig(n=n, epsilon=epsilon, feature_mask=mask, onehot_consistency=onehot_consistency),
        scaler=ScalerState(mins=np.asarray(mins, dtype=float), maxs=np.asarray(maxs, dtype=float)),
    )


# ---------------------------------------------------------------------------
# direction

def two_class(X_pos, X_neg, kinds=None, mutable=None):
    X = np.vstack([X_pos, X_neg]).astype(float)
    y = np.array([1] * len(X_pos) + [0] * len(X_neg))
    kinds = kinds or ["continuous"] * X.shape[1]
    return Dataset(X=X, y=y, schema=schema_of(kinds, mutable=mutable))


def test_direction_points_toward_target_mean():
    # input-class mean 2, target-class mean 5: grow the feature to mimic
    ds = two_class([[2.0], [2.0]], [[5.0], [5.0]])
    assert compute_direction(ds).signs.tolist() == [1]


def test_direction_zero_on_equal_means():
    ds = two_class([[3.0], [5.0]], [[4.0], [4.0]])
    assert compute_direction(ds).signs.tolist() == [0]


def test_direction_signs_follow_class_means_per_feature():
    # href-like column: target mean higher -> +; dir-count-like: target lower -> -
    ds = two_class([[2.0, 9.0], [4.0, 7.0]], [[10.0, 1.0], [12.0, 3.0]])
    assert compute_direction(ds).signs.tolist() == [1, -1]


def test_direction_zeroes_immutable_features():
    ds = two_class([[2.0, 2.0]], [[5.0, 5.0]], mutable=[True, False])
    assert compute_direction(ds).signs.tolist() == [1, 0]


# ---------------------------------------------------------------------------
# selection

def test_select_top_n_prefix():
    plan = manual_plan(
        ["continuous"] * 4, order=[3, 1, 0, 2], signs=[1, 1, 1, 1],
        mins=[0] * 4, maxs=[1] * 4, n=2, epsilon=0.5,
    )
    assert select_features(plan) == [3, 1]


def test_select_skips_zero_direction():
    plan = manual_plan(
        ["continuous"] * 4, order=[3, 1, 0, 2], signs=[1, 0, 1, 1],
        mins=[0] * 4, maxs=[1] * 4, n=2, epsilon=0.5,
    )
    assert select_features(plan) == [3, 0]


def test_select_skips_immutable_and_constant_and_masked():
    plan = manual_plan(
        ["continuous"] * 5, order=[0, 1, 2, 3, 4], signs=[1, 1, 1, 1, 1],
        mins=[0, 0, 2, 0, 0], maxs=[1, 1, 2, 1, 1],  # feature 2 constant
        mutable=[True, False, True, True, True],      # feature 1 immutable
        mask=frozenset({0, 1, 2, 4}),                 # feature 3 masked out
        n=2, epsilon=0.5,
    )
    assert select_features(plan) == [0, 4]


def test_select_shortfall_error_names_counts():
    plan = manual_plan(
        ["continuous"] * 4, order=[0, 1, 2, 3], signs=[1, 1, 1, 0],
        mins=[0] * 4, maxs=[1] * 4, n=5, epsilon=0.5,
    )
    with pytest.raises(SelectionError, match="n=5.*3"):
        select_features(plan)


# ---------------------------------------------------------------------------
# perturb

def test_perturb_hand_traced_budget():
    # scaled x = [0.2, 0.4, 0.6], sum 1.2; eps=0.1, n=2 -> delta = 0.06
    plan = manual_plan(
        ["continuous"] * 3, order=[0, 1, 2], signs=[1, -1, 1],
        mins=[0, 0, 0], maxs=[1, 1, 1], n=2, epsilon=0.1,
    )
    out = perturb(np.array([0.2, 0.4, 0.6]), plan)
    assert out == pytest.approx([0.26, 0.34, 0.6])


def test_perturb_zero_epsilon_is_identity():
    plan = manual_plan(
        ["continuous", "discrete"], order=[0, 1], signs=[1, -1],
        mins=[0, 0], maxs=[1, 10], n=2, epsilon=0.0,
    )
    x = np.array([0.37, 7.0])
    out = perturb(x, plan)
    assert np.array_equal(out, x)


def test_perturb_discrete_rounds_toward_original():
    # raw 7 in range (0, 10): scaled 0.7 + delta 0.04 -> 0.74 -> 7.4 -> floor 7
    plan = manual_plan(
        ["discrete", "continuous"], order=[0, 1], signs=[1, 1],
        mins=[0, 0], maxs=[10, 1], n=1, epsilon=0.04,
    )
    out = perturb(np.array([7.0, 0.3]), plan)
    assert out[0] == 7.0
    assert out[1] == 0.3  # unselected stays put


def test_perturb_discrete_ceils_on_negative_direction():
    plan = manual_plan(
        ["discrete", "continuous"], order=[0, 1], signs=[-1, 1],
        mins=[0, 0], maxs=[10, 1], n=1, epsilon=0.04,
    )
    out = perturb(np.array([7.0, 0.3]), plan)
    # 0.7 - 0.04 -> 0.66 -> 6.6 -> ceil 7
    assert out[0] == 7.0


def test_perturb_discrete_moves_when_delta_is_large_enough():
    plan = manual_plan(
        ["discrete", "continuous"], order=[0, 1], signs=[1, 1],
        mins=[0, 0], maxs=[10, 1], n=1, epsilon=1.5,
    )
    out = perturb(np.array([7.0, 0.5]), plan)
    # delta = 1.5 * 1.2 = 1.8 -> clamp to 1.0 -> raw 10
    assert out[0] == 10.0


def test_perturb_clamps_to_unit_range():
    plan = manual_plan(
        ["continuous"] * 2, order=[0, 1], signs=[1, -1],
        mins=[0, 0], maxs=[1, 1], n=2, epsilon=10.0,
    )
    out = perturb(np.array([0.5, 0.5]), plan)
    assert out.tolist() == [1.0, 0.0]


# ---------------------------------------------------------------------------
# batch

def random_plan_and_rows(seed, n_rows=100):
    rng = np.random.default_rng(seed)
    kinds = ["continuous", "discrete", "continuous", "discrete", "continuous"]
    train = rng.random((30, 5)) * 10
    train[:, 1] = rng.integers(0, 12, size=30)
    train[:, 3] = rng.integers(-4, 5, size=30)
    mins, maxs = train.min(axis=0), train.max(axis=0)
    signs = rng.choice([-1, 1], size=5)
    order = list(rng.permutation(5))
    plan = manual_plan(
        kinds, order=order, signs=signs, mins=mins, maxs=maxs,
        n=int(rng.integers(1, 5)), epsilon=float(rng.random() * 2),
    )
    rows = mins + rng.random((n_rows, 5)) * (maxs - mins)
    rows[:, 1] = np.floor(rows[:, 1])
    rows[:, 3] = np.floor(rows[:, 3])
    return plan, rows


def test_batch_equals_per_row_perturb():
    plan, rows = random_plan_and_rows(seed=2)
    ds = Dataset(
        X=rows, y=np.ones(len(rows), dtype=int),
        schema=plan.schema,
    )
    batch = perturb_batch(ds, plan)
    for k in range(len(rows)):
        assert np.array_equal(batch[k], perturb(rows[k], plan)), f"row {k}"


def test_batch_equals_per_row_perturb_outside_training_range():
    # test-time rows can scale past [0, 1]; both paths must agree there too
    plan, rows = random_plan_and_rows(seed=3)
    rows = rows.copy()
    rows[::2] += 30.0  # push half the rows far above every training max
    rows[1::2] -= 30.0
    for j, spec in enumerate(plan.schema.features):
        if spec.is_discrete:
            rows[:, j] = np.floor(rows[:, j])
    for epsilon in (0.0, 0.7):
        cfg = AttackConfig(n=plan.config.n, epsilon=epsilon)
        p = AttackPlan(schema=plan.schema, ranking=plan.ranking,
                       direction=plan.direction, config=cfg, scaler=plan.scaler)
        ds = Dataset(X=rows, y=np.ones(len(rows), dtype=int), schema=p.schema)
        batch = perturb_batch(ds, p)
        for k in range(len(rows)):
            assert np.array_equal(batch[k], perturb(rows[k], p)), (epsilon, k)


def test_batch_identical_rows_identical_outputs():
    plan, rows = random_plan_and_rows(seed=5, n_rows=1)
    duplicated = np.vstack([rows[0], rows[0]])
    ds = Dataset(X=duplicated, y=np.ones(2, dtype=int), schema=plan.schema)
    batch = perturb_batch(ds, plan)
    assert np.array_equal(batch[0], batch[1])


def test_batch_zero_epsilon_unchanged():
    plan, rows = random_plan_and_rows(seed=8)
    plan = AttackPlan(
        schema=plan.schema, ranking=plan.ranking, direction=plan.direction,
        config=AttackConfig(n=plan.config.n, epsilon=0.0), scaler=plan.scaler,
    )
    ds = Dataset(X=rows, y=np.ones(len(rows), dtype=int), schema=plan.schema)
    assert np.array_equal(perturb_batch(ds, plan), rows)


def test_batch_rejects_target_class_rows():
    plan, rows = random_plan_and_rows(seed=9, n_rows=4)
    ds = Dataset(X=rows, y=np.array([1, 1, 0, 1]), schema=plan.schema)
    with pytest.raises(ValueError, match="input-class"):
        perturb_batch(ds, plan)


# ---------------------------------------------------------------------------
# invariants (the acceptance suite re-runs these at 1000 samples)

def check_invariants(plan, x):
    selected = select_features(plan)
    out = perturb(x, plan)
    xs = transform(x, plan.scaler)
    outs = transform(out, plan.scaler)
    signs = plan.direction.signs
    discrete = plan.schema.discrete_mask()
    budget = plan.config.epsilon * xs.sum() + 1e-9

    moved = sum(abs(outs[i] - xs[i]) for i in selected if not discrete[i])
    assert moved <= budget, "continuous movement exceeded the budget"
    for i in selected:
        assert (outs[i] - xs[i]) * signs[i] >= -1e-12, "moved against the direction"
        assert plan.scaler.mins[i] - 1e-9 <= out[i] <= plan.scaler.maxs[i] + 1e-9, "left the training range"
        if discrete[i]:
            assert out[i] == np.floor(out[i]), "discrete feature became fractional"
    untouched = [i for i in range(x.size) if i not in selected]
    assert np.array_equal(out[untouched], x[untouched]), "unselected feature changed"


@pytest.mark.parametrize("seed", range(25))
def test_perturbation_invariants(seed):
    plan, rows = random_plan_and_rows(seed=seed, n_rows=8)
    for x in rows:
        check_invariants(plan, x)


def test_monotone_mimicry_under_huge_epsilon():
    plan, rows = random_plan_and_rows(seed=13, n_rows=5)
    plan = AttackPlan(
        schema=plan.schema, ranking=plan.ranking, direction=plan.direction,
        config=AttackConfig(n=plan.config.n, epsilon=500.0), scaler=plan.scaler,
    )
    selected = select_features(plan)
    for x in rows:
        out = perturb(x, plan)
        for i in selected:
            target = plan.scaler.maxs[i] if plan.direction.signs[i] > 0 else plan.scaler.mins[i]
            assert out[i] == pytest.approx(target)


# ---------------------------------------------------------------------------
# one-hot handling

def onehot_plan(onehot_consistency):
    kinds = ["onehot", "onehot", "continuous"]
    groups = ["g", "g", None]
    return manual_plan(
        kinds, order=[0, 1, 2], signs=[1, -1, 1],
        mins=[0, 0, 0], maxs=[1, 1, 1], n=1, epsilon=3.0,
        groups=groups, onehot_consistency=onehot_consistency,
    )


def test_onehot_columns_perturb_independently_by_default():
    plan = onehot_plan(onehot_consistency=False)
    out = perturb(np.array([0.0, 1.0, 0.5]), plan)
    # the selected member flips to 1; its group mate is left inconsistent
    assert out[0] == 1.0 and out[1] == 1.0


def test_onehot_consistency_toggle_renormalizes_group():
    plan = onehot_plan(onehot_consistency=True)
    out = perturb(np.array([0.0, 1.0, 0.5]), plan)
    assert out[0] == 1.0 and out[1] == 0.0


# ---------------------------------------------------------------------------
# build_plan end to end

def test_build_plan_components_agree():
    rng = np.random.default_rng(1)
    X = rng.random((60, 4))
    y = np.array([0, 1] * 30)
    X[y == 0, 2] += 1.0
    ds = Dataset(X=X, y=y, schema=schema_of(["continuous"] * 4))
    plan = build_plan(ds, AttackConfig(n=2, epsilon=0.5), seed=0)
    assert plan.ranking.n_features == 4
    assert plan.direction.signs[2] == 1  # target mean above input mean
    out = perturb(X[0], plan)
    assert out.shape == (4,)


# ---------------------------------------------------------------------------
# scalar reference

ORACLE_KINDS = ["continuous", "discrete", "onehot", "onehot", "onehot", "continuous", "onehot", "onehot", "discrete"]
ORACLE_GROUPS = [None, None, "a", "a", "a", None, "b", "b", None]


def one_hot_rows(rng, n_rows, kinds=ORACLE_KINDS, groups=ORACLE_GROUPS):
    """Rows whose one-hot groups each hold exactly one 1, at a random member."""
    X = np.zeros((n_rows, len(kinds)))
    for group in {g for g in groups if g is not None}:
        members = [j for j, g in enumerate(groups) if g == group]
        X[np.arange(n_rows), rng.choice(members, size=n_rows)] = 1.0
    return X


def oracle_plan_and_rows(seed, n_rows=40):
    rng = np.random.default_rng(seed)
    count = len(ORACLE_KINDS)
    numeric = [j for j, kind in enumerate(ORACLE_KINDS) if kind != "onehot"]
    discrete = [j for j, kind in enumerate(ORACLE_KINDS) if kind == "discrete"]
    train = one_hot_rows(rng, 30)
    train[:, numeric] = rng.random((30, len(numeric))) * 10 - 3
    train[:, discrete] = np.floor(train[:, discrete])
    if rng.random() < 0.3:
        train[:, 0] = 4.0  # a constant column is never selected
    mins, maxs = train.min(axis=0), train.max(axis=0)
    signs = rng.choice([-1, 0, 1], size=count, p=[0.45, 0.1, 0.45])
    mask = None if rng.random() < 0.6 else frozenset(int(j) for j in rng.permutation(count)[:6])
    eligible = [j for j in range(count)
                if signs[j] != 0 and maxs[j] > mins[j] and (mask is None or j in mask)]
    if not eligible:
        return oracle_plan_and_rows(seed + 1000, n_rows)
    epsilon = float(rng.choice([0.0, rng.random() * 2, 0.05, 1e6]))
    plan = manual_plan(
        ORACLE_KINDS, order=list(rng.permutation(count)), signs=signs, mins=mins, maxs=maxs,
        n=int(rng.integers(1, len(eligible) + 1)), epsilon=epsilon, mask=mask,
        groups=ORACLE_GROUPS, onehot_consistency=bool(rng.integers(2)),
    )
    rows = one_hot_rows(rng, n_rows)
    span = maxs[numeric] - mins[numeric]
    # a third of each numeric column lies below the training range, a third above it
    rows[:, numeric] = mins[numeric] + (rng.random((n_rows, len(numeric))) * 3 - 1) * span
    rows[:, discrete] = np.floor(rows[:, discrete])
    return plan, rows


@pytest.mark.parametrize("seed", range(40))
def test_perturb_and_batch_match_the_scalar_reference(seed):
    plan, rows = oracle_plan_and_rows(seed)
    expected = np.array([perturb_reference(x, plan, select_features(plan)) for x in rows])
    batch = perturb_batch(Dataset(X=rows, y=np.ones(len(rows), dtype=int), schema=plan.schema), plan)
    assert np.array_equal(batch, expected)
    for x, want in zip(rows, expected):
        assert np.array_equal(perturb(x, plan), want)


@pytest.mark.parametrize("seed", range(20))
def test_perturbations_give_each_epsilon_the_bytes_of_its_own_plans_batch(seed):
    plan, rows = oracle_plan_and_rows(seed)
    samples = Dataset(X=rows, y=np.ones(len(rows), dtype=int), schema=plan.schema)
    epsilons = [0.0, 0.05, 0.3, 1.7, 1e6]
    for epsilon, out in zip(epsilons, perturbations(rows, plan, epsilons), strict=True):
        own = dataclasses.replace(plan, config=dataclasses.replace(plan.config, epsilon=epsilon))
        assert out.tobytes() == perturb_batch(samples, own).tobytes(), epsilon


def test_zero_budget_leaves_an_unseen_category_alone():
    # training never saw the last member hot, so every member scales to 0 and
    # a consistency pass would move the hot bit to the first member
    plan = manual_plan(
        ["onehot", "onehot", "onehot", "continuous"], order=[0, 1, 2, 3], signs=[1, -1, 0, 1],
        mins=[0, 0, 0, 0], maxs=[1, 1, 0, 1], n=1, epsilon=0.0,
        groups=["g", "g", "g", None], onehot_consistency=True,
    )
    row = np.array([0.0, 0.0, 1.0, 0.4])
    assert perturb(row, plan).tobytes() == row.tobytes()
    batch = perturb_batch(Dataset(X=row[None], y=np.ones(1, dtype=int), schema=plan.schema), plan)
    assert batch.tobytes() == row[None].tobytes()


# ---------------------------------------------------------------------------
# the plan's selection

def test_a_plan_selects_its_features_once(monkeypatch):
    calls = []

    def counting(plan):
        calls.append(plan)
        return select_features(plan)

    monkeypatch.setattr(attack, "select_features", counting)
    plan, rows = random_plan_and_rows(seed=3, n_rows=50)
    for row in rows:
        perturb(row, plan)
    perturb_batch(Dataset(X=rows, y=np.ones(len(rows), dtype=int), schema=plan.schema), plan)
    assert len(calls) == 1 and calls[0] is plan


def test_a_plan_that_selects_too_few_features_refuses_every_perturb():
    plan = manual_plan(
        ["continuous"] * 4, order=[0, 1, 2, 3], signs=[1, 1, 1, 0],
        mins=[0] * 4, maxs=[1] * 4, n=5, epsilon=0.5,
    )
    for _ in range(3):
        with pytest.raises(SelectionError, match="n=5.*3"):
            perturb(np.array([0.1, 0.2, 0.3, 0.4]), plan)
