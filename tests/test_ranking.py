import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    brute_force_gini_gain,
    brute_force_info_gain,
    brute_force_info_gain_ratio,
    ffs_rank_reference,
    permutation_importance_reference,
    rfe_reference,
)
import tabevade
import tabevade.models as models_module
import tabevade.ranking as ranking_module
from tabevade.data import Dataset, FeatureSchema, FeatureSpec, fit_scaler, split, transform
from tabevade.errors import RankingError
from tabevade.evaluation import numeric_platform
from tabevade.metrics import recall
from tabevade.models import MODEL_KINDS, fit
from tabevade.models import logistic as logistic_module
from tabevade.models import tree as tree_module
from tabevade.models.tree import DecisionTree
from tabevade.ranking import (
    RANKING_METHODS,
    FeatureRanking,
    ffs_rank,
    gini_gain,
    info_gain,
    info_gain_ratio,
    permutation_importance,
    rank_features,
    rfe_rank,
)
from tabevade.synth import census_like, demo_pages, gaussian_blobs, web_demo_dataset


def dataset(X, y, kinds=None):
    X = np.asarray(X, dtype=float)
    kinds = kinds or ["continuous"] * X.shape[1]
    schema = FeatureSchema(
        features=tuple(FeatureSpec(f"f{j}", kinds[j]) for j in range(X.shape[1])),
        target_column="class",
        positive_class_label="1",
        negative_class_label="0",
    )
    return Dataset(X=X, y=np.asarray(y, dtype=int), schema=schema)


def random_dataset(rng, max_rows=16, n_features=3):
    n = int(rng.integers(4, max_rows + 1))
    X = np.round(rng.normal(size=(n, n_features)) * 3, 1)
    y = rng.integers(0, 2, size=n)
    if y.min() == y.max():
        y[0] = 1 - y[0]
    return dataset(X, y)


# ---------------------------------------------------------------------------
# split scores

def test_gini_gain_perfect_split():
    ds = dataset([[1], [1], [9], [9]], [0, 0, 1, 1])
    # parent impurity 0.5, pure children
    assert gini_gain(ds, 0) == pytest.approx(0.5)


def test_gini_gain_constant_feature():
    ds = dataset([[3], [3], [3], [3]], [0, 1, 0, 1])
    assert gini_gain(ds, 0) == 0.0


def test_gini_gain_two_rows_degenerate():
    ds = dataset([[3], [3]], [0, 1])
    assert gini_gain(ds, 0) == 0.0


def test_info_gain_ratio_perfect_binary_split():
    ds = dataset([[0], [0], [1], [1]], [0, 0, 1, 1])
    # 1 bit of gain over 1 bit of split entropy
    assert info_gain_ratio(ds, 0) == pytest.approx(1.0)
    assert info_gain(ds, 0) == pytest.approx(1.0)


def test_info_gain_ratio_constant_feature():
    ds = dataset([[7], [7], [7]], [0, 1, 0])
    assert info_gain_ratio(ds, 0) == 0.0


def test_info_gain_constant_feature():
    column, labels = [7, 7, 7, 7], [0, 1, 1, 0]
    assert info_gain(dataset([[v] for v in column], labels), 0) == 0.0
    assert brute_force_info_gain(column, labels) == 0.0


def test_info_gain_ratio_noise_stays_small():
    rng = np.random.default_rng(123)
    X = rng.random((1000, 1))
    y = np.array([0, 1] * 500)
    ds = dataset(X, y)
    assert info_gain_ratio(ds, 0) < 0.05


@pytest.mark.parametrize("seed", range(50))
def test_split_scores_match_brute_force(seed):
    rng = np.random.default_rng(seed)
    ds = random_dataset(rng)
    for j in range(ds.n_features):
        col = list(ds.X[:, j])
        labels = list(ds.y)
        assert gini_gain(ds, j) == pytest.approx(brute_force_gini_gain(col, labels), abs=1e-9)
        assert info_gain(ds, j) == pytest.approx(brute_force_info_gain(col, labels), abs=1e-9)
        assert info_gain_ratio(ds, j) == pytest.approx(
            brute_force_info_gain_ratio(col, labels), abs=1e-9
        )


def test_scores_invariant_under_row_duplication():
    rng = np.random.default_rng(7)
    ds = random_dataset(rng)
    doubled = dataset(np.vstack([ds.X, ds.X]), np.concatenate([ds.y, ds.y]))
    for j in range(ds.n_features):
        assert gini_gain(doubled, j) == pytest.approx(gini_gain(ds, j), abs=1e-12)
        assert info_gain_ratio(doubled, j) == pytest.approx(info_gain_ratio(ds, j), abs=1e-12)


# ---------------------------------------------------------------------------
# rank_features

def separating_and_constant():
    # feature 0 separates perfectly, feature 1 is constant
    return dataset([[0, 5], [0, 5], [1, 5], [1, 5]], [0, 0, 1, 1])


@pytest.mark.parametrize("method", ["gini_impurity", "info_gain_ratio"])
def test_separating_feature_ranks_first(method):
    ranking = rank_features(separating_and_constant(), method)
    assert ranking.order == (0, 1)
    assert ranking.scores[0] > ranking.scores[1]


def test_identical_copies_tie_break_by_index():
    X = np.tile(np.array([[0.0], [1.0], [0.0], [1.0]]), (1, 4))
    ds = dataset(X, [0, 1, 0, 1])
    ranking = rank_features(ds, "gini_impurity")
    assert ranking.order == (0, 1, 2, 3)
    assert len(set(ranking.scores)) == 1


def test_gini_top_feature_matches_brute_force_argmax():
    rng = np.random.default_rng(21)
    n = 60
    X = rng.normal(size=(n, 14))
    y = (X[:, 5] + 0.3 * rng.normal(size=n) > 0).astype(int)
    ds = dataset(X, y)
    ranking = rank_features(ds, "gini_impurity")
    brute = [brute_force_gini_gain(list(ds.X[:, j]), list(ds.y)) for j in range(14)]
    assert ranking.order[0] == int(np.argmax(brute))


def test_single_class_raises():
    ds = dataset([[1, 2], [3, 4]], [1, 1])
    with pytest.raises(RankingError):
        rank_features(ds, "gini_impurity")


def test_every_method_returns_permutation():
    rng = np.random.default_rng(3)
    n = 80
    X = np.column_stack([rng.normal(size=n), rng.normal(size=n), rng.normal(size=n)])
    y = (X[:, 0] > 0).astype(int)
    ds = dataset(X, y)
    for method in RANKING_METHODS:
        ranking = rank_features(ds, method, seed=1)
        assert sorted(ranking.order) == [0, 1, 2], method


def test_ranking_rejects_non_monotone_scores():
    with pytest.raises(RankingError):
        FeatureRanking(order=(0, 1), scores=(0.1, 0.9), method="gini_impurity")


# ---------------------------------------------------------------------------
# permutation importance

def permutation_fixture(seed=0):
    rng = np.random.default_rng(seed)
    n = 240
    label_copy = rng.integers(0, 2, size=n).astype(float)
    noise = rng.normal(size=(n, 2))
    X = np.column_stack([label_copy, noise])
    y = label_copy.astype(int)
    train = dataset(X[:160], y[:160], kinds=["discrete", "continuous", "continuous"])
    holdout = dataset(X[160:], y[160:], kinds=["discrete", "continuous", "continuous"])
    return train, holdout


def test_permutation_label_copy_scores_highest():
    train, holdout = permutation_fixture()
    probe = fit("decision_tree", train, seed=0)
    scores = permutation_importance(train, holdout, probe, repeats=5, seed=0)
    assert int(np.argmax(scores)) == 0
    assert scores[0] > 0.3


def test_permutation_ignored_feature_scores_zero():
    # a depth-1 tree on the label copy provably never reads the noise columns
    train, holdout = permutation_fixture()
    probe = fit("decision_tree", train, hyperparameters={"max_depth": 1}, seed=0)
    scores = permutation_importance(train, holdout, probe, repeats=5, seed=0)
    assert scores[1] == 0.0 and scores[2] == 0.0


def test_permutation_deterministic():
    train, holdout = permutation_fixture()
    probe = fit("random_forest", train, hyperparameters={"n_trees": 10}, seed=0)
    a = permutation_importance(train, holdout, probe, repeats=5, seed=9)
    b = permutation_importance(train, holdout, probe, repeats=5, seed=9)
    assert np.array_equal(a, b)


def test_permutation_requires_fitted_model():
    train, holdout = permutation_fixture()
    with pytest.raises(RankingError):
        permutation_importance(train, holdout, None, repeats=3, seed=0)


# ---------------------------------------------------------------------------
# RFE / FFS

def test_rfe_predictive_feature_ranked_first():
    rng = np.random.default_rng(4)
    n = 120
    predictive = rng.integers(0, 2, size=n).astype(float)
    noise = rng.normal(size=n)
    ds = dataset(np.column_stack([noise, predictive]), predictive.astype(int))
    ranking = rfe_rank(ds, seed=0)
    assert ranking.order[0] == 1


def test_rfe_identical_copies_deterministic():
    X = np.tile(np.array([[0.0], [1.0]] * 10), (1, 4))
    ds = dataset(X, [0, 1] * 10)
    ranking = rfe_rank(ds, seed=0)
    assert ranking.order == (0, 1, 2, 3)
    assert rfe_rank(ds, seed=0).order == ranking.order


def test_rfe_ranking_is_full_permutation():
    rng = np.random.default_rng(8)
    ds = dataset(rng.normal(size=(40, 5)), rng.integers(0, 2, size=40))
    ranking = rfe_rank(ds, seed=0)
    assert sorted(ranking.order) == list(range(5))


@pytest.mark.parametrize("seed", [0, 3])
def test_rfe_coded_once_ranks_as_a_decision_tree_refitted_on_the_survivors(seed):
    # one-hot groups, ties and a constant column: one coding of the scaled matrix must serve every refit
    ds = census_like(n_rows=300, seed=seed)
    Xs = transform(ds.X, fit_scaler(ds))
    remaining = list(range(ds.n_features))
    eliminated = []  # the old loop: a DecisionTree fitted on Xs[:, remaining] per step
    while len(remaining) > 1:
        imps = DecisionTree(**tree_module.DEFAULTS).fit(Xs[:, remaining], ds.y, rng=np.random.default_rng(0)).importances
        worst = max(range(len(remaining)), key=lambda k: (-imps[k], remaining[k]))
        eliminated.append(remaining.pop(worst))
    assert rfe_rank(ds, seed=seed).order == tuple(remaining + eliminated[::-1])


@pytest.mark.parametrize("rows, seed", [(300, 0), (300, 3), (3000, 41), (3000, 7)])
def test_every_rfe_step_holds_the_tree_a_refit_on_the_survivors_grows(rows, seed, monkeypatch):
    # kept, resumed or regrown from the root, a step's tree is the one fitted on the survivors alone
    ds = census_like(n_rows=rows, seed=seed)
    if rows > 300:
        ds, _ = split(ds, 0.7, seed)  # the census grid's 2100-row training split
    Xs = transform(ds.X, fit_scaler(ds))
    expected = rfe_reference(Xs, ds.y)
    starts = []  # the level each growth starts from
    grow = tree_module.Growth.grow

    def recorded(growth, *args):
        starts.append(len(growth.levels))
        grow(growth, *args)

    monkeypatch.setattr(tree_module.Growth, "grow", recorded)
    steps = [(remaining, flat.to_dict(), worst) for remaining, flat, worst in ranking_module.rfe_steps(Xs, ds.y)]
    assert steps == expected
    # some steps keep the last tree, and some regrow only below a kept level
    assert len(starts) < len(steps) and max(starts) > 0


def test_ffs_selects_predictive_feature_first():
    # minority positives: an all-noise model predicts the majority class and
    # scores recall 0, so only the label copy can win the first greedy step
    rng = np.random.default_rng(6)
    n = 200
    predictive = (rng.random(n) < 0.35).astype(float)
    X = np.column_stack([rng.normal(size=n), rng.normal(size=n), predictive])
    ds = dataset(X, predictive.astype(int))
    ranking = ffs_rank(ds, seed=0)
    assert ranking.order[0] == 2


def test_ffs_all_noise_still_full_permutation():
    rng = np.random.default_rng(10)
    ds = dataset(rng.normal(size=(80, 4)), rng.integers(0, 2, size=80))
    ranking = ffs_rank(ds, seed=0)
    assert sorted(ranking.order) == list(range(4))


def test_ffs_deterministic():
    rng = np.random.default_rng(12)
    ds = dataset(rng.normal(size=(100, 4)), (rng.normal(size=100) > 0).astype(int))
    assert ffs_rank(ds, seed=5).order == ffs_rank(ds, seed=5).order


def test_ffs_identical_copies_tie_break_by_index():
    # every copy scores the same recall at every step, so the lowest index wins each tie
    rng = np.random.default_rng(14)
    column = (rng.random(60) < 0.4).astype(float)
    ds = dataset(np.tile(column[:, None], (1, 4)), column.astype(int))
    assert ffs_rank(ds, seed=0).order == (0, 1, 2, 3)


# ---------------------------------------------------------------------------
# the rankers' shortcuts give the bits of the plain loops

def permutation_all_rows_reference(holdout, probe, repeats, seed):
    """Every shuffle predicts the whole holdout, positives and negatives."""
    rng = np.random.default_rng(seed)
    base = recall(probe, holdout.X, holdout.y)
    scores = np.zeros(holdout.n_features)
    for j in range(holdout.n_features):
        drops = 0.0
        for _ in range(repeats):
            perm = rng.permutation(holdout.n_rows)
            shuffled = holdout.X.copy()
            shuffled[:, j] = shuffled[perm, j]
            drops += base - recall(probe, shuffled, holdout.y)
        scores[j] = drops / repeats
    return scores


def census_holdout(seed):
    train, _ = split(census_like(n_rows=400, seed=seed), 0.8, seed)
    return split(train, 0.75, seed)


@pytest.mark.parametrize("kind", ["decision_tree", "random_forest"])
def test_permutation_matches_all_rows_reference(kind):
    fit_part, holdout = census_holdout(31)
    probe = fit(kind, fit_part, hyperparameters={"n_trees": 10} if kind == "random_forest" else None, seed=3)
    scores = permutation_importance(fit_part, holdout, probe, repeats=3, seed=4)
    expected = permutation_all_rows_reference(holdout, probe, 3, 4)
    assert [s.hex() for s in scores] == [s.hex() for s in expected]
    assert np.any(scores != 0.0)


def test_permutation_predicts_only_holdout_positives(monkeypatch):
    train, holdout = permutation_fixture()
    probe = fit("decision_tree", train, seed=0)
    seen = []
    original = models_module.predict_score

    def spy(model, X):
        seen.append(np.array(X, dtype=float))
        return original(model, X)

    monkeypatch.setattr(models_module, "predict_score", spy)
    permutation_importance(train, holdout, probe, repeats=2, seed=0)
    positives = holdout.X[holdout.y == 1]
    assert 1 < len(seen) <= 1 + 2 * holdout.n_features
    assert np.array_equal(seen[0], positives)
    # replay the shuffles: each call holds exactly the positives its shuffle moved, in order
    rng = np.random.default_rng(0)
    calls = iter(seen[1:])
    for j in range(holdout.n_features):
        for _ in range(2):
            column = holdout.X[rng.permutation(holdout.n_rows)[holdout.y == 1], j]
            moved = np.flatnonzero(column != positives[:, j])
            if moved.size:
                X = next(calls)
                assert X.shape == (moved.size, holdout.n_features)
                assert np.array_equal(np.delete(X, j, axis=1), np.delete(positives[moved], j, axis=1))
                assert np.all(X[:, j] != positives[moved, j])
    assert next(calls, None) is None


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_permutation_matches_every_positive_reference(kind):
    fit_part, holdout = census_holdout(31)
    hyperparameters = {"logistic_regression": {"epochs": 100}, "random_forest": {"n_trees": 10},
                       "gradient_boosted_trees": {"n_trees": 20}, "mlp": {"epochs": 10}}.get(kind)
    probe = fit(kind, fit_part, hyperparameters=hyperparameters, seed=3)
    scores = permutation_importance(fit_part, holdout, probe, repeats=3, seed=4)
    expected = permutation_importance_reference(fit_part, holdout, probe, repeats=3, seed=4)
    assert [s.hex() for s in scores] == [s.hex() for s in expected]
    assert np.any(scores != 0.0)


@pytest.mark.parametrize("block", [1, 1 << 40])
def test_ffs_same_ranking_one_candidate_or_all_per_stack(block, monkeypatch):
    train, _ = census_holdout(37)
    expected = ffs_rank(train, seed=6)
    monkeypatch.setattr(ranking_module, "_FFS_BLOCK", block)
    ranking = ffs_rank(train, seed=6)
    assert ranking.order == expected.order
    assert [float(s).hex() for s in ranking.scores] == [float(s).hex() for s in expected.scores]


# ---------------------------------------------------------------------------
# ffs on distinct rows ranks as ffs on all rows

def constant_column_dataset():
    rng = np.random.default_rng(21)
    X = np.column_stack([rng.integers(0, 2, 300), np.full(300, 4.0), rng.integers(0, 5, 300), rng.normal(size=300)])
    y = ((X[:, 0] + X[:, 2] + rng.normal(size=300)) > 3.0).astype(int)
    return dataset(X, y)


def duplicate_rows_dataset():
    # 25 distinct rows, each repeated 12 times, with labels that disagree within a row
    rng = np.random.default_rng(22)
    X = np.repeat(np.round(rng.normal(size=(25, 5)), 1), 12, axis=0)
    y = ((X[:, 1] - X[:, 3] + rng.normal(size=300)) > 0.6).astype(int)
    return dataset(X, y)


FFS_DATASETS = {
    **{f"census{seed}": lambda seed=seed: split(census_like(n_rows=1000, seed=seed), 0.8, seed)[0]
       for seed in (41, 7, 3, 6)},
    "blobs": lambda: gaussian_blobs(400, seed=2),
    "web": lambda: web_demo_dataset(demo_pages(40, 40, seed=1)),
    "constant_column": constant_column_dataset,
    "duplicate_rows": duplicate_rows_dataset,
}


@pytest.mark.parametrize("name", sorted(FFS_DATASETS))
def test_ffs_ranks_as_the_row_wise_reference(name):
    train = FFS_DATASETS[name]()
    ranking = ffs_rank(train, seed=4)
    expected = ffs_rank_reference(train, seed=4)
    assert ranking.order == expected.order
    assert [float(s).hex() for s in ranking.scores] == [float(s).hex() for s in expected.scores]


def hexes(values):
    return [float(v).hex() for v in np.ravel(values)]


def recorded_fits(monkeypatch, train, block):
    """Each candidate fit's table bytes mapped to its weight and bias bits, at stacks of ``block`` elements."""
    fits = {}
    descend = logistic_module.descend

    def spy(X, y, *args, counts=None, **kwargs):
        w, b = descend(X, y, *args, counts=counts, **kwargs)
        for c in range(X.shape[0]):
            key = (X[c].tobytes(), X.shape[1:], None if counts is None else (y[c].tobytes(), counts[c].tobytes()))
            assert fits.setdefault(key, (hexes(w[c]), b[c].hex())) == (hexes(w[c]), b[c].hex())  # equal columns
        return w, b

    monkeypatch.setattr(ranking_module, "_FFS_BLOCK", block)
    monkeypatch.setattr(logistic_module, "descend", spy)
    ffs_rank(train, seed=6)
    return fits


def test_ffs_candidate_weights_do_not_depend_on_their_stack_mates(monkeypatch):
    train, _ = census_holdout(37)
    alone = recorded_fits(monkeypatch, train, 1)
    stacked = recorded_fits(monkeypatch, train, 1 << 40)
    assert alone == stacked
    # every fit runs on a distinct-row table with counts, and some table is padded to all training rows
    assert all(key[2] is not None for key in alone)
    assert any(key[1][0] == split(train, 0.75, 6)[0].n_rows for key in alone)


FFS_ORDERS = """
import json
from tabevade.data import split
from tabevade.evaluation import numeric_platform
from tabevade.ranking import ffs_rank
from tabevade.synth import census_like
orders = [list(ffs_rank(split(census_like(n_rows=1000, seed=seed), 0.8, seed)[0], seed=4).order) for seed in (41, 7)]
print(json.dumps({"orders": orders, "platform": numeric_platform()}))
"""


def test_ffs_ranks_alike_under_another_blas_kernel():
    # each OpenBLAS kernel sums the two-column products in its own order:
    # the fits' last bits may differ between kernels, the order may not
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    if numeric_platform()["blas_core"] == "unknown" or not __cpu_features__.get("AVX2"):
        pytest.skip("needs numpy's OpenBLAS on a CPU that runs its Haswell kernel")
    env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell", "PYTHONPATH": str(Path(tabevade.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", FFS_ORDERS], env=env, capture_output=True, text=True, check=True,
                          timeout=120)
    child = json.loads(done.stdout)
    assert child["platform"]["blas_core"] == "Haswell"
    orders = [list(ffs_rank(split(census_like(n_rows=1000, seed=seed), 0.8, seed)[0], seed=4).order)
              for seed in (41, 7)]
    assert child["orders"] == orders
