import inspect
import json

import numpy as np
import pytest
from oracles import (
    cheapest_splits,
    forest_node_draws,
    gini,
    logistic_counted_descend_reference,
    logistic_descend_reference,
    mlp_adam_reference,
    mse_split_reference,
    node_split_reference,
    split_costs,
    squared_gain_cost,
    tree_node_rows,
    walk_flat_tree,
    weighted_gini,
)

from tabevade.data import Dataset, FeatureSchema, FeatureSpec, split
from tabevade.errors import FitError, ShapeError
from tabevade.metrics import recall
from tabevade.models import (
    MODEL_KINDS,
    Model,
    _IMPLS,
    fit,
    load_model,
    predict,
    predict_score,
    save_model,
)
from tabevade.models import boosting as boosting_module
from tabevade.models import forest as forest_module
from tabevade.models import tree as tree_module
from tabevade.models.boosting import GradientBoostedTrees, code_matrix, grow_regression_tree
from tabevade.models.forest import RandomForest
from tabevade.models.logistic import DEFAULTS as LOGISTIC_DEFAULTS, LogisticRegression, descend, sigmoid
from tabevade.models.mlp import MLP
from tabevade.models.tree import DecisionTree, code_columns


def schema_of(n):
    return FeatureSchema(
        features=tuple(FeatureSpec(f"f{j}", "continuous") for j in range(n)),
        target_column="class",
        positive_class_label="1",
        negative_class_label="0",
    )


def separable_blobs(n=200, seed=0, gap=4.0):
    rng = np.random.default_rng(seed)
    half = n // 2
    pos = rng.normal(0.0, 0.6, size=(half, 2))
    neg = rng.normal(gap, 0.6, size=(n - half, 2))
    X = np.vstack([pos, neg])
    y = np.array([1] * half + [0] * (n - half))
    order = rng.permutation(n)
    return Dataset(X=X[order], y=y[order], schema=schema_of(2))


def test_logistic_regression_separates_blobs():
    ds = separable_blobs()
    model = fit("logistic_regression", ds, seed=0)
    accuracy = (predict(model, ds.X) == ds.y).mean()
    assert accuracy >= 0.99


def test_decision_tree_learns_xor():
    X = np.array([[0, 0], [0, 1], [1, 0], [1, 1]] * 8, dtype=float)
    y = np.array([0, 1, 1, 0] * 8)
    ds = Dataset(X=X, y=y, schema=schema_of(2))
    model = fit("decision_tree", ds, hyperparameters={"min_leaf": 1}, seed=0)
    assert (predict(model, X) == y).all()


def test_random_forest_same_seed_same_predictions():
    ds = separable_blobs(seed=3)
    probe = np.random.default_rng(1).normal(1.5, 1.5, size=(50, 2))
    a = fit("random_forest", ds, hyperparameters={"n_trees": 25}, seed=11)
    b = fit("random_forest", ds, hyperparameters={"n_trees": 25}, seed=11)
    assert np.array_equal(predict_score(a, probe), predict_score(b, probe))


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_every_kind_reaches_95_recall_on_separable_data(kind):
    ds = separable_blobs(n=200, seed=7)
    train, test = split(ds, 0.8, seed=0)
    model = fit(kind, train, seed=0)
    assert recall(model, test.X, test.y) >= 0.95


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_refit_is_deterministic(kind):
    ds = separable_blobs(n=120, seed=5)
    probe = np.random.default_rng(2).normal(2, 2, size=(30, 2))
    a = fit(kind, ds, seed=4)
    b = fit(kind, ds, seed=4)
    assert np.array_equal(predict_score(a, probe), predict_score(b, probe))


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_predict_is_thresholded_score(kind):
    ds = separable_blobs(n=120, seed=6)
    probe = np.random.default_rng(3).normal(2, 2, size=(40, 2))
    model = fit(kind, ds, seed=0)
    scores = predict_score(model, probe)
    assert np.array_equal(predict(model, probe), (scores >= 0.5).astype(int))
    assert scores.min() >= 0.0 and scores.max() <= 1.0


def test_tie_at_half_predicts_positive():
    # one leaf holding a 1/1 label split scores exactly 0.5
    X = np.array([[0.0], [0.0]])
    y = np.array([0, 1])
    ds = Dataset(X=X, y=y, schema=schema_of(1))
    model = fit("decision_tree", ds, seed=0)
    assert predict_score(model, X).tolist() == [0.5, 0.5]
    assert predict(model, X).tolist() == [1, 1]


def test_empty_matrix_predicts_empty():
    model = fit("logistic_regression", separable_blobs(n=50), seed=0)
    assert predict(model, np.zeros((0, 2))).shape == (0,)


def test_logistic_score_matches_hand_computation():
    impl = LogisticRegression()
    impl.weights = np.array([1.5, -2.0])
    impl.bias = 0.25
    x = np.array([[0.4, 0.1]])
    expected = 1.0 / (1.0 + np.exp(-(1.5 * 0.4 - 2.0 * 0.1 + 0.25)))
    assert impl.predict_scores(x)[0] == pytest.approx(expected)


def test_forest_score_is_vote_fraction():
    ds = separable_blobs(n=100, seed=9)
    model = fit("random_forest", ds, hyperparameters={"n_trees": 10}, seed=0)
    probe = np.random.default_rng(4).normal(2, 2, size=(20, 2))
    votes = np.zeros(20)
    for tree in model.impl.trees:
        votes += tree.predict_scores(model_scale(model, probe)) >= 0.5
    assert np.array_equal(predict_score(model, probe), votes / 10)


def model_scale(model: Model, X):
    from tabevade.data import transform

    return transform(X, model.scaler)


def test_single_leaf_tree_constant_score():
    X = np.array([[1.0], [1.0], [1.0], [1.0]])
    y = np.array([1, 1, 1, 0])
    ds = Dataset(X=X, y=y, schema=schema_of(1))
    model = fit("decision_tree", ds, seed=0)
    scores = predict_score(model, np.array([[0.0], [5.0], [1.0]]))
    assert len(set(scores.tolist())) == 1


def test_fit_rejects_single_class():
    ds = Dataset(X=np.ones((10, 1)), y=np.ones(10, dtype=int), schema=schema_of(1))
    with pytest.raises(FitError, match="single class"):
        fit("logistic_regression", ds, seed=0)


def test_fit_rejects_unknown_kind_and_hyper():
    ds = separable_blobs(n=40)
    with pytest.raises(FitError, match="unknown model kind"):
        fit("svm", ds, seed=0)
    with pytest.raises(FitError, match="unknown hyperparameters"):
        fit("mlp", ds, hyperparameters={"bogus": 3}, seed=0)


@pytest.mark.parametrize("kind, name, value", [
    ("logistic_regression", "epochs", 5.5),
    ("logistic_regression", "epochs", 0),
    ("logistic_regression", "epochs", True),
    ("logistic_regression", "l2", "x"),
    ("mlp", "batch_size", -1),
    ("mlp", "batch_size", 0),
    ("mlp", "batch_size", "32"),
    ("mlp", "hidden", 0),
    ("mlp", "epochs", float("inf")),
    ("mlp", "learning_rate", float("nan")),
    ("mlp", "learning_rate", 10**400),
    ("random_forest", "n_trees", 0),
    ("random_forest", "bootstrap", "no"),
    ("random_forest", "bootstrap", 1),
    ("random_forest", "max_features", 0),
    ("random_forest", "max_features", 2.5),
    ("random_forest", "max_features", "log2"),
    ("decision_tree", "max_depth", -1),
    ("decision_tree", "min_leaf", 0),
    ("decision_tree", "max_features", False),
    ("gradient_boosted_trees", "max_depth", 1.5),
])
def test_fit_refuses_a_hyperparameter_the_model_cannot_hold(kind, name, value):
    with pytest.raises(FitError) as info:
        fit(kind, separable_blobs(n=40), hyperparameters={name: value}, seed=0)
    assert str(info.value).startswith(f"{kind} hyperparameter {name!r} must be ")
    assert str(info.value).endswith(f", got {value!r}")


def test_fit_keeps_the_hyperparameters_the_model_holds():
    ds = separable_blobs(n=40)
    model = fit("logistic_regression", ds, hyperparameters={"epochs": 5.0, "l2": 0}, seed=0)
    assert model.hyperparameters == {"epochs": 5, "l2": 0.0, "learning_rate": 0.5}
    assert type(model.hyperparameters["epochs"]) is int and type(model.hyperparameters["l2"]) is float
    same = fit("logistic_regression", ds, hyperparameters={"epochs": 5, "l2": 0.0}, seed=0)
    assert model.impl.epochs == 5 and np.array_equal(model.impl.weights, same.impl.weights)
    forest = fit("random_forest", ds, hyperparameters={"n_trees": 2.0, "max_features": 1.0, "bootstrap": False,
                                                       "max_depth": 0}, seed=0)
    assert forest.hyperparameters == {"n_trees": 2, "max_depth": 0, "min_leaf": 2, "max_features": 1,
                                      "bootstrap": False}
    assert len(forest.impl.trees) == 2


def test_predict_column_mismatch():
    model = fit("logistic_regression", separable_blobs(n=40), seed=0)
    with pytest.raises(ShapeError):
        predict(model, np.zeros((3, 5)))


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_save_load_round_trip(kind, tmp_path):
    ds = separable_blobs(n=80, seed=2)
    probe = np.random.default_rng(5).normal(2, 2, size=(25, 2))
    model = fit(kind, ds, seed=1)
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.kind == kind
    assert np.allclose(predict_score(loaded, probe), predict_score(model, probe), atol=1e-12)


def test_sigmoid_is_stable_at_extremes():
    assert sigmoid(np.array([800.0]))[0] == 1.0
    assert sigmoid(np.array([-800.0]))[0] == 0.0


# -- flat trees: the stacked traversal against a per-row walk ---------------


def oracle_scores(impl, X):
    """Scores from walking each tree's saved lists one row at a time."""
    rows = X.tolist()
    if isinstance(impl, DecisionTree):
        tree = impl.to_dict()
        return np.array([walk_flat_tree(tree, row) for row in rows])
    if isinstance(impl, RandomForest):
        trees = [t.to_dict() for t in impl.trees]
        return np.array([sum(walk_flat_tree(t, row) >= 0.5 for t in trees) / len(trees) for row in rows])
    payload = impl.to_dict()
    raws = []
    for row in rows:
        raw = payload["base_score"]
        for tree in payload["trees"]:
            raw += payload["learning_rate"] * walk_flat_tree(tree, row)
        raws.append(raw)
    return sigmoid(np.array(raws, dtype=float))


def tree_dicts(impl):
    if isinstance(impl, DecisionTree):
        return [impl.to_dict()]
    if isinstance(impl, RandomForest):
        return [t.to_dict() for t in impl.trees]
    return impl.to_dict()["trees"]


def probe_matrix(impl, n_features, rng):
    """Random rows in and out of the [0, 1] training range, rows sitting
    exactly on split thresholds, and rows holding NaN or infinities."""
    rows = [rng.uniform(-0.5, 1.5, size=(40, n_features))]
    for tree in tree_dicts(impl)[:3]:
        for node, (feature, threshold) in enumerate(zip(tree["feature"], tree["threshold"])):
            if tree["left"][node] != node:
                row = rng.uniform(0.0, 1.0, size=(1, n_features))
                row[0, feature] = threshold
                rows.append(row)
    for special in (np.nan, np.inf, -np.inf, 1e300):
        for j in range(n_features):
            row = rng.uniform(0.0, 1.0, size=(1, n_features))
            row[0, j] = special
            rows.append(row)
    return np.vstack(rows)


def fitted_tree_models(X, y, seed):
    rng = np.random.default_rng(seed)
    return [
        DecisionTree(min_leaf=1).fit(X, y),
        RandomForest(n_trees=7, max_depth=6).fit(X, y, rng),
        GradientBoostedTrees(n_trees=6, max_depth=3).fit(X, y),
    ]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stacked_traversal_matches_per_row_walk(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 1.0, size=(150, 4))
    y = ((X[:, 0] + X[:, 1] > 1.0) ^ (rng.uniform(size=150) < 0.1)).astype(int)
    # small row blocks, so the block seams are crossed too
    monkeypatch.setattr(tree_module, "_TRAVERSE_BLOCK", 20)
    for impl in fitted_tree_models(X, y, seed):
        probe = probe_matrix(impl, 4, rng)
        expected = oracle_scores(impl, probe)
        assert np.array_equal(impl.predict_scores(probe), expected), type(impl).__name__
        assert impl.predict_scores(probe[:1]).tolist() == expected[:1].tolist()
        assert impl.predict_scores(probe[:0]).shape == (0,)


def test_traversal_of_single_leaf_trees():
    rng = np.random.default_rng(3)
    X = rng.uniform(0.0, 1.0, size=(30, 3))
    y = np.ones(30, dtype=int)
    probe = probe_matrix(DecisionTree().fit(X, y), 3, rng)
    models = fitted_tree_models(X, y, 3) + [GradientBoostedTrees(n_trees=4, max_depth=0).fit(X, (X[:, 0] > 0.5).astype(int))]
    for impl in models:
        assert all(len(tree["value"]) == 1 for tree in tree_dicts(impl))
        assert np.array_equal(impl.predict_scores(probe), oracle_scores(impl, probe))


LEAF = {"feature": [0], "threshold": [0.0], "left": [0], "right": [0], "value": [0.75], "n_samples": [4]}
# depth 3 down the left edge, depth 1 on the right
CHAIN = {
    "feature": [0, 1, 0, 0, 0, 0, 0],
    "threshold": [0.5, 0.3, 0.2, 0.0, 0.0, 0.0, 0.0],
    "left": [1, 2, 3, 3, 4, 5, 6],
    "right": [6, 5, 4, 3, 4, 5, 6],
    "value": [0.5, 0.4, 0.3, 0.1, 0.2, 0.3, 0.9],
    "n_samples": [10, 7, 4, 2, 2, 3, 3],
}
GINI = {"max_depth": 3, "min_leaf": 1, "max_features": None, "n_features": 2, "importances": [0.5, 0.5]}


def test_stacked_traversal_of_uneven_trees():
    probe = np.array([
        [0.1, 0.1], [0.2, 0.1], [0.3, 0.3], [0.5, 0.0], [0.49, 0.29], [np.nan, 0.0], [0.0, np.nan], [-9.0, 9.0],
    ])
    gbt = GradientBoostedTrees.from_dict({
        "n_trees": 3, "max_depth": 3, "learning_rate": 0.5, "min_leaf": 1, "base_score": 0.1, "n_features": 2,
        "trees": [LEAF, CHAIN, LEAF],
    })
    forest = RandomForest.from_dict({
        "n_trees": 2, "max_depth": 3, "min_leaf": 1, "max_features": None, "bootstrap": False,
        "trees": [dict(tree, **GINI) for tree in (CHAIN, LEAF)],
    })
    for impl in (gbt, forest, forest.trees[0]):
        assert np.array_equal(impl.predict_scores(probe), oracle_scores(impl, probe))
    assert forest.trees[0].predict_scores(probe).tolist() == [0.1, 0.2, 0.3, 0.9, 0.2, 0.9, 0.3, 0.3]


def test_traversal_rejects_a_too_narrow_matrix():
    impl = DecisionTree.from_dict(dict(CHAIN, **GINI))
    with pytest.raises(ShapeError):
        impl.predict_scores(np.zeros((3, 1)))


# -- strict model loading ----------------------------------------------------


def saved(tmp_path, kind="decision_tree"):
    path = tmp_path / "model.json"
    save_model(fit(kind, separable_blobs(n=60, seed=1), seed=0), path)
    return path, json.loads(path.read_text(encoding="utf-8"))


def assert_load_fails(path, payload, match):
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload), encoding="utf-8")
    with pytest.raises(FitError, match=match) as info:
        load_model(path)
    assert str(path) in str(info.value)


def test_load_rejects_missing_key(tmp_path):
    path, payload = saved(tmp_path)
    del payload["params"]["max_depth"]
    assert_load_fails(path, payload, "malformed.*max_depth")


@pytest.mark.parametrize("edit", [
    lambda p: p["params"].update(threshold="0.5"),
    lambda p: p["params"].update(feature=[[0]] * len(p["params"]["feature"])),
    lambda p: p["params"].update(left=[str(i) for i in p["params"]["left"]]),
    lambda p: p.update(seed="one"),
    lambda p: p.update(params=[1, 2]),
    lambda p: p["scaler"].update(mins="low"),
])
def test_load_rejects_wrong_types(tmp_path, edit):
    path, payload = saved(tmp_path)
    edit(payload)
    assert_load_fails(path, payload, "model file")


def test_load_rejects_invalid_json(tmp_path):
    path, payload = saved(tmp_path)
    assert_load_fails(path, json.dumps(payload)[:-40], "not valid JSON")


@pytest.mark.parametrize("kind", ["decision_tree", "random_forest", "gradient_boosted_trees"])
def test_load_rejects_nested_trees_with_retrain_message(tmp_path, kind):
    path, payload = saved(tmp_path, kind)
    nested = {"max_depth": 3, "min_leaf": 1, "root": {"value": 0.5, "n": 4}}
    if kind == "decision_tree":
        payload["params"] = dict(nested, n_features=2, importances=[0.5, 0.5])
    else:
        payload["params"]["trees"] = [nested]
    assert_load_fails(path, payload, "retrain")


def inner_node(params):
    return next(i for i, left in enumerate(params["left"]) if left != i)


@pytest.mark.parametrize("edit, match", [
    (lambda p: p["value"].append(0.5), "unequal lengths"),
    (lambda p: p.update({name: [] for name in ("feature", "threshold", "left", "right", "value", "n_samples")}),
     "empty"),
    (lambda p: p["feature"].__setitem__(0, 2), "feature outside"),
    (lambda p: p["feature"].__setitem__(-1, -1), "feature outside"),
    (lambda p: p["left"].__setitem__(inner_node(p), len(p["left"])), "out of range"),
    (lambda p: p["right"].__setitem__(inner_node(p), 0), "not after their parent"),
    (lambda p: p["left"].__setitem__(-1, len(p["left"]) - 2), "not a preorder tree"),
    (lambda p: p["threshold"].__setitem__(inner_node(p), float("nan")), "non-finite threshold"),
    (lambda p: p["threshold"].__setitem__(0, float("inf")), "non-finite threshold"),
])
def test_load_rejects_invalid_flat_arrays(tmp_path, edit, match):
    path, payload = saved(tmp_path)
    edit(payload["params"])
    assert_load_fails(path, payload, match)


@pytest.mark.parametrize("kind, edit, match", [
    ("logistic_regression", lambda p: p["params"]["weights"].pop(), "weights has shape"),
    ("logistic_regression", lambda p: p["params"]["weights"].__setitem__(0, float("nan")), "non-finite weights"),
    ("logistic_regression", lambda p: p["params"].update(bias=float("inf")), "non-finite bias"),
    ("logistic_regression", lambda p: p["scaler"]["mins"].__setitem__(0, float("nan")), "non-finite scaler mins"),
    ("logistic_regression", lambda p: p["scaler"]["maxs"].pop(), "malformed.*scaler min/max"),
    ("mlp", lambda p: p["params"]["w2"].pop(), "w2 has shape"),
    ("mlp", lambda p: p["params"]["w1"].pop(), "w1 has shape"),
    ("mlp", lambda p: p["params"]["w1"][1].__setitem__(0, float("inf")), "non-finite w1"),
    ("mlp", lambda p: p["params"].update(b2=float("nan")), "non-finite b2"),
    ("gradient_boosted_trees", lambda p: p["params"].update(base_score=float("nan")), "non-finite base_score"),
    ("gradient_boosted_trees", lambda p: p["params"].update(learning_rate=float("nan")), "non-finite learning_rate"),
    ("gradient_boosted_trees", lambda p: p["params"].update(n_features=3), r"fitted on \[3\] features"),
    ("decision_tree", lambda p: p["params"].update(n_features=3), r"fitted on \[3\] features"),
    ("random_forest", lambda p: p["params"]["trees"][0].update(n_features=3), r"fitted on \[2, 3\] features"),
    # a value fit refuses, in both places, is refused with fit's message
    ("logistic_regression", lambda p: [p[key].update(epochs=5.5) for key in ("hyperparameters", "params")],
     "logistic_regression hyperparameter 'epochs' must be a whole number of at least 1, got 5.5"),
    ("random_forest", lambda p: [p[key].update(bootstrap="no") for key in ("hyperparameters", "params")],
     "random_forest hyperparameter 'bootstrap' must be true or false, got 'no'"),
    ("decision_tree", lambda p: [p[key].update(max_depth=3.7) for key in ("hyperparameters", "params")],
     "decision_tree hyperparameter 'max_depth' must be a whole number of at least 0, got 3.7"),
    ("mlp", lambda p: p["hyperparameters"].update(bogus=3), r"unknown hyperparameters for mlp: \['bogus'\]"),
    # a value fit refuses in the fitted parameters alone is refused too, though it passes the comparison
    ("decision_tree", lambda p: [p["hyperparameters"].update(max_features=1), p["params"].update(max_features=True)],
     "model file .*: decision_tree hyperparameter 'max_features' must be null, 'sqrt' or a whole number of at least 1, "
     "got True"),
    ("random_forest", lambda p: p["params"].update(bootstrap="no"),
     "model file .*: random_forest hyperparameter 'bootstrap' must be true or false, got 'no'"),
    ("decision_tree", lambda p: p["params"].update(max_depth=float("inf")), r"malformed \(OverflowError"),
])
def test_load_rejects_non_finite_numbers_and_misshapen_weights(tmp_path, kind, edit, match):
    path, payload = saved(tmp_path, kind)
    edit(payload)
    assert_load_fails(path, payload, match)


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_load_refuses_hyperparameters_that_disagree_with_the_fitted_ones(tmp_path, kind):
    path, payload = saved(tmp_path, kind)
    name = "max_depth" if "max_depth" in payload["hyperparameters"] else "epochs"
    payload["hyperparameters"][name] = float(payload["params"][name])  # equal as JSON numbers
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert load_model(path).hyperparameters[name] == payload["params"][name]
    payload["hyperparameters"][name] = payload["params"][name] + 2
    assert_load_fails(path, payload, f"hyperparameter '{name}'")


def test_load_keeps_a_fitted_hyperparameter_as_fit_would(tmp_path):
    path, payload = saved(tmp_path)
    payload["hyperparameters"]["max_features"], payload["params"]["max_features"] = 2, 2.0
    path.write_text(json.dumps(payload), encoding="utf-8")
    loaded = load_model(path).hyperparameters["max_features"]
    assert loaded == 2 and type(loaded) is int


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_constructor_defaults_equal_the_kind_defaults(kind):
    cls, defaults = _IMPLS[kind]
    signature = inspect.signature(cls)
    assert {name: parameter.default for name, parameter in signature.parameters.items()} == defaults


# ---------------------------------------------------------------------------
# split search against every midpoint

def root_split(X, target, criterion, min_leaf):
    """The root's ``(feature, threshold)`` of a one-level Gini or squared-error tree, or None for a leaf."""
    if criterion == "gini":
        flat = DecisionTree(max_depth=1, min_leaf=min_leaf).fit(X, target).flat
    else:
        flat = grow_regression_tree(X, code_matrix(X), target, np.ones(target.size), 1, min_leaf)
    return None if flat.left[0] == 0 else (int(flat.feature[0]), float(flat.threshold[0]))


@pytest.mark.parametrize("min_leaf", [1, 2, 5])
@pytest.mark.parametrize("criterion", ["gini", "mse"])
def test_best_split_matches_brute_force(criterion, min_leaf):
    rng = np.random.default_rng(min_leaf)
    reference = weighted_gini if criterion == "gini" else squared_gain_cost
    for trial in range(60):
        n = int(rng.integers(1, 16))
        # few distinct values and targets, so equal costs are common
        col = rng.integers(0, int(rng.integers(1, 6)), size=n).astype(float)
        if criterion == "gini":
            target = rng.integers(0, 2, size=n)
        else:
            target = rng.choice([-1.0, 0.0, 0.5, 2.0], size=n)
        found = root_split(col[:, None], target, criterion, min_leaf)
        candidates = split_costs(col.tolist(), target.tolist(), min_leaf, reference)
        if not candidates or np.unique(target).size == 1:  # a pure or constant root is a leaf
            assert found is None, trial
            continue
        best = min(c for _, c in candidates)
        # ties go to the lowest threshold
        assert found == (0, min(t for t, c in candidates if c <= best + 1e-9)), trial


def test_pick_features_replaces_the_best_only_when_cheaper_by_more_than_1e_15():
    rng = np.random.default_rng(4)
    costs = [np.inf, 0.3, 0.3 - 5e-16, 0.3 - 1.1e-15, 0.3 - 2e-15, 0.25, 0.25 + 1e-16, -1.0]
    for trial in range(300):
        pair_cost = rng.choice(costs, size=(4, int(rng.integers(1, 7))))
        pair_threshold = rng.random(pair_cost.shape)
        features = np.sort(rng.choice(20, size=pair_cost.shape, replace=True), axis=1)
        found = tree_module.pick_features(pair_cost, pair_threshold, features)
        for i in range(4):
            best = (np.inf, 0, 0.0)  # the loop over features in order
            for cost, feature, threshold in zip(pair_cost[i].tolist(), features[i].tolist(),
                                                pair_threshold[i].tolist()):
                if cost < best[0] - 1e-15:
                    best = (cost, feature, threshold)
            assert (found[0][i], found[1][i], found[2][i]) == best, (trial, i)


def test_leaders_mark_each_feature_that_takes_over_a_nodes_pick():
    inf = np.inf
    pair_cost = np.array([
        [0.5, 0.3, 0.4, 0.1],  # 0.3 leads, then 0.1 overtakes it
        [0.3, 0.3 - 5e-16, 0.2, 0.2],  # the margin refuses 0.3 - 5e-16; an equal later cost does not lead
        [0.3, 0.3 - 5e-16, 0.3 - 1.2e-15, inf],  # past the refused cost, the best to beat is still 0.3
        [inf, inf, inf, inf],  # no split: no leader
        [inf, 0.7, inf, 0.7],
    ])
    leads = tree_module.leaders(pair_cost)
    assert leads.tolist() == [[True, True, False, True], [True, False, True, False], [True, False, True, False],
                              [False] * 4, [False, True, False, False]]
    # each node picks its last leader
    features = np.tile(np.arange(10, 14), (5, 1))
    cost, feature, threshold = tree_module.pick_features(pair_cost, np.arange(20.0).reshape(5, 4), features)
    assert feature.tolist() == [13, 12, 12, 0, 11] and threshold.tolist() == [3.0, 6.0, 10.0, 0.0, 17.0]
    assert cost.tolist() == [0.1, 0.2, 0.3 - 1.2e-15, inf, 0.7]


def test_growth_drop_regrows_from_the_first_level_the_dropped_feature_led():
    # at the root the noisy column leads, then the label copy overtakes it; the constant column never leads
    y = np.array([0, 0, 0, 1, 1, 1, 0, 1])
    X = np.column_stack([[0.0, 1, 2, 3, 4, 5, 1.5, 0.5], y, np.ones(8)]).astype(float)

    def grown(X):
        growth = tree_module.Growth(y, np.arange(8), 1, resumable=True)
        growth.grow(X, y, code_columns(X, y), [None], X.shape[1], 12, 1)
        return growth

    growth = grown(X)
    assert [lead.tolist() for lead in growth.leads] == [[True, True, False]]
    before = growth.trees(3)[0][0].to_dict()
    growth.drop(2)  # led nowhere: the trees stay grown
    assert growth.grown and growth.trees(2)[0][0].to_dict() == before
    growth.drop(0)  # led at the root: everything regrows
    assert not growth.grown and growth.levels == [] and len(growth.fronts) == 1
    growth.grow(X[:, 1:2], y, code_columns(X[:, 1:2], y), [None], 1, 12, 1)
    [(flat, gains)] = growth.trees(1)
    assert flat.to_dict() == grown(X[:, 1:2]).trees(1)[0][0].to_dict()
    assert flat.feature.tolist() == [0, 0, 0] and gains.tolist() == [4.0]


def test_growth_drop_rescans_only_the_subtree_under_the_node_the_dropped_column_led(monkeypatch):
    # the root splits on column 0; below it column 1 leads (and splits) the left child, and column 2 the right
    y = np.array([0, 0, 0, 1, 0, 0, 0, 0, 1, 1, 0, 1])
    X = np.array([[2, 1, 1, 2, 0, 2, 3, 0, 3, 3, 0, 3],
                  [3, 3, 1, 0, 1, 2, 3, 0, 3, 3, 3, 3],
                  [0, 3, 1, 3, 1, 2, 0, 2, 2, 0, 0, 3]], dtype=float).T

    def grown(X):
        growth = tree_module.Growth(y, np.arange(12), 1, resumable=True)
        growth.grow(X, y, code_columns(X, y), [None], X.shape[1], 12, 1)
        return growth

    growth = grown(X)
    assert [lead[:, 1].tolist() for lead in growth.node_leads] == [[False], [True, False], [False] * 4]
    before = growth.trees(3)[0][0]
    assert before.feature[[0, 1, 6]].tolist() == [0, 1, 2] and before.threshold[0] == 2.5
    scanned = []
    pair_costs = tree_module.pair_costs

    def recorded(rows, *args):
        scanned.append(rows.tolist())
        return pair_costs(rows, *args)

    monkeypatch.setattr(tree_module, "pair_costs", recorded)
    growth.drop(1)
    assert not growth.grown and len(growth.levels) == 1
    survivors = X[:, [0, 2]]
    growth.grow(survivors, y, code_columns(survivors, y), [None], 2, 12, 1)
    left = np.flatnonzero(X[:, 0] < 2.5).tolist()
    assert scanned[0] == left  # the left child alone; the right child keeps its choice unscanned
    assert set().union(*scanned) <= set(left)
    [(flat, gains)] = growth.trees(2)
    fresh_flat, fresh_gains = grown(survivors).trees(2)[0]
    assert flat.to_dict() == fresh_flat.to_dict() and gains.tolist() == fresh_gains.tolist()
    assert flat.feature[0] == 0 and flat.feature[flat.right[0]] == 1  # the right child's column 2, renumbered


@pytest.mark.parametrize("columns", [(1, 1), (1, 0), (2, 1), (0, 0)])
def test_growth_dropping_two_columns_before_it_regrows_grows_the_tree_of_the_survivor(columns):
    rng = np.random.default_rng(4)
    X = rng.integers(0, 4, size=(40, 3)).astype(float)
    y = (X[:, 0] + rng.integers(0, 3, size=40) > 3).astype(np.intp)

    def grown(X):
        growth = tree_module.Growth(y, np.arange(40), 1, resumable=True)
        growth.grow(X, y, code_columns(X, y), [None], X.shape[1], 12, 1)
        return growth

    growth = grown(X)
    survivors = list(range(3))
    for column in columns:
        growth.drop(column)
        survivors.pop(column)
    survivor = X[:, survivors]
    if not growth.grown:
        growth.grow(survivor, y, code_columns(survivor, y), [None], 1, 12, 1)
    assert growth.trees(1)[0][0].to_dict() == grown(survivor).trees(1)[0][0].to_dict()


def test_growth_drop_regrows_after_an_overtaken_leader_goes(monkeypatch):
    # the root costs 0.3, 0.3 - 5e-16 and 0.3 - 1.2e-15: column 0 leads, the margin refuses column 1, and
    # column 2 overtakes column 0 and splits.  Without column 0 the margin refuses column 2 instead, so
    # the root splits on column 1, though column 0 never split anything
    costs = np.array([0.3, 0.3 - 5e-16, 0.3 - 1.2e-15])
    y = np.array([0, 1, 0, 1])
    X = np.repeat(y[:, None], 3, axis=1).astype(float)
    monkeypatch.setattr(tree_module, "pair_costs", lambda rows, sizes, ones, drawn, columns, min_leaf: (
        np.tile(columns, (sizes.size, 1)), np.full(drawn.shape, 0.5)))
    growth = tree_module.Growth(y, np.arange(4), 1, resumable=True)
    growth.grow(X, y, costs, [None], 3, 1, 1)
    assert growth.trees(3)[0][0].feature.tolist() == [2, 0, 0]
    growth.drop(0)
    assert not growth.grown
    growth.grow(X[:, 1:], y, costs[1:], [None], 2, 1, 1)
    assert growth.trees(2)[0][0].feature.tolist() == [0, 0, 0]


# ---------------------------------------------------------------------------
# several nodes searched at once against the per-node loop

def node_case(rng, criterion):
    """A table of 60 rows with ties, constant and duplicated rows, and 1 to 4 disjoint nodes of it.

    Targets are 0/1 labels, or residuals: dyadic, so that every sum is
    exact, or in half the cases with noise, so that the order of the sums
    shows in the costs' last bits.
    """
    n_features = int(rng.integers(1, 12))
    base = rng.integers(0, rng.integers(1, 6, size=n_features), size=(30, n_features)).astype(float)
    base[:, rng.random(n_features) < 0.2] = 1.5  # some constant columns
    X = base[rng.integers(0, 30, size=60)]  # drawn with replacement, as a bootstrap sample is
    if criterion == "gini":
        target = rng.integers(0, 2, size=60)
    else:
        target = rng.choice([-1.0, 0.0, 0.25, 0.5, 2.0], size=60) + rng.normal(0, 1e-3, size=60) * (rng.random() < 0.5)
    free = rng.permutation(60)
    nodes = []
    for _ in range(int(rng.integers(1, 5))):
        size = int(rng.choice([1, 2, rng.integers(3, 16)]))
        nodes.append(np.sort(free[:size]))
        free = free[size:]
    return X, target, nodes


def hexes_of(split):
    return None if split is None else [float(v).hex() for v in split]


@pytest.mark.parametrize("block", [1, 7, 1 << 12])
@pytest.mark.parametrize("min_leaf", [1, 2, 5])
@pytest.mark.parametrize("criterion", ["gini", "mse"])
def test_node_search_matches_per_feature_loop(monkeypatch, criterion, min_leaf, block):
    # blocks of 1 and 7 cost a level in many pieces: one (feature, sample) pair or one node at a time
    monkeypatch.setattr(tree_module, "_PAIR_BLOCK", block)
    monkeypatch.setattr(boosting_module, "_SUM_BLOCK", block)
    rng = np.random.default_rng([min_leaf, block])
    for trial in range(80):
        X, target, nodes = node_case(rng, criterion)
        rows, sizes = np.concatenate(nodes), np.array([node.size for node in nodes])
        Xl, tl = X.tolist(), target.tolist()
        d = X.shape[1]
        if criterion == "gini":
            k = int(rng.integers(1, d + 1))
            drawn = np.array([np.sort(rng.choice(d, size=k, replace=False)) for _ in nodes])
            ones = np.array([int(target[node].sum()) for node in nodes])
            found = cheapest_splits(rows, sizes, ones, drawn, code_columns(X, target), min_leaf)
            expected = [node_split_reference(Xl, node.tolist(), tl, features.tolist(), min_leaf)
                        for node, features in zip(nodes, drawn)]
        else:
            found = boosting_module._cheapest_splits(rows, sizes, target, code_matrix(X), min_leaf)
            expected = [mse_split_reference(Xl, node.tolist(), tl, range(d), min_leaf) for node in nodes]
        for i, reference in enumerate(expected):
            split = None if np.isinf(found[0][i]) else (found[0][i], found[1][i], found[2][i])
            assert hexes_of(split) == hexes_of(reference), (trial, i)


def test_node_search_spans_blocks_on_a_large_node():
    # 900 rows x 40 features exceed the Gini grower's pair block, and 150
    # nodes over 40 columns of 50 values exceed boosting's sum block, at
    # their real sizes, so both kernels cost them in pieces
    rng = np.random.default_rng(9)
    X = rng.integers(0, 50, size=(900, 40)).astype(float)
    y = (X[:, 7] + rng.normal(0, 10, size=900) > 25).astype(int)
    Xl, yl = X.tolist(), y.tolist()
    assert X.size > tree_module._PAIR_BLOCK
    cost, feature, threshold = cheapest_splits(np.arange(900), np.array([900]), np.array([y.sum()]),
                                               np.arange(40)[None], code_columns(X, y), 2)
    assert (cost[0], feature[0], threshold[0]) == node_split_reference(Xl, range(900), yl, range(40), 2)
    assert feature[0] == 7
    coded = code_matrix(X)
    assert 150 * coded[1].size > 2 * boosting_module._SUM_BLOCK
    residual = (y - 0.25) * 2.0 + rng.integers(-8, 8, size=900) * 2.0**-10  # dyadic, so sums are exact
    rows = rng.permutation(900)
    nodes = [np.sort(rows[i:i + 6]) for i in range(0, 900, 6)]
    found = boosting_module._cheapest_splits(np.concatenate(nodes), np.full(150, 6), residual, coded, 1)
    rl = residual.tolist()
    for i, node in enumerate(nodes):
        assert hexes_of((found[0][i], found[1][i], found[2][i])) == hexes_of(
            mse_split_reference(Xl, node.tolist(), rl, range(40), 1)), i


@pytest.mark.parametrize("seed", range(4))
def test_presorted_and_node_sorted_trees_are_identical(seed):
    # max_features equal to the feature count draws no keys, so the tree
    # fitted with a generator scans every feature as the default one does
    rng = np.random.default_rng(seed)
    base = rng.integers(0, 4, size=(50, 6)).astype(float)
    X = base[rng.integers(0, 50, size=120)]
    y = ((X[:, 0] + X[:, 3] + rng.normal(0, 1, size=120)) > 3).astype(int)
    presorted = DecisionTree(min_leaf=int(seed % 3) + 1).fit(X, y)
    at_node = DecisionTree(min_leaf=int(seed % 3) + 1, max_features=6).fit(X, y, rng=np.random.default_rng(0))
    assert presorted.flat.left.size > 5
    assert presorted.flat.to_dict() == at_node.flat.to_dict()
    assert presorted.importances.tolist() == at_node.importances.tolist()


@pytest.mark.parametrize(("min_leaf", "max_features", "bootstrap"),
                         [(1, "sqrt", True), (2, "sqrt", True), (4, 5, True), (2, None, False)])
def test_forest_splits_match_node_reference_on_documented_streams(monkeypatch, min_leaf, max_features, bootstrap):
    # small blocks, so trees grow in several batches and levels are costed in many sorts
    monkeypatch.setattr(forest_module, "_TREE_BLOCK", 200)
    monkeypatch.setattr(tree_module, "_PAIR_BLOCK", 64)
    rng = np.random.default_rng(min_leaf)
    base = rng.integers(0, 5, size=(40, 9)).astype(float)
    X = base[rng.integers(0, 40, size=90)]  # ties and repeated rows
    X[:, 4] = rng.random(90)  # one column of distinct values
    y = ((X[:, 0] + X[:, 3] + rng.normal(0, 1.5, size=90)) > 4).astype(int)
    forest = RandomForest(n_trees=6, max_depth=5, min_leaf=min_leaf, max_features=max_features,
                          bootstrap=bootstrap).fit(X, y, np.random.default_rng(30))
    trees = [t.to_dict() for t in forest.trees]
    k = {"sqrt": 3, 5: 5, None: 9}[max_features]
    Xl, yl = X.tolist(), y.tolist()
    nodes = forest_node_draws(trees, Xl, yl, np.random.default_rng(30), k, bootstrap, 5, min_leaf)
    assert_nodes_match_reference(trees, nodes, Xl, yl, min_leaf)
    assert sum(left != node for tree in trees for node, left in enumerate(tree["left"])) > 30


@pytest.mark.parametrize(("min_leaf", "max_features"), [(1, "sqrt"), (2, 5), (3, 1)])
def test_decision_tree_draws_max_features_as_a_one_tree_forest(min_leaf, max_features):
    rng = np.random.default_rng(min_leaf + 10)
    base = rng.integers(0, 5, size=(40, 9)).astype(float)
    X = base[rng.integers(0, 40, size=150)]
    X[:, 4] = rng.random(150)
    y = ((X[:, 0] + X[:, 3] + rng.normal(0, 1.5, size=150)) > 4).astype(int)
    impl = DecisionTree(max_depth=6, min_leaf=min_leaf, max_features=max_features).fit(X, y, np.random.default_rng(30))
    trees = [impl.to_dict()]
    k = {"sqrt": 3, 5: 5, 1: 1}[max_features]
    Xl, yl = X.tolist(), y.tolist()
    nodes = forest_node_draws(trees, Xl, yl, np.random.default_rng(30), k, False, 6, min_leaf)
    assert_nodes_match_reference(trees, nodes, Xl, yl, min_leaf)
    assert sum(left != node for node, left in enumerate(trees[0]["left"])) > 8
    forest = RandomForest(n_trees=1, max_depth=6, min_leaf=min_leaf, max_features=max_features,
                          bootstrap=False).fit(X, y, np.random.default_rng(30))
    assert forest.trees[0].to_dict() == trees[0]


def test_a_decision_tree_that_draws_features_refuses_to_fit_without_an_rng():
    rng = np.random.default_rng(5)
    X = rng.random((200, 6))
    y = (X[:, 0] + X[:, 1] > 1).astype(int)
    for max_features in (2, "sqrt"):
        with pytest.raises(FitError, match=f"max_features={max_features!r} draws 2 of 6 features per node, "
                                           "which needs an rng"):
            DecisionTree(max_features=max_features).fit(X, y)
    # a tree over every feature draws nothing, so an rng leaves it as it is
    whole = DecisionTree(max_features=6).fit(X, y)
    assert whole.flat.to_dict() == DecisionTree().fit(X, y, np.random.default_rng(1)).flat.to_dict()
    assert whole.flat.left.size > 5


def assert_nodes_match_reference(trees, nodes, X, y, min_leaf):
    """Each node of ``trees`` (``to_dict`` payloads) against the node scan of its samples and drawn features.

    ``nodes`` is :func:`oracles.forest_node_draws` of the trees.  Also checks
    every node's sample count and value, and each tree's importances.
    """
    assert sorted((t, node) for t, node, _, _ in nodes) == [(t, i) for t, tree in enumerate(trees)
                                                            for i in range(len(tree["left"]))]
    gains = np.zeros((len(trees), len(X[0])))
    for t, node, rows, features in nodes:
        tree = trees[t]
        assert tree["n_samples"][node] == len(rows)
        assert tree["value"][node] == sum(y[r] for r in rows) / len(rows)
        expected = None if features is None else node_split_reference(X, rows, y, features, min_leaf)
        if expected is None:
            assert tree["left"][node] == node, (t, node)
        else:
            assert tree["left"][node] != node, (t, node)
            assert (tree["feature"][node], tree["threshold"][node]) == (expected[1], expected[2]), (t, node)
            gains[t, expected[1]] += len(rows) * max(gini([y[r] for r in rows]) - expected[0], 0.0)
    for t, tree in enumerate(trees):
        assert tree["importances"] == pytest.approx(gains[t] / gains[t].sum(), rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("pair_block", [1, 7, 64, tree_module._PAIR_BLOCK])
def test_tree_does_not_depend_on_the_pair_block(monkeypatch, pair_block):
    # 900 rows x 40 features exceed the default block, so even it costs the root in slices
    rng = np.random.default_rng(3)
    X = rng.integers(0, 30, size=(900, 40)).astype(float)
    y = (X[:, 5] + X[:, 17] + rng.normal(0, 8, size=900) > 30).astype(int)
    assert X.size > tree_module._PAIR_BLOCK
    monkeypatch.setattr(tree_module, "_PAIR_BLOCK", 1 << 30)  # every level in one sort
    whole = DecisionTree(max_depth=6).fit(X, y)
    monkeypatch.setattr(tree_module, "_PAIR_BLOCK", pair_block)
    costed = []  # the (feature, sample) pairs of every sort
    cost_pairs = tree_module._cost_pairs

    def counted(rows, sizes, ones, drawn, *rest):
        costed.append(rows.size * drawn.shape[1])
        return cost_pairs(rows, sizes, ones, drawn, *rest)

    monkeypatch.setattr(tree_module, "_cost_pairs", counted)
    sliced = DecisionTree(max_depth=6).fit(X, y)
    assert max(costed) <= max(pair_block, 900)  # a block, or one feature of the root
    assert whole.flat.left.size > 20
    assert sliced.to_dict() == whole.to_dict()
    assert sliced.importances.tolist() == whole.importances.tolist()


def test_trees_without_features_are_one_leaf():
    y = np.array([0, 1, 0, 1, 1])
    impl = DecisionTree().fit(np.zeros((5, 0)), y)
    forest = RandomForest(n_trees=2, bootstrap=False).fit(np.zeros((5, 0)), y, np.random.default_rng(0))
    for flat in (impl.flat, *(tree.flat for tree in forest.trees)):
        assert flat.to_dict() == {"feature": [0], "threshold": [0.0], "left": [0], "right": [0], "value": [0.6],
                                  "n_samples": [5]}


def test_split_between_adjacent_doubles_separates_them():
    # the midpoint of 1 and the next double rounds onto 1, so the threshold must be the upper value
    up = np.nextafter(1.0, 2.0)
    X = np.array([[1.0], [1.0], [up], [up]])
    y = np.array([0, 0, 1, 1])
    impl = DecisionTree(min_leaf=1).fit(X, y)
    assert impl.flat.left.size == 3
    assert impl.predict_scores(X).tolist() == [0.0, 0.0, 1.0, 1.0]
    forest = RandomForest(n_trees=1, min_leaf=1, bootstrap=False).fit(X, y, np.random.default_rng(0))
    assert forest.predict_scores(X).tolist() == [0.0, 0.0, 1.0, 1.0]
    boosted = GradientBoostedTrees(n_trees=1, max_depth=1).fit(X, y)
    assert boosted.trees[0].left.size == 3
    assert (X[:, boosted.trees[0].feature[0]] < boosted.trees[0].threshold[0]).tolist() == [True, True, False, False]


def test_growers_partition_no_rows_for_children_at_max_depth(monkeypatch):
    rng = np.random.default_rng(5)
    X = rng.integers(0, 6, size=(80, 4)).astype(float)
    y = (X[:, 0] + X[:, 2] + rng.normal(0, 1, size=80) > 5).astype(int)
    for module, grow in ((tree_module, lambda: DecisionTree(max_depth=2, min_leaf=1).fit(X, y).flat),
                         (boosting_module, lambda: grow_regression_tree(X, code_matrix(X), y - 0.5, np.full(80, 0.25),
                                                                        2, 1))):
        partitioned = []  # the split nodes of every partitioned level
        partition = module._partition

        def counted(X, y, rows, sizes, *rest):
            partitioned.append(sizes.size)
            return partition(X, y, rows, sizes, *rest)

        monkeypatch.setattr(module, "_partition", counted)
        flat = grow()
        assert flat.depth == 2
        assert partitioned == [1, 2], module  # the root's level and the next; never the level at max_depth


# ---------------------------------------------------------------------------
# boosting's squared-error trees, node by node against the brute-force oracle

def boosting_case(name, rng):
    """``(X, residual, hessian)``: residuals and hessians dyadic, so every sum is exact in any order."""
    n = 40
    if name == "ties":  # few-valued columns, many tied values and costs
        X = rng.integers(0, 3, size=(n, 5)).astype(float)
        X[:, 4] = rng.integers(0, 2, size=n)
    elif name == "adjacent":  # columns of two adjacent doubles, whose midpoint rounds onto the lower
        X = np.where(rng.random((n, 3)) < 0.5, 1.0, np.nextafter(1.0, 2.0))
        X[:, 2] = rng.integers(0, 4, size=n) + np.where(rng.random(n) < 0.5, 0.0, 2.0**-52)
    else:
        X = rng.integers(0, 6, size=(n, 4)).astype(float)
    if name == "constant":  # every residual within np.allclose of the first: the root is a leaf
        residual = np.full(n, 0.5) + rng.integers(0, 2, size=n) * 2.0**-30
    else:
        residual = rng.choice([-0.75, -0.5, 0.25, 0.5, 1.0], size=n) + rng.integers(-4, 4, size=n) * 2.0**-12
    if name == "single_leaf":
        X[:, :] = 2.5  # no boundary anywhere
    hessian = rng.choice([0.125, 0.25, 0.1875], size=n)
    return X, residual, hessian


@pytest.mark.parametrize("case", ["ties", "adjacent", "constant", "single_leaf", "spread"])
@pytest.mark.parametrize("min_leaf", [1, 2, 5])
def test_boosted_trees_match_the_mse_oracle_node_by_node(case, min_leaf):
    rng = np.random.default_rng([min_leaf, len(case)])
    X, residual, hessian = boosting_case(case, rng)
    flat = grow_regression_tree(X, code_matrix(X), residual, hessian, 4, min_leaf)
    tree = flat.to_dict()
    Xl, rl, hl = X.tolist(), residual.tolist(), hessian.tolist()
    nodes = tree_node_rows(tree, Xl, range(len(Xl)))
    assert sorted(node for node, _, _ in nodes) == list(range(len(tree["left"])))
    for node, depth, rows in nodes:
        assert tree["n_samples"][node] == len(rows)
        h = sum(hl[r] for r in rows)
        assert tree["value"][node] == (0.0 if h <= 1e-12 else sum(rl[r] for r in rows) / h), node
        target = [rl[r] for r in rows]
        constant = all(abs(t - target[0]) <= 1e-8 + 1e-5 * abs(target[0]) for t in target)
        expected = None
        if depth < 4 and len(rows) >= 2 * min_leaf and not constant:
            expected = mse_split_reference(Xl, rows, rl, range(X.shape[1]), min_leaf)
        if expected is None:
            assert tree["left"][node] == node, node
        else:
            assert (tree["feature"][node], float(tree["threshold"][node]).hex()) == (expected[1], expected[2].hex())
    if case in ("constant", "single_leaf"):
        assert len(tree["left"]) == 1
    else:
        assert len(tree["left"]) > 5


def test_boosted_fit_matches_the_mse_oracle_node_by_node_bit_for_bit():
    # real residuals, not dyadic: the oracle adds them in the kernel's order, so splits agree in every bit
    rng = np.random.default_rng(12)
    X = rng.integers(0, 8, size=(120, 5)).astype(float)
    X[:, 3] = rng.random(120)
    y = ((X[:, 0] + 4 * X[:, 3] + rng.normal(0, 1.5, size=120)) > 5).astype(float)
    model = GradientBoostedTrees(n_trees=6, max_depth=3, min_leaf=2).fit(X, y)
    Xl = X.tolist()
    raw = np.full(120, model.base_score)
    inner = 0
    for flat in model.trees:
        tree = flat.to_dict()
        residual = (y - sigmoid(raw)).tolist()  # the fit's own float operations
        for node, depth, rows in tree_node_rows(tree, Xl, range(len(Xl))):
            target = [residual[r] for r in rows]
            expected = None
            if depth < 3 and len(rows) >= 4 and not all(abs(t - target[0]) <= 1e-8 + 1e-5 * abs(target[0])
                                                          for t in target):
                expected = mse_split_reference(Xl, rows, residual, range(5), 2)
            if expected is None:
                assert tree["left"][node] == node
                continue
            inner += 1
            assert (tree["feature"][node], float(tree["threshold"][node]).hex()) == (expected[1], expected[2].hex())
        raw += model.learning_rate * np.array([walk_flat_tree(tree, row) for row in Xl])
    assert inner > 20


def test_mlp_flat_adam_step_matches_per_array_loop():
    rng = np.random.default_rng(8)
    X = rng.random((120, 7))  # 120 rows: three full batches of 32 and one of 24
    y = (X[:, 0] + X[:, 3] > 1.0).astype(float)
    model = MLP(hidden=16, epochs=6, learning_rate=0.01, batch_size=32).fit(X, y, np.random.default_rng(4))
    w1, b1, w2, b2 = mlp_adam_reference(X, y, 16, 6, 0.01, 32, np.random.default_rng(4))
    assert model.w1.tobytes() == w1.tobytes()
    assert model.b1.tobytes() == b1.tobytes()
    assert model.w2.tobytes() == w2.tobytes()
    assert float(model.b2).hex() == b2.hex()
    assert np.any(model.b1 != 0.0)


def hexes(values) -> list[str]:
    return [float(v).hex() for v in np.ravel(values)]


@pytest.mark.parametrize("n_stacked", [1, 7])
@pytest.mark.parametrize("k", [1, 2, 5])
def test_stacked_descent_matches_one_fit_per_slice(k, n_stacked):
    # forward selection's layout: rows of a feature-major copy, viewed as (C, n, k),
    # lay each slice out like Xs[:, cols]
    rng = np.random.default_rng(20 + k)
    Xs, Hs = rng.random((300, 9)), rng.random((90, 9))
    y = (Xs[:, 0] + 0.3 * rng.normal(size=300) > 0.5).astype(int)
    cols = np.array([rng.choice(9, size=k, replace=False) for _ in range(n_stacked)])
    w, b = descend(np.ascontiguousarray(Xs.T)[cols].transpose(0, 2, 1), y.astype(float), **LOGISTIC_DEFAULTS)
    scores = sigmoid((np.ascontiguousarray(Hs.T)[cols].transpose(0, 2, 1) @ w[:, :, None])[:, :, 0] + b[:, None])
    assert w.shape == (n_stacked, k) and b.shape == (n_stacked,)
    for c in range(n_stacked):
        lone = LogisticRegression(**LOGISTIC_DEFAULTS).fit(Xs[:, cols[c]], y)
        assert hexes(w[c]) == hexes(lone.weights)
        assert b[c].hex() == lone.bias.hex()
        assert hexes(scores[c]) == hexes(lone.predict_scores(Hs[:, cols[c]]))


@pytest.mark.parametrize("n_stacked", [1, 7])
@pytest.mark.parametrize("k", [1, 2, 5])
def test_descent_takes_the_bits_of_the_all_matmul_epoch_loop(k, n_stacked):
    # signed zeros and negative cells: a one-column stack multiplies where the loop took X @ w
    rng = np.random.default_rng(30 + k)
    Xs = rng.normal(size=(300, 9))
    Xs[::7, :3] = 0.0
    Xs[1::11, 3:6] = -0.0
    y = (Xs[:, 0] + 0.3 * rng.normal(size=300) > 0.2).astype(float)
    cols = np.array([rng.choice(9, size=k, replace=False) for _ in range(n_stacked)])
    X = np.ascontiguousarray(Xs.T)[cols].transpose(0, 2, 1)
    w, b = descend(X, y, **LOGISTIC_DEFAULTS)
    w_ref, b_ref = logistic_descend_reference(X, y, **LOGISTIC_DEFAULTS)
    assert hexes(w) == hexes(w_ref) and hexes(b) == hexes(b_ref)


def counted_tables(rng, n_stacked: int, k: int, size: int):
    """A stack of distinct-row tables in forward selection's layout: each slice
    holds its first ``distinct`` rows, then rows of count 0 up to ``size``."""
    T = np.zeros((n_stacked, k, size))
    counts = np.zeros((n_stacked, size))
    ones = np.zeros((n_stacked, size))
    for c in range(n_stacked):
        distinct = int(rng.integers(1, size + 1))
        T[c, :, :distinct] = rng.normal(size=(k, distinct))
        counts[c, :distinct] = rng.integers(1, 40, size=distinct)
        ones[c, :distinct] = rng.integers(0, counts[c, :distinct] + 1)
    return T.transpose(0, 2, 1), ones, counts


@pytest.mark.parametrize("n_stacked", [1, 7])
@pytest.mark.parametrize("k", [1, 2, 5])
def test_counted_descent_matches_the_per_slice_loop(k, n_stacked):
    X, ones, counts = counted_tables(np.random.default_rng(40 + k), n_stacked, k, 16)
    w, b = descend(X, ones, **LOGISTIC_DEFAULTS, counts=counts)
    w_ref, b_ref = logistic_counted_descend_reference(X, ones, counts, **LOGISTIC_DEFAULTS)
    assert hexes(w) == hexes(w_ref) and hexes(b) == hexes(b_ref)


@pytest.mark.parametrize("k", [1, 2, 5])
def test_counted_descent_agrees_with_its_rows_expanded(k):
    # the same loss and steps, summed per distinct row: only the rounding of the sums differs
    X, ones, counts = counted_tables(np.random.default_rng(50 + k), 3, k, 32)
    w, b = descend(X, ones, **LOGISTIC_DEFAULTS, counts=counts)
    for c in range(3):
        rows = np.repeat(np.arange(32), counts[c].astype(int))
        labels = np.concatenate([[1.0] * int(o) + [0.0] * int(t - o) for o, t in zip(ones[c], counts[c])])
        lone = LogisticRegression(**LOGISTIC_DEFAULTS).fit(X[c][rows], labels)
        np.testing.assert_allclose(w[c], lone.weights, rtol=1e-12, atol=0)
        np.testing.assert_allclose(b[c], lone.bias, rtol=1e-12, atol=0)
