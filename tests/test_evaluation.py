import json
import multiprocessing
import os

import numpy as np
import pytest

from oracles import brute_force_auprc, confusion_recall
from tabevade.attack import AttackConfig, build_plan
from tabevade.data import Dataset, FeatureSchema, FeatureSpec, split
from tabevade.errors import FitError, MetricError, ResumeError, TabevadeError
from tabevade import evaluation
from tabevade.evaluation import (
    GRID_COLUMNS,
    GridRecord,
    GridResult,
    GridSpec,
    epsilon_grid,
    evaluate_attack,
    fingerprint_path,
    grid_search,
    max_success_curve,
)
from tabevade.metrics import auprc, recall, success_rate
from tabevade.models import fit, predict
from tabevade.synth import census_like, gaussian_blobs


def schema_of(n):
    return FeatureSchema(
        features=tuple(FeatureSpec(f"f{j}", "continuous") for j in range(n)),
        target_column="class",
        positive_class_label="1",
        negative_class_label="0",
    )


# ---------------------------------------------------------------------------
# recall / success rate

def test_recall_all_caught():
    ds = gaussian_blobs(40, seed=0, separation=8.0)
    model = fit("logistic_regression", ds, seed=0)
    assert recall(model, ds.X, ds.y) == 1.0


def test_recall_simple_count():
    # 3 of 4 positives caught by a hand-built constant-ish model
    ds = gaussian_blobs(200, seed=1, separation=6.0)
    model = fit("decision_tree", ds, seed=0)
    X = ds.X[ds.y == 1][:4].copy()
    X[0] += 100.0  # push one positive far outside the positive blob
    y = np.ones(4, dtype=int)
    assert predict(model, X).sum() == 3
    assert recall(model, X, y) == 0.75


def test_recall_matches_confusion_matrix_oracle():
    rng = np.random.default_rng(17)
    ds = gaussian_blobs(500, seed=3, separation=1.0)  # messy overlap
    model = fit("logistic_regression", ds, seed=0)
    preds = predict(model, ds.X)
    assert recall(model, ds.X, ds.y) == pytest.approx(
        confusion_recall(list(preds), list(ds.y))
    )


def test_recall_undefined_without_positives():
    ds = gaussian_blobs(40, seed=0)
    model = fit("logistic_regression", ds, seed=0)
    with pytest.raises(MetricError):
        recall(model, ds.X, np.zeros(ds.n_rows, dtype=int))


def test_success_rate_reported_pairs():
    assert success_rate(0.975, 0.037) == pytest.approx(0.962, abs=0.0005)
    assert success_rate(0.906, 0.0) == 1.0
    assert success_rate(0.5, 0.5) == 0.0


def test_success_rate_negative_when_attack_helps():
    assert success_rate(0.8, 0.9) < 0.0


def test_success_rate_undefined_for_zero_baseline():
    with pytest.raises(MetricError):
        success_rate(0.0, 0.0)


def test_success_rate_affine_decreasing_in_attack_recall():
    values = [success_rate(0.8, a) for a in (0.0, 0.2, 0.4, 0.8)]
    assert values == sorted(values, reverse=True)
    assert values[0] == 1.0


# ---------------------------------------------------------------------------
# AUPRC

def test_auprc_perfect_and_inverted_ranking():
    assert auprc([0.9, 0.1], [1, 0]) == 1.0
    # hand 2-point sweep: recall jumps to 1 at precision 1/2
    assert auprc([0.9, 0.1], [0, 1]) == 0.5


def test_auprc_matches_threshold_sweep_oracle():
    rng = np.random.default_rng(29)
    for _ in range(100):
        n = int(rng.integers(5, 51))
        scores = np.round(rng.random(n), 2)  # duplicates exercise tie handling
        y = rng.integers(0, 2, size=n)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        assert auprc(scores, y) == pytest.approx(
            brute_force_auprc(list(scores), list(y)), abs=1e-9
        )


def test_auprc_invariant_under_monotone_transform():
    rng = np.random.default_rng(31)
    scores = rng.random(60)
    y = rng.integers(0, 2, size=60)
    y[0], y[1] = 0, 1
    base = auprc(scores, y)
    assert auprc(np.exp(3 * scores), y) == pytest.approx(base, abs=1e-12)
    assert auprc(scores ** 3, y) == pytest.approx(base, abs=1e-12)


def test_auprc_needs_both_classes():
    with pytest.raises(MetricError):
        auprc([0.1, 0.9], [1, 1])


# ---------------------------------------------------------------------------
# evaluate_attack

def test_evaluate_null_attack_changes_nothing():
    ds = gaussian_blobs(300, seed=5)
    train, test = split(ds, 0.8, seed=0)
    model = fit("logistic_regression", train, seed=0)
    plan = build_plan(train, AttackConfig(n=1, epsilon=0.0), seed=0)
    report = evaluate_attack(model, test, plan)
    assert report.attack_recall == report.baseline_recall
    assert report.success_rate == 0.0
    assert report.auprc_attack == pytest.approx(report.auprc_baseline)


def test_evaluate_full_mimicry_reaches_total_success():
    # the lone separating feature clipped to the target extreme must evade
    rng = np.random.default_rng(8)
    n = 200
    separating = np.where(np.arange(n) % 2 == 0, 0.0, 10.0) + rng.random(n) * 0.1
    X = np.column_stack([separating, rng.normal(size=n)])
    y = (X[:, 0] < 5).astype(int)
    ds = Dataset(X=X, y=y, schema=schema_of(2))
    train, test = split(ds, 0.8, seed=0)
    model = fit("logistic_regression", train, seed=0)
    plan = build_plan(train, AttackConfig(n=1, epsilon=50.0), seed=0)
    report = evaluate_attack(model, test, plan)
    assert report.success_rate == 1.0
    assert report.attack_recall == 0.0


def test_evaluate_report_internally_consistent():
    ds = census_like(400, seed=2)
    train, test = split(ds, 0.8, seed=0)
    model = fit("decision_tree", train, seed=0)
    plan = build_plan(train, AttackConfig(n=4, epsilon=0.6, method="gini_impurity"), seed=0)
    report = evaluate_attack(model, test, plan)
    assert report.success_rate == pytest.approx(
        success_rate(report.baseline_recall, report.attack_recall)
    )


# ---------------------------------------------------------------------------
# grid search

def small_grid_inputs(seed=0, rows=400):
    ds = census_like(rows, seed=seed)
    return split(ds, 0.8, seed=0)


def test_grid_cardinality():
    train, test = small_grid_inputs()
    spec = GridSpec(
        n_values=(1, 3), epsilon_values=(0.1, 0.8), methods=("gini_impurity",),
        model_kinds=("logistic_regression",),
    )
    grid = grid_search(train, test, spec, seed=0)
    assert len(grid.records) == 4


def test_epsilon_grid_endpoints_and_count():
    grid = epsilon_grid(0.001, 4.0, 50)
    assert len(grid) == 50
    assert grid[0] == 0.001 and grid[-1] == 4.0
    steps = np.diff(grid)
    assert np.allclose(steps, steps[0])


def test_grid_argmax_matches_post_hoc_scan():
    train, test = small_grid_inputs(seed=1)
    spec = GridSpec(
        n_values=(1, 2, 4), epsilon_values=tuple(epsilon_grid(0.05, 1.2, 4)),
        methods=("gini_impurity",), model_kinds=("logistic_regression", "decision_tree"),
    )
    grid = grid_search(train, test, spec, seed=0)
    for kind in spec.model_kinds:
        records = [r for r in grid.records if r.model == kind]
        best = max(records, key=lambda r: r.success_rate)
        brute_best = records[0]
        for r in records[1:]:
            if r.success_rate > brute_best.success_rate:
                brute_best = r
        assert best.success_rate == brute_best.success_rate


def test_grid_deterministic_across_runs():
    train, test = small_grid_inputs(seed=2)
    spec = GridSpec(
        n_values=(1, 2), epsilon_values=(0.1, 0.5, 1.0), methods=("gini_impurity",),
        model_kinds=("logistic_regression",),
    )
    a = grid_search(train, test, spec, seed=3)
    b = grid_search(train, test, spec, seed=3)
    assert a.records == b.records


def test_grid_resume_from_partial_sink(tmp_path):
    train, test = small_grid_inputs(seed=3)
    spec = GridSpec(
        n_values=(1, 2), epsilon_values=(0.2, 0.9), methods=("gini_impurity",),
        model_kinds=("logistic_regression",),
    )
    full = grid_search(train, test, spec, seed=0)
    sink = tmp_path / "grid.csv"
    GridResult(records=full.records[:2]).to_csv(sink)
    resumed = grid_search(train, test, spec, seed=0, sink=sink)
    assert resumed.records == full.records
    assert GridResult.from_csv(sink).records == full.records


def test_grid_parallel_workers_match_sequential():
    train, test = small_grid_inputs(seed=4)
    spec = GridSpec(
        n_values=(1, 3), epsilon_values=(0.2, 0.7), methods=("gini_impurity",),
        model_kinds=("logistic_regression", "decision_tree"),
    )
    sequential = grid_search(train, test, spec, seed=0, workers=1)
    parallel = grid_search(train, test, spec, seed=0, workers=3)
    assert sequential.records == parallel.records


def test_grid_csv_round_trip(tmp_path):
    train, test = small_grid_inputs(seed=5)
    spec = GridSpec(
        n_values=(2,), epsilon_values=(0.4,), methods=("gini_impurity",),
        model_kinds=("logistic_regression",),
    )
    grid = grid_search(train, test, spec, seed=0)
    path = tmp_path / "grid.csv"
    grid.to_csv(path)
    assert GridResult.from_csv(path).records == grid.records


def test_grid_spec_validation():
    with pytest.raises(ValueError, match="sorted"):
        GridSpec(n_values=(1,), epsilon_values=(1.0, 0.5), methods=("gini_impurity",),
                 model_kinds=("mlp",))
    with pytest.raises(ValueError, match="non-empty"):
        GridSpec(n_values=(), epsilon_values=(0.5,), methods=("gini_impurity",),
                 model_kinds=("mlp",))
    with pytest.raises(ValueError, match="unknown ranking"):
        GridSpec(n_values=(1,), epsilon_values=(0.5,), methods=("nope",), model_kinds=("mlp",))


@pytest.mark.parametrize("axis, values", [
    ("n_values", (1, 1)),
    ("epsilon_values", (0.5, 0.5)),
    ("methods", ("gini_impurity", "rfe", "gini_impurity")),
    ("model_kinds", ("mlp", "mlp")),
])
def test_grid_spec_rejects_repeated_values(axis, values):
    spec = {"n_values": (1,), "epsilon_values": (0.5,), "methods": ("gini_impurity",), "model_kinds": ("mlp",)}
    spec[axis] = values
    with pytest.raises(ValueError, match="epsilon values" if axis == "epsilon_values" else axis):
        GridSpec(**spec)


# ---------------------------------------------------------------------------
# curves

def toy_grid():
    def rec(model, method, n, eps, s):
        return GridRecord(model, method, n, eps, 0.9, 0.9 * (1 - s), s)

    return GridResult(
        records=(
            rec("mlp", "gini_impurity", 1, 1.0, 0.4),
            rec("mlp", "rfe", 2, 1.0, 0.7),
            rec("mlp", "gini_impurity", 2, 2.0, 0.6),
        )
    )


def test_curve_per_bucket_max():
    curve = max_success_curve(toy_grid(), "epsilon", "mlp")
    assert [(p.axis_value, p.success_rate) for p in curve] == [(1.0, 0.7), (2.0, 0.6)]
    # arg-max hyperparameters ride along
    assert curve[0].record.method == "rfe"


def test_method_axis_one_bar_per_method():
    curve = max_success_curve(toy_grid(), "method", "mlp")
    assert [p.axis_value for p in curve] == ["gini_impurity", "rfe"]


def test_curve_max_equals_grid_max():
    grid = toy_grid()
    for axis in ("n", "epsilon", "method"):
        curve = max_success_curve(grid, axis, "mlp")
        assert max(p.success_rate for p in curve) == max(r.success_rate for r in grid.records)


def test_curve_unknown_model_errors():
    with pytest.raises(MetricError):
        max_success_curve(toy_grid(), "n", "decision_tree")


# ---------------------------------------------------------------------------
# torn and malformed grid files

@pytest.mark.parametrize("body, message", [
    ("logistic_regression,gini_impurity,1,0.5,0.9,0.1,0.8\nlogistic_regression,gini_impurity,2,0.5,0.9\n",
     "line 3: expected 7 cells, found 5"),
    ("logistic_regression,gini_impurity,1,0.5,0.9,0.1,0.8,extra\n", "line 2: expected 7 cells, found 8"),
    ("logistic_regression,gini_impurity,two,0.5,0.9,0.1,0.8\n", "line 2: invalid literal"),
    ("logistic_regression,gini_impurity,1,0.5,0.9,0.1,0.8\n\nlogistic_regression,gini_impurity,1,0.5,0.9,n/a,0.8\n",
     "line 4: could not convert"),
])
def test_grid_csv_malformed_row_names_its_line(tmp_path, body, message):
    path = tmp_path / "grid.csv"
    path.write_text(",".join(GRID_COLUMNS) + "\n" + body, encoding="utf-8")
    with pytest.raises(MetricError, match=f"grid.csv, {message}"):
        GridResult.from_csv(path)


def test_grid_resume_after_truncation_at_every_byte(tmp_path):
    train, test = split(gaussian_blobs(60, seed=6, separation=1.0), 0.7, seed=0)
    spec = GridSpec(
        n_values=(1, 2), epsilon_values=(0.5,), methods=("gini_impurity",),
        model_kinds=("decision_tree",),
    )
    full_sink = tmp_path / "full.csv"
    full = grid_search(train, test, spec, seed=0, sink=full_sink)
    whole = full_sink.read_bytes()
    sink = tmp_path / "torn.csv"
    for offset in range(len(whole) + 1):
        sink.write_bytes(whole[:offset])
        resumed = grid_search(train, test, spec, seed=0, sink=sink)
        assert resumed.records == full.records, offset
        assert sink.read_bytes() == whole, offset


def test_grid_resume_leaves_a_file_that_is_not_a_grid_alone(tmp_path):
    train, test = split(gaussian_blobs(60, seed=6, separation=1.0), 0.7, seed=0)
    spec = GridSpec(n_values=(1,), epsilon_values=(0.5,), methods=("gini_impurity",),
                    model_kinds=("decision_tree",))
    sink = tmp_path / "summary.csv"
    sink.write_bytes(b"model,best\nlogistic_regression,0.9")
    with pytest.raises(MetricError, match="header"):
        grid_search(train, test, spec, seed=0, sink=sink)
    assert sink.read_bytes() == b"model,best\nlogistic_regression,0.9"


def counting(monkeypatch, name, arg):
    """Record positional argument ``arg`` of every call to evaluation.<name>, then pass it on."""
    calls = []
    real = getattr(evaluation, name)

    def wrapper(*args, **kwargs):
        calls.append(args[arg])
        return real(*args, **kwargs)

    monkeypatch.setattr(evaluation, name, wrapper)
    return calls


def test_grid_resume_fits_and_ranks_only_for_pending_cells(tmp_path, monkeypatch):
    train, test = split(gaussian_blobs(80, seed=2, separation=1.5), 0.7, seed=0)
    spec = GridSpec(
        n_values=(1, 2), epsilon_values=(0.3, 0.9), methods=("gini_impurity", "info_gain_ratio"),
        model_kinds=("logistic_regression", "decision_tree"),
    )
    full = grid_search(train, test, spec, seed=0)
    fits, ranks = counting(monkeypatch, "fit", 0), counting(monkeypatch, "rank_features", 1)
    # every logistic cell, and the decision tree's gini_impurity cells, are done
    sink = tmp_path / "grid.csv"
    GridResult(records=tuple(r for r in full.records
                             if r.model == "logistic_regression" or r.method == "gini_impurity")).to_csv(sink)
    assert grid_search(train, test, spec, seed=0, sink=sink).records == full.records
    assert fits == ["decision_tree"]
    assert ranks == ["info_gain_ratio"]
    fits.clear(), ranks.clear()
    assert grid_search(train, test, spec, seed=0, sink=sink).records == full.records
    assert fits == [] and ranks == []
    assert GridResult.from_csv(sink).records == full.records


def test_grid_resume_refuses_a_sink_written_for_other_inputs(tmp_path):
    data = gaussian_blobs(80, seed=1)
    spec = GridSpec(n_values=(1,), epsilon_values=(0.5,), methods=("gini_impurity",),
                    model_kinds=("logistic_regression",))
    sink = tmp_path / "grid.csv"
    train, test = split(data, 0.7, seed=0)
    grid_search(train, test, spec, seed=0, sink=sink)
    assert fingerprint_path(sink).exists()
    written = sink.read_bytes()
    other_train, other_test = split(data, 0.7, seed=5)
    with pytest.raises(ResumeError, match=r"\(differing: seed, test_X, test_y, train_X, train_y\)"):
        grid_search(other_train, other_test, spec, seed=3, sink=sink)
    with pytest.raises(ResumeError, match=r"\(differing: seed\)"):
        grid_search(train, test, spec, seed=3, sink=sink)
    wider = GridSpec(n_values=(1, 2), epsilon_values=(0.5,), methods=("gini_impurity",),
                     model_kinds=("logistic_regression",))
    with pytest.raises(ResumeError, match=r"\(differing: spec\)"):
        grid_search(train, test, wider, seed=0, sink=sink)
    assert sink.read_bytes() == written
    # the inputs that started it still resume it
    assert grid_search(train, test, spec, seed=0, sink=sink).records == GridResult.from_csv(sink).records
    fresh = grid_search(other_train, other_test, spec, seed=3)
    assert fresh.records != GridResult.from_csv(sink).records


def test_grid_resume_of_a_sink_without_fingerprint_writes_one(tmp_path):
    train, test = split(gaussian_blobs(60, seed=6, separation=1.0), 0.7, seed=0)
    spec = GridSpec(n_values=(1, 2), epsilon_values=(0.5,), methods=("gini_impurity",),
                    model_kinds=("decision_tree",))
    full = grid_search(train, test, spec, seed=0)
    sink = tmp_path / "grid.csv"
    GridResult(records=full.records[:1]).to_csv(sink)
    assert grid_search(train, test, spec, seed=0, sink=sink).records == full.records
    stored = json.loads(fingerprint_path(sink).read_text(encoding="utf-8"))
    assert stored["seed"] == 0 and stored["spec"]["model_kinds"] == ["decision_tree"]
    with pytest.raises(ResumeError, match="seed"):
        grid_search(train, test, spec, seed=1, sink=sink)


def test_grid_resume_refuses_an_unreadable_fingerprint(tmp_path):
    train, test = split(gaussian_blobs(60, seed=6, separation=1.0), 0.7, seed=0)
    spec = GridSpec(n_values=(1,), epsilon_values=(0.5,), methods=("gini_impurity",),
                    model_kinds=("decision_tree",))
    sink = tmp_path / "grid.csv"
    grid_search(train, test, spec, seed=0, sink=sink)
    fingerprint_path(sink).write_text('{"seed": 0', encoding="utf-8")
    with pytest.raises(ResumeError, match="not valid JSON"):
        grid_search(train, test, spec, seed=0, sink=sink)


def fake_pool(monkeypatch):
    """Swap evaluation's ProcessPoolExecutor for one that starts no process:
    it runs its tasks here and records its max_workers and task list."""
    pools = []

    class InProcessPool:
        def __init__(self, max_workers):
            self.max_workers, self.tasks = max_workers, []
            pools.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, *iterables):
            self.tasks = list(tasks)
            return map(fn, self.tasks, *iterables)

    monkeypatch.setattr(evaluation, "ProcessPoolExecutor", InProcessPool)
    return pools


def test_grid_pool_has_no_more_processes_than_pending_fits_and_rankings(tmp_path, monkeypatch):
    train, test = split(gaussian_blobs(80, seed=2, separation=1.5), 0.7, seed=0)
    narrow = GridSpec(n_values=(1, 2), epsilon_values=(0.3, 0.9), methods=("gini_impurity",),
                      model_kinds=("logistic_regression", "decision_tree"))
    wide = GridSpec(n_values=narrow.n_values, epsilon_values=narrow.epsilon_values,
                    methods=("gini_impurity", "info_gain_ratio"), model_kinds=narrow.model_kinds)
    expected = {spec: grid_search(train, test, spec, seed=0) for spec in (narrow, wide)}
    pools = fake_pool(monkeypatch)
    assert grid_search(train, test, narrow, seed=0, workers=8).records == expected[narrow].records
    assert [(p.max_workers, p.tasks) for p in pools] == [
        (3, [("fit", "logistic_regression"), ("fit", "decision_tree"), ("rank_features", "gini_impurity")]),
    ]
    # every logistic cell, and the decision tree's gini_impurity cells, are done
    sink = tmp_path / "grid.csv"
    GridResult(records=tuple(r for r in expected[wide].records
                             if r.model == "logistic_regression" or r.method == "gini_impurity")).to_csv(sink)
    pools.clear()
    assert grid_search(train, test, wide, seed=0, sink=sink, workers=8).records == expected[wide].records
    assert [(p.max_workers, p.tasks) for p in pools] == [
        (2, [("fit", "decision_tree"), ("rank_features", "info_gain_ratio")]),
    ]
    pools.clear()
    assert grid_search(train, test, wide, seed=0, sink=sink, workers=8).records == expected[wide].records
    assert pools == []


fork_only = pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                               reason="workers see the test's patch of evaluation.fit only when forked")


def patch_fit_in_workers(monkeypatch, effect):
    """Make evaluation.fit call ``effect`` in a worker; in this process it fails the test."""
    parent = os.getpid()

    def fit_in_worker(*args, **kwargs):
        if os.getpid() == parent:
            raise AssertionError("fit ran in the calling process, not in a worker")
        effect()

    monkeypatch.setattr(evaluation, "fit", fit_in_worker)


@fork_only
def test_grid_worker_that_dies_raises_tabevade_error(monkeypatch):
    train, test = small_grid_inputs(seed=4)
    spec = GridSpec(n_values=(1,), epsilon_values=(0.5,), methods=("gini_impurity",),
                    model_kinds=("logistic_regression", "decision_tree"))
    patch_fit_in_workers(monkeypatch, lambda: os._exit(1))
    with pytest.raises(TabevadeError, match="--workers") as caught:
        grid_search(train, test, spec, seed=0, workers=2)
    assert type(caught.value) is TabevadeError


@fork_only
def test_grid_worker_raised_tabevade_error_passes_through(monkeypatch):
    train, test = small_grid_inputs(seed=4)
    spec = GridSpec(n_values=(1,), epsilon_values=(0.5,), methods=("gini_impurity",),
                    model_kinds=("logistic_regression",))

    def refuse():
        raise FitError("the training rows hold one class")

    patch_fit_in_workers(monkeypatch, refuse)
    with pytest.raises(FitError, match="the training rows hold one class"):
        grid_search(train, test, spec, seed=0, workers=2)
