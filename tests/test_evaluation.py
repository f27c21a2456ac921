import collections
import concurrent.futures.process
import itertools
import json
import multiprocessing
import os

import numpy as np
import pytest

from oracles import brute_force_auprc, confusion_recall, grid_reference
from tabevade.attack import AttackConfig, AttackPlan, build_plan, compute_direction, perturb_batch
from tabevade.data import Dataset, FeatureSchema, FeatureSpec, fit_scaler, split
from tabevade.errors import FitError, MetricError, ResumeError, SelectionError, TabevadeError
import tabevade
from tabevade import evaluation
from tabevade.evaluation import (
    GRID_COLUMNS,
    GridRecord,
    GridResult,
    GridSpec,
    epsilon_grid,
    evaluate_attack,
    fingerprint_path,
    numeric_platform,
    grid_search,
    max_success_curve,
)
from tabevade.metrics import auprc, recall, success_rate
from tabevade.ranking import rank_features
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


def test_evaluate_scores_clean_and_attacked_rows_once_each(monkeypatch):
    train, test = split(census_like(400, seed=2), 0.8, seed=0)
    model = fit("decision_tree", train, seed=0)
    plan = build_plan(train, AttackConfig(n=4, epsilon=0.6, method="gini_impurity"), seed=0)
    calls = []
    real = model.impl.predict_scores
    monkeypatch.setattr(model.impl, "predict_scores", lambda X: calls.append(len(X)) or real(X))
    report = evaluate_attack(model, test, plan)
    assert calls == [test.n_rows, test.n_rows]
    monkeypatch.undo()
    assert report.baseline_recall == recall(model, test.X, test.y)
    attacked = test.X.copy()
    positives = test.rows_of_class(1)
    attacked[positives] = perturb_batch(test.take(positives), plan)
    assert report.attack_recall == recall(model, attacked, test.y)


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


def test_grid_on_a_test_split_without_positives_raises_metric_error():
    train, test = small_grid_inputs()
    spec = GridSpec(n_values=(1,), epsilon_values=(0.5,), methods=("gini_impurity",),
                    model_kinds=("logistic_regression",))
    with pytest.raises(MetricError, match="recall is undefined without positive samples"):
        grid_search(train, test.take(test.rows_of_class(0)), spec, seed=0)


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


@pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), -float("inf"), -0.5])
def test_every_epsilon_entry_refuses_a_non_finite_or_negative_value(epsilon, recwarn):
    with pytest.raises(ValueError, match="epsilon must be a finite number >= 0"):
        AttackConfig(n=1, epsilon=epsilon)
    with pytest.raises(ValueError, match="epsilon values must be finite numbers >= 0"):
        GridSpec(n_values=(1,), epsilon_values=(0.5, epsilon) if epsilon > 0 else (epsilon, 0.5),
                 methods=("gini_impurity",), model_kinds=("mlp",))
    for lo, hi, steps in [(epsilon, 1.0, 3), (0.0, epsilon, 3), (epsilon, epsilon, 1), (0.1, epsilon, 1)]:
        with pytest.raises(ValueError, match="epsilon range ends must be finite numbers >= 0"):
            epsilon_grid(lo, hi, steps)
    assert not recwarn.list  # refused before np.linspace, which warns on inf
    assert AttackConfig(n=1, epsilon=0.0).epsilon == 0.0 and epsilon_grid(0.0, 0.0, 1) == (0.0,)


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


def test_grid_csv_with_a_repeated_cell_names_both_lines(tmp_path):
    path = tmp_path / "grid.csv"
    path.write_text(",".join(GRID_COLUMNS) + "\n"
                    "logistic_regression,gini_impurity,1,0.5,0.9,0.1,0.8\n"
                    "logistic_regression,gini_impurity,2,0.5,0.9,0.1,0.8\n\n"
                    "logistic_regression,gini_impurity,1,0.50,0.9,0.2,0.7\n", encoding="utf-8")
    with pytest.raises(MetricError, match="grid.csv, lines 2 and 5: both hold the cell logistic_regression,gini_"):
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


# epsilon reaches far past saturation, so later epsilons repeat the rows of earlier ones
SATURATING = GridSpec(
    n_values=(1, 2, 4), epsilon_values=(0.001, 0.005, 0.01, 0.02, 0.05, 0.1, 0.3, 1.0, 6.0),
    methods=("info_gain_ratio", "gini_impurity"), model_kinds=("logistic_regression", "decision_tree"),
)


def saturating_inputs():
    return split(census_like(400, seed=0), 0.8, seed=0)


def perturbed_rows(train, test, spec):
    """Each (method, n, epsilon) triple's rows, as ``perturb_batch`` makes them with that triple's own plan."""
    direction, scaler = compute_direction(train), fit_scaler(train)
    positives = test.take(test.rows_of_class(1))
    rows = {}
    for method in spec.methods:
        ranking = rank_features(train, method, seed=0)
        for n in spec.n_values:
            for epsilon in spec.epsilon_values:
                plan = AttackPlan(train.schema, ranking, direction, AttackConfig(n=n, epsilon=epsilon, method=method),
                                  scaler)
                rows[method, n, epsilon] = perturb_batch(positives, plan)
    return rows


def perturbation_runs(train, test, spec):
    """Each (method, n, epsilon) triple's run: runs of consecutive triples, in spec order, with equal rows."""
    keys = {triple: rows.tobytes() for triple, rows in perturbed_rows(train, test, spec).items()}
    runs, run, previous = {}, -1, None
    for triple, key in keys.items():
        run += key != previous
        runs[triple], previous = run, key
    return runs


def test_grid_predicts_once_per_run_of_equal_perturbations(monkeypatch):
    train, test = saturating_inputs()
    reference = grid_reference(train, test, SATURATING, seed=0)
    runs = perturbation_runs(train, test, SATURATING)
    assert max(collections.Counter(runs.values()).values()) > 1
    predicts = counting(monkeypatch, "predict", 0)
    grid = grid_search(train, test, SATURATING, seed=0)
    assert grid.records == reference
    per_kind = collections.Counter(model.kind for model in predicts)
    assert per_kind == {kind: len(set(runs.values())) for kind in SATURATING.model_kinds}


def test_grid_resume_at_every_line_inside_a_run_writes_the_uninterrupted_bytes(tmp_path):
    train, test = saturating_inputs()
    spec = GridSpec(n_values=SATURATING.n_values, epsilon_values=SATURATING.epsilon_values,
                    methods=("info_gain_ratio",), model_kinds=("decision_tree",))
    runs = perturbation_runs(train, test, spec)
    full_sink = tmp_path / "full.csv"
    full = grid_search(train, test, spec, seed=0, sink=full_sink)
    whole = full_sink.read_bytes()
    lines = whole.splitlines(keepends=True)
    run_of = [runs[r.method, r.n, r.epsilon] for r in full.records]
    # a cut after data line i (record i - 1) is inside a run when records i - 1 and i share one
    cuts = [i for i in range(2, len(lines)) if run_of[i - 2] == run_of[i - 1]]
    assert cuts
    sink = tmp_path / "cut.csv"
    for i in cuts:
        sink.write_bytes(b"".join(lines[:i]))
        resumed = grid_search(train, test, spec, seed=0, sink=sink)
        assert resumed.records == full.records, i
        assert sink.read_bytes() == whole, i


@pytest.mark.parametrize("written", ["every other cell", "a cut inside the first kind"])
def test_grid_resume_with_gaps_inside_runs_matches_the_full_grid(tmp_path, monkeypatch, written):
    train, test = saturating_inputs()
    full = grid_search(train, test, SATURATING, seed=0)
    runs = perturbation_runs(train, test, SATURATING)
    kinds = SATURATING.model_kinds
    # every other cell cuts each run into pieces; a cut inside the first kind leaves triples whose
    # first-kind cell is written while the next kind's is pending
    done = full.records[::2] if written == "every other cell" else full.records[:len(runs) // 2]
    sink = tmp_path / "grid.csv"
    GridResult(records=done).to_csv(sink)
    predicts = counting(monkeypatch, "predict", 0)
    assert grid_search(train, test, SATURATING, seed=0, sink=sink).records == full.records
    triples = list(runs)  # spec order, the order the grid perturbs in
    pending = sorted((r for r in full.records if r not in done),
                     key=lambda r: (triples.index((r.method, r.n, r.epsilon)), kinds.index(r.model)))
    pairs = dict.fromkeys((r.model, runs[r.method, r.n, r.epsilon]) for r in pending)  # one predict per pending pair
    assert [model.kind for model in predicts] == [kind for kind, _ in pairs]


def test_grid_resume_of_one_run_per_kind_predicts_each_kind(tmp_path, monkeypatch):
    train, test = saturating_inputs()
    reference = grid_reference(train, test, SATURATING, seed=0)
    runs = perturbation_runs(train, test, SATURATING)
    cells = len(reference) // 2
    logistic, tree = reference[:cells], reference[cells:]
    # a run of several cells whose attack recall differs between the two kinds
    run = next(runs[r.method, r.n, r.epsilon] for r, t in zip(logistic, tree)
               if r.attack_recall != t.attack_recall
               and list(runs.values()).count(runs[r.method, r.n, r.epsilon]) > 1)
    sink = tmp_path / "grid.csv"
    GridResult(records=tuple(r for r in reference if runs[r.method, r.n, r.epsilon] != run)).to_csv(sink)
    predicts = counting(monkeypatch, "predict", 0)
    assert grid_search(train, test, SATURATING, seed=0, sink=sink).records == reference
    assert [model.kind for model in predicts] == list(SATURATING.model_kinds)


def test_grid_resume_with_one_whole_method_and_n_written_perturbs_only_the_others(tmp_path, monkeypatch):
    train, test = saturating_inputs()
    reference = grid_reference(train, test, SATURATING, seed=0)
    sink = tmp_path / "grid.csv"
    GridResult(records=tuple(r for r in reference if (r.method, r.n) == ("gini_impurity", 2))).to_csv(sink)
    plans = counting(monkeypatch, "perturbations", 1)
    assert grid_search(train, test, SATURATING, seed=0, sink=sink).records == reference
    assert [(plan.config.method, plan.config.n) for plan in plans] == [
        pair for pair in itertools.product(SATURATING.methods, SATURATING.n_values) if pair != ("gini_impurity", 2)]


def test_grid_predicts_the_rows_perturb_batch_makes_with_each_triples_plan(monkeypatch):
    train, test = saturating_inputs()
    rows = perturbed_rows(train, test, SATURATING)
    first = {}  # each run's first triple, the one whose rows its predicts get
    for triple, run in perturbation_runs(train, test, SATURATING).items():
        first.setdefault(run, triple)
    predicted = counting(monkeypatch, "predict", 1)
    grid_search(train, test, SATURATING, seed=0)
    assert [X.tobytes() for X in predicted] == [rows[triple].tobytes() for triple in first.values()
                                                for _ in SATURATING.model_kinds]


def test_grid_perturbs_each_pending_triple_once(tmp_path, monkeypatch):
    # one plan and one scaling per (method, n), whose pending epsilons are perturbed in spec order
    train, test = saturating_inputs()
    triples = list(itertools.product(SATURATING.methods, SATURATING.n_values, SATURATING.epsilon_values))
    pairs, perturbed = [], []
    perturbations = evaluation.perturbations

    def recorded(X, plan, epsilons):
        pairs.append((plan.config.method, plan.config.n))
        for epsilon, rows in zip(epsilons, perturbations(X, plan, epsilons)):
            perturbed.append((plan.config.method, plan.config.n, epsilon))
            yield rows

    monkeypatch.setattr(evaluation, "perturbations", recorded)
    batches = counting(monkeypatch, "perturb_batch", 1)
    full = grid_search(train, test, SATURATING, seed=0)
    assert perturbed == triples and batches == []
    assert pairs == list(itertools.product(SATURATING.methods, SATURATING.n_values))
    sink = tmp_path / "grid.csv"
    GridResult(records=full.records[::2]).to_csv(sink)  # every other cell, so each run is cut into pieces
    pairs.clear()
    perturbed.clear()
    assert grid_search(train, test, SATURATING, seed=0, sink=sink).records == full.records
    pending = {(r.method, r.n, r.epsilon) for r in full.records[1::2]}
    assert perturbed == [t for t in triples if t in pending]
    assert pairs == list(dict.fromkeys(t[:2] for t in triples if t in pending))


def test_grid_progress_counts_each_pending_cell_in_order(tmp_path):
    train, test = small_grid_inputs(seed=3)
    spec = GridSpec(n_values=(1, 2), epsilon_values=(0.3, 0.9, 1.5), methods=("gini_impurity",),
                    model_kinds=("logistic_regression", "decision_tree"))
    full = grid_search(train, test, spec, seed=0)
    sink = tmp_path / "grid.csv"
    calls = []

    def progress(finished, total):  # the cell just finished is the sink's last line
        calls.append((finished, total, GridResult.from_csv(sink).records[-1]))

    grid_search(train, test, spec, seed=0, sink=sink, progress=progress)
    assert calls == [(i, spec.n_cells, r) for i, r in enumerate(full.records, start=1)]
    sink.unlink()
    GridResult(records=full.records[::2]).to_csv(sink)
    calls.clear()
    assert grid_search(train, test, spec, seed=0, sink=sink, progress=progress).records == full.records
    done = len(full.records[::2])
    assert calls == [(i, spec.n_cells, r) for i, r in enumerate(full.records[1::2], start=done + 1)]


@pytest.mark.parametrize("workers", [0, -3])
def test_grid_refuses_fewer_than_one_worker_before_writing(tmp_path, workers):
    train, test = small_grid_inputs(seed=3)
    spec = GridSpec(n_values=(1,), epsilon_values=(0.5,), methods=("gini_impurity",),
                    model_kinds=("logistic_regression",))
    with pytest.raises(ValueError, match="workers must be at least 1"):
        grid_search(train, test, spec, seed=0, sink=tmp_path / "grid.csv", workers=workers,
                    started=lambda: pytest.fail("a refused run started"))
    assert list(tmp_path.iterdir()) == []


def test_grid_with_an_n_past_the_eligible_features_refuses_before_any_work(tmp_path, count_calls):
    calls = count_calls(evaluation, "fit", "rank_features")
    train, test = small_grid_inputs()
    spec = GridSpec(n_values=(1, 38), epsilon_values=(0.5,), methods=("gini_impurity",),
                    model_kinds=("logistic_regression",))
    for sink in (tmp_path / "grid.csv", tmp_path / "run" / "grid.csv"):
        with pytest.raises(SelectionError, match="attack wants n=38 features but only 37 are eligible"):
            grid_search(train, test, spec, seed=0, sink=sink, workers=1,
                        started=lambda: pytest.fail("a refused run started"))
    assert calls == {}
    assert list(tmp_path.iterdir()) == []


def test_grid_on_a_test_split_without_positives_refuses_before_any_work(tmp_path, count_calls):
    calls = count_calls(evaluation, "fit", "rank_features")
    train, test = small_grid_inputs()
    spec = GridSpec(n_values=(1,), epsilon_values=(0.5,), methods=("gini_impurity",),
                    model_kinds=("logistic_regression",))
    for sink in (tmp_path / "grid.csv", tmp_path / "run" / "grid.csv"):
        with pytest.raises(MetricError, match="recall is undefined without positive samples"):
            grid_search(train, test.take(test.rows_of_class(0)), spec, seed=0, sink=sink, workers=1,
                        started=lambda: pytest.fail("a refused run started"))
    assert calls == {}
    assert list(tmp_path.iterdir()) == []


def baseline_zero_inputs():
    """Train and test splits on which a logistic regression predicts no positive, and a decision tree some."""
    blobs = gaussian_blobs(400, seed=0, separation=0.0)
    return split(blobs.take(np.sort(np.concatenate([blobs.rows_of_class(1)[:30], blobs.rows_of_class(0)]))), 0.7, 0)


def test_a_kind_whose_baseline_recall_is_0_fails_the_grid_before_its_sink_is_written(tmp_path):
    train, test = baseline_zero_inputs()
    assert recall(fit("logistic_regression", train, seed=0), test.X, test.y) == 0.0
    assert recall(fit("decision_tree", train, seed=0), test.X, test.y) > 0.0
    spec = GridSpec(n_values=(1,), epsilon_values=(0.5,), methods=("gini_impurity",),
                    model_kinds=("logistic_regression", "decision_tree"))
    sink = tmp_path / "grid.csv"
    with pytest.raises(MetricError, match=r"baseline recall is 0, as it is for logistic_regression on this"):
        grid_search(train, test, spec, seed=0, sink=sink)
    assert not sink.exists() and not fingerprint_path(sink).exists()
    # a resume with nothing pending fits nothing, so it still passes
    done = GridResult(records=tuple(GridRecord(kind, "gini_impurity", 1, 0.5, 0.5, 0.25, 0.5)
                                    for kind in spec.model_kinds))
    done.to_csv(sink)
    assert grid_search(train, test, spec, seed=0, sink=sink) == done


def test_grid_makes_a_missing_sink_directory(tmp_path):
    train, test = small_grid_inputs()
    spec = GridSpec(n_values=(1,), epsilon_values=(0.5,), methods=("gini_impurity",),
                    model_kinds=("logistic_regression",))
    sink = tmp_path / "a" / "b" / "grid.csv"
    assert grid_search(train, test, spec, seed=0, sink=sink) == GridResult.from_csv(sink)


def test_grid_sink_is_byte_identical_with_two_workers(tmp_path):
    train, test = saturating_inputs()
    grid_search(train, test, SATURATING, seed=0, sink=tmp_path / "one.csv", workers=1)
    grid_search(train, test, SATURATING, seed=0, sink=tmp_path / "two.csv", workers=2)
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()


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


def test_grid_resume_refuses_a_sink_fingerprinted_by_another_version(tmp_path):
    train, test = split(gaussian_blobs(60, seed=6, separation=1.0), 0.7, seed=0)
    spec = GridSpec(n_values=(1,), epsilon_values=(0.5,), methods=("gini_impurity",),
                    model_kinds=("decision_tree",))
    sink = tmp_path / "grid.csv"
    grid_search(train, test, spec, seed=0, sink=sink)
    stored = json.loads(fingerprint_path(sink).read_text(encoding="utf-8"))
    assert stored["version"] == tabevade.__version__
    fingerprint_path(sink).write_text(json.dumps({**stored, "version": "0.1.0"}), encoding="utf-8")
    with pytest.raises(ResumeError, match=r"\(differing: version\)"):
        grid_search(train, test, spec, seed=0, sink=sink)


@pytest.mark.parametrize("field, other", [("blas_core", "Prescott"), ("numpy_simd", ["X86_V2"])])
def test_grid_resume_refuses_a_sink_fingerprinted_on_other_kernels(tmp_path, field, other):
    # a fit's last bits depend on the BLAS core and numpy's SIMD targets, so cells of two must not mix
    train, test = split(gaussian_blobs(60, seed=6, separation=1.0), 0.7, seed=0)
    spec = GridSpec(n_values=(1,), epsilon_values=(0.5,), methods=("gini_impurity",),
                    model_kinds=("decision_tree",))
    sink = tmp_path / "grid.csv"
    grid_search(train, test, spec, seed=0, sink=sink)
    stored = json.loads(fingerprint_path(sink).read_text(encoding="utf-8"))
    assert stored[field] == numeric_platform()[field]
    fingerprint_path(sink).write_text(json.dumps({**stored, field: other}), encoding="utf-8")
    with pytest.raises(ResumeError, match=rf"\(differing: {field}\)"):
        grid_search(train, test, spec, seed=0, sink=sink)


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
    """Swap the ProcessPoolExecutor that grid_search imports for one that starts no process:
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

    monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", InProcessPool)
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
