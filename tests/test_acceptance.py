"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to watch the lines stream.
The census-style grid (criterion 1) is the slow one, ~20 s on a laptop.
"""
import contextlib
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    brute_force_auprc,
    brute_force_gini_gain,
    brute_force_info_gain_ratio,
    is_display_suppressed,
)
from tabevade.attack import AttackConfig, build_plan
from tabevade.data import Dataset, FeatureSchema, FeatureSpec, split
from tabevade.errors import MetricError
from tabevade.evaluation import (
    GridResult,
    GridSpec,
    epsilon_grid,
    evaluate_attack,
    grid_search,
    max_success_curve,
)
from tabevade.metrics import auprc, success_rate
from tabevade.models import MODEL_KINDS, fit
from tabevade.ranking import gini_gain, info_gain_ratio
from tabevade.synth import census_like, demo_pages, gaussian_blobs, web_demo_dataset
from tabevade.pageparse import collect_events
from tabevade.webfeatures import WEB_FEATURE_NAMES, element_sequence, extract_features
from tabevade.webspace import CONTAINER_ATTR, InjectionPlan, inject, problem_space_attack

from test_attack import check_invariants, random_plan_and_rows


@contextlib.contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({label}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({label}): PASS")


def test_criterion_1_census_grid_reaches_90_percent_for_every_model():
    with criterion(1, "census-style grid search, success >= 90% at eps <= 1.5 for all models"):
        ds = census_like(3000, seed=41)
        train, test = split(ds, 0.8, seed=0)
        spec = GridSpec(
            n_values=tuple(range(1, 15)),
            epsilon_values=epsilon_grid(0.001, 2.0, 25),
            methods=("info_gain_ratio",),
            model_kinds=MODEL_KINDS,
        )
        grid = grid_search(train, test, spec, seed=0)
        assert len(grid.records) == 14 * 25 * len(MODEL_KINDS)
        for kind in MODEL_KINDS:
            hits = [
                r
                for r in grid.records
                if r.model == kind and r.success_rate >= 0.90 and r.epsilon <= 1.5
            ]
            assert hits, f"{kind} never reached 90% success within eps <= 1.5"


def test_criterion_2_success_rate_formula_fidelity():
    with criterion(2, "success-rate formula fidelity"):
        assert success_rate(0.975, 0.037) == pytest.approx(0.962, abs=0.0005)
        assert success_rate(0.906, 0.0) == 1.0


def test_criterion_3_epsilon_monotonicity():
    with criterion(3, "epsilon positively correlates with success"):
        ds = gaussian_blobs(600, seed=13, separation=2.0)
        train, test = split(ds, 0.8, seed=0)
        spec = GridSpec(
            n_values=(1, 2),
            epsilon_values=epsilon_grid(0.0, 2.0, 10),
            methods=("gini_impurity",),
            model_kinds=("logistic_regression",),
        )
        grid = grid_search(train, test, spec, seed=0)
        curve = max_success_curve(grid, "epsilon", "logistic_regression")
        values = [p.success_rate for p in curve]
        assert len(values) == 10
        backward_steps = sum(1 for a, b in zip(values, values[1:]) if b < a - 1e-9)
        assert backward_steps <= 1, f"curve {values} is non-monotone in {backward_steps} steps"
        assert values[-1] > values[0]


def test_criterion_4_perturbation_invariant_suite():
    with criterion(4, "perturbation invariants over 1000 random samples"):
        checked = 0
        seed = 0
        while checked < 1000:
            plan, rows = random_plan_and_rows(seed=seed, n_rows=10)
            for x in rows:
                check_invariants(plan, x)
                checked += 1
            # epsilon = 0 must be a bit-exact identity on the same plan
            zero_plan = type(plan)(
                schema=plan.schema,
                ranking=plan.ranking,
                direction=plan.direction,
                config=AttackConfig(n=plan.config.n, epsilon=0.0),
                scaler=plan.scaler,
            )
            from tabevade.attack import perturb

            assert np.array_equal(perturb(rows[0], zero_plan), rows[0])
            seed += 1


def test_criterion_5_ranker_oracle_equivalence():
    with criterion(5, "gini / info-gain-ratio match brute force on 50 datasets"):
        rng = np.random.default_rng(77)
        schema_cache = {}
        for _ in range(50):
            n = int(rng.integers(4, 17))
            f = int(rng.integers(2, 5))
            X = np.round(rng.normal(size=(n, f)) * 3, 1)
            y = rng.integers(0, 2, size=n)
            if y.min() == y.max():
                y[0] = 1 - y[0]
            if f not in schema_cache:
                schema_cache[f] = FeatureSchema(
                    features=tuple(FeatureSpec(f"f{j}", "continuous") for j in range(f)),
                    target_column="class",
                    positive_class_label="1",
                    negative_class_label="0",
                )
            ds = Dataset(X=X, y=y, schema=schema_cache[f])
            for j in range(f):
                col, labels = list(X[:, j]), list(y)
                assert gini_gain(ds, j) == pytest.approx(
                    brute_force_gini_gain(col, labels), abs=1e-9
                )
                assert info_gain_ratio(ds, j) == pytest.approx(
                    brute_force_info_gain_ratio(col, labels), abs=1e-9
                )


def test_criterion_6_auprc_oracle_and_degradation():
    with criterion(6, "AUPRC oracle equivalence and attack-driven drop"):
        rng = np.random.default_rng(99)
        for _ in range(100):
            n = int(rng.integers(4, 60))
            scores = np.round(rng.random(n), 2)
            y = rng.integers(0, 2, size=n)
            if y.min() == y.max():
                y[0] = 1 - y[0]
            assert auprc(scores, y) == pytest.approx(
                brute_force_auprc(list(scores), list(y)), abs=1e-9
            )
        # clipping the separating features of a detectable class drops AUPRC
        ds = census_like(800, seed=5)
        train, test = split(ds, 0.8, seed=0)
        model = fit("random_forest", train, hyperparameters={"n_trees": 30}, seed=0)
        plan = build_plan(train, AttackConfig(n=10, epsilon=1.2, method="info_gain_ratio"), seed=0)
        report = evaluate_attack(model, test, plan)
        assert report.auprc_attack < report.auprc_baseline


def _assert_invisibility_proxy(page, injected):
    original_events = collect_events(page.html).elements
    injected_events = collect_events(injected.html).elements
    key = lambda e: (e[0], tuple(sorted(e[1].items())))

    visible = lambda events: [
        key(e) for e in events if not is_display_suppressed(e[1]) and e[0] != "meta"
    ]
    assert visible(injected_events) == visible(original_events)

    idx = 0
    in_container = False
    for tag, attrs, in_head in injected_events:
        if CONTAINER_ATTR in attrs:
            in_container = True
            continue
        if idx < len(original_events) and (tag, attrs) == original_events[idx][:2]:
            idx += 1
            continue
        assert in_container or (tag == "meta" and in_head), f"unsuppressed new node <{tag}>"
    assert idx == len(original_events), "an original node went missing"


def test_criterion_7_problem_space_round_trip_and_demo():
    with criterion(7, "problem-space round trip on 20 pages + evasion demo"):
        rng = np.random.default_rng(3)
        pages = [page for _, page, _ in demo_pages(20, 0, seed=8)]
        assert len(pages) == 20
        tested_features = ("href", "meta", "iframes", "images", "forms")
        for page in pages:
            plan = InjectionPlan(
                additions={f: int(rng.integers(1, 6)) for f in tested_features}
            )
            injected = inject(page, plan)
            before = extract_features(page)
            after = extract_features(injected)
            for f, k in plan.additions.items():
                assert after[f] >= before[f] + k, f
                if f in ("meta", "iframes"):
                    assert after[f] == before[f] + k, f
            assert len(injected.html) > len(page.html)
            seq_before = element_sequence(page.html)
            seq_after = element_sequence(injected.html)
            it = iter(seq_after)
            assert all(e in it for e in seq_before), "original sequence not preserved"
            _assert_invisibility_proxy(page, injected)

        # end-to-end: at least one of the 20 crafted pages flips its label
        corpus = demo_pages(40, 40, seed=100)
        train_ds = web_demo_dataset(corpus)
        model = fit("logistic_regression", train_ds, seed=0)
        mask = frozenset(train_ds.schema.addable_indices())
        attack_plan = build_plan(
            train_ds,
            AttackConfig(n=9, epsilon=6.0, method="gini_impurity", feature_mask=mask),
            seed=0,
        )
        flips = 0
        for page in pages:
            _, record = problem_space_attack(page, attack_plan, model)
            flips += record.evaded
        assert flips >= 1, "no crafted page evaded the model"


def test_criterion_8_grid_determinism(tmp_path):
    with criterion(8, "grid search determinism (byte-identical CSVs)"):
        ds = census_like(600, seed=7)
        train, test = split(ds, 0.8, seed=0)
        spec = GridSpec(
            n_values=(1, 4),
            epsilon_values=epsilon_grid(0.05, 1.5, 3),
            methods=("gini_impurity", "info_gain_ratio"),
            model_kinds=("logistic_regression", "gradient_boosted_trees"),
        )
        a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
        grid_search(train, test, spec, seed=11).to_csv(a_path)
        grid_search(train, test, spec, seed=11, workers=2).to_csv(b_path)
        assert a_path.read_bytes() == b_path.read_bytes()
        assert len(GridResult.from_csv(a_path).records) == spec.n_cells
