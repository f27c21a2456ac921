"""Layer spans for one traced `tabevade` CLI run, and the report built from them.

Run as a script, this module is the traced child:

    python3 perfbench/tracer.py SPANS_JSON RUN_ID -- <tabevade CLI arguments>

It wraps the public functions of every layer from outside the package, runs
``tabevade.cli.run`` with the given arguments, keeps every span in memory and
writes them to SPANS_JSON when the command ends.  A span is
``[id, parent, name, start, end, counts]`` with ``time.perf_counter`` stamps
(CLOCK_MONOTONIC on Linux, so the parent process can compare them with its
own launch and exit stamps).

Wrapping replaces every binding of a function object in every loaded
``tabevade`` module, so the names callers look up (``tabevade.evaluation.predict``,
``tabevade.ranking.models_mod.fit``, ...) all lead to the wrapper.  Model
classes are wrapped at their ``fit``/``predict_scores`` methods; a model call
made inside another model call (a tree inside a forest) is folded into the
outer one and records no span.

The parent side (``analyse``) turns spans into per-span-name calls, total and
self time, checks that they are well formed, and derives the per-layer
metrics listed in BENCHMARK.json.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time

MODEL_CLASSES = {
    "logistic_regression": ("tabevade.models.logistic", "LogisticRegression"),
    "decision_tree": ("tabevade.models.tree", "DecisionTree"),
    "random_forest": ("tabevade.models.forest", "RandomForest"),
    "gradient_boosted_trees": ("tabevade.models.boosting", "GradientBoostedTrees"),
    "mlp": ("tabevade.models.mlp", "MLP"),
}
RANKING_METHODS = ("info_gain_ratio", "gini_impurity", "permutation", "rfe", "ffs")


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


# (module, function, span name, counts from (args, kwargs, result))
FUNCTIONS = (
    ("tabevade.data", "load_schema", "data.load_schema", None),
    ("tabevade.data", "load_dataset", "data.load_dataset", lambda a, k, r: {"rows": r.n_rows}),
    ("tabevade.data", "split", "data.split", None),
    ("tabevade.models", "fit", "models.fit", None),
    ("tabevade.models", "predict", "models.predict", None),
    ("tabevade.models", "predict_score", "models.predict_score", None),
    ("tabevade.models", "load_model", "models.load_model", None),
    ("tabevade.ranking", "rank_features", "ranking.rank_features", None),
    ("tabevade.attack", "build_plan", "attack.build_plan", None),
    ("tabevade.attack", "perturb_batch", "attack.perturb_batch",
     lambda a, k, r: {"rows": int(r.shape[0])}),
    ("tabevade.attack", "perturb", "attack.perturb", lambda a, k, r: {"rows": 1}),
    ("tabevade.evaluation", "grid_search", "evaluation.grid_search",
     lambda a, k, r: {"cells": len(r.records)}),
    ("tabevade.metrics", "recall", "metrics.recall", None),
    ("tabevade.webfeatures", "extract_features", "webfeatures.extract_features",
     lambda a, k, r: {"bytes": len(_arg(a, k, 0, "page").html.encode("utf-8"))}),
    ("tabevade.webspace", "plan_injection", "webspace.plan_injection", None),
    ("tabevade.webspace", "inject", "webspace.inject", None),
    ("tabevade.webspace", "problem_space_attack", "webspace.problem_space_attack",
     lambda a, k, r: {
         "planned": sum(r[1].planned.values()),
         "side_effects": len(r[1].side_effects),
         "evaded": int(r[1].evaded),
     }),
    ("tabevade.cli", "run", "cli.run", None),
)


class Recorder:
    """In-memory span list plus the stack of open spans."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.model_depth = 0
        self.missing: list[str] = []

    def call(self, name, fn, args, kwargs, counts=None):
        parent = self.stack[-1] if self.stack else None
        if parent is not None and self.spans[parent][2] == name:
            return fn(*args, **kwargs)  # recursion folds into the outer call
        span_id = len(self.spans)
        span = [span_id, parent, name, 0.0, 0.0, {}]
        self.spans.append(span)
        self.stack.append(span_id)
        span[3] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[4] = time.perf_counter()
            self.stack.pop()
        if counts is not None:
            span[5] = counts(args, kwargs, result)
        return result

    def wrap(self, name, fn, counts=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counts)

        return wrapper

    def wrap_rank(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = f"ranking.rank_features.{_arg(args, kwargs, 1, 'method')}"
            return self.call(name, fn, args, kwargs)

        return wrapper

    def wrap_model(self, name, fn, counts=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.model_depth:  # a model inside a model folds into the outer one
                return fn(*args, **kwargs)
            self.model_depth += 1
            try:
                return self.call(name, fn, args, kwargs, counts)
            finally:
                self.model_depth -= 1

        return wrapper

    def install(self) -> None:
        """Wrap every traced function and model method; record what is missing."""
        importlib.import_module("tabevade.cli")  # loads every layer module
        modules = [m for n, m in list(sys.modules.items()) if n == "tabevade" or n.startswith("tabevade.")]
        for module_name, attr, name, counts in FUNCTIONS:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            if name == "ranking.rank_features":
                wrapper = self.wrap_rank(original)
            else:
                wrapper = self.wrap(name, original, counts)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        for kind, (module_name, cls_name) in MODEL_CLASSES.items():
            cls = getattr(sys.modules.get(module_name), cls_name, None)
            for method in ("fit", "predict_scores"):
                original = getattr(cls, method, None)
                if original is None:
                    self.missing.append(f"{module_name}.{cls_name}.{method}")
                    continue
                counts = (lambda a, k, r: {"rows": len(_arg(a, k, 1, "X"))}) if method == "predict_scores" else None
                setattr(cls, method, self.wrap_model(f"models.{kind}.{method}", original, counts))


def main(argv: list[str]) -> int:
    spans_path, run_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_JSON RUN_ID -- <tabevade arguments>")
    recorder = Recorder()
    recorder.install()
    cli = sys.modules["tabevade.cli"]
    code = 1
    try:
        code = cli.run(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump({"run_id": run_id, "missing": recorder.missing, "spans": recorder.spans}, handle)
    return code


# ---------------------------------------------------------------------------
# parent side: self time, well-formedness and per-layer metrics

def self_times(spans: list[list]) -> dict[int, float]:
    """Span duration minus the part of it that its child spans cover."""
    own = {s[0]: s[4] - s[3] for s in spans}
    for _, parent, _, start, end, _ in spans:
        if parent in own:
            own[parent] -= end - start
    return own


def check_spans(spans: list[list], launch: float, exit_: float, wall: float,
                unattributed: float, own: dict[int, float]) -> list[str]:
    """Problems that make the trace unusable; an empty list means well formed."""
    problems = []
    by_id = {s[0]: s for s in spans}
    children: dict[object, list[list]] = {}
    for span in spans:
        span_id, parent, name, start, end, _ = span
        if parent is not None and parent not in by_id:
            problems.append(f"span {span_id} ({name}) names missing parent {parent}")
            continue
        if end < start:
            problems.append(f"span {span_id} ({name}) ends before it starts")
        if parent is None and not (launch <= start and end <= exit_):
            problems.append(f"root span {span_id} ({name}) lies outside the process lifetime")
        if parent is not None and not (by_id[parent][3] <= start and end <= by_id[parent][4]):
            problems.append(f"span {span_id} ({name}) is not inside its parent {parent}")
        children.setdefault(parent, []).append(span)
    for siblings in children.values():
        siblings.sort(key=lambda s: s[3])
        for left, right in zip(siblings, siblings[1:]):
            if right[3] < left[4]:
                problems.append(f"sibling spans {left[0]} and {right[0]} overlap")
    if unattributed < 0:
        problems.append(f"layer spans cover more than the traced wall time ({unattributed:.6f} s)")
    accounted = sum(own.values()) + unattributed
    if abs(accounted - wall) > 1e-6 * max(1.0, wall):
        problems.append(f"self times plus unattributed ({accounted:.6f} s) differ from wall ({wall:.6f} s)")
    return problems


def per_layer_metrics(rows: dict[str, dict], unattributed: float, overhead: float) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json, from the per-span-name table."""

    def get(name, field):
        return rows.get(name, {}).get(field, 0)

    m: dict[str, float] = {
        "data.load_s": get("data.load_schema", "total_s") + get("data.load_dataset", "total_s"),
        "data.load_rows": get("data.load_dataset", "rows"),
        "data.split_s": get("data.split", "total_s"),
    }
    for kind in MODEL_CLASSES:
        fit_, pred = f"models.{kind}.fit", f"models.{kind}.predict_scores"
        m[f"models.fit_s.{kind}"] = get(fit_, "total_s")
        m[f"models.fit_calls.{kind}"] = get(fit_, "calls")
        m[f"models.predict_s.{kind}"] = get(pred, "total_s")
        m[f"models.predict_calls.{kind}"] = get(pred, "calls")
        m[f"models.predict_rows.{kind}"] = get(pred, "rows")
    for method in RANKING_METHODS:
        name = f"ranking.rank_features.{method}"
        m[f"ranking.rank_s.{method}"] = get(name, "total_s")
        m[f"ranking.model_fits.{method}"] = get(name, "model_fits")
        m[f"ranking.model_predicts.{method}"] = get(name, "model_predicts")
    m.update({
        "attack.perturb_batch_s": get("attack.perturb_batch", "total_s"),
        "attack.perturb_batch_calls": get("attack.perturb_batch", "calls"),
        "attack.perturb_rows": get("attack.perturb_batch", "rows") + get("attack.perturb", "rows"),
        "attack.perturb_s": get("attack.perturb", "total_s"),
        "attack.perturb_calls": get("attack.perturb", "calls"),
        "attack.build_plan_s": get("attack.build_plan", "total_s"),
        "evaluation.grid_search_s": get("evaluation.grid_search", "total_s"),
        "evaluation.grid_self_s": get("evaluation.grid_search", "self_s"),
        "evaluation.cells": get("evaluation.grid_search", "cells"),
        "metrics.recall_s": get("metrics.recall", "total_s"),
        "metrics.recall_calls": get("metrics.recall", "calls"),
        "webfeatures.extract_s": get("webfeatures.extract_features", "total_s"),
        "webfeatures.extract_calls": get("webfeatures.extract_features", "calls"),
        "webfeatures.extract_bytes": get("webfeatures.extract_features", "bytes"),
        "webspace.plan_injection_s": get("webspace.plan_injection", "total_s"),
        "webspace.inject_s": get("webspace.inject", "total_s"),
        "webspace.attack_self_s": get("webspace.problem_space_attack", "self_s"),
        "webspace.planned_edits": get("webspace.problem_space_attack", "planned"),
        "webspace.side_effect_features": get("webspace.problem_space_attack", "side_effects"),
        "webspace.evaded": get("webspace.problem_space_attack", "evaded"),
        "cli.run_s": get("cli.run", "total_s"),
        "cli.self_s": get("cli.run", "self_s"),
        "trace.unattributed_s": unattributed,
        "trace.overhead_s": overhead,
    })
    return m


def analyse(trace: dict, launch: float, exit_: float, untraced_wall: float) -> dict:
    """Per-span-name table, well-formedness problems and per-layer metrics."""
    spans = trace["spans"]
    wall = exit_ - launch
    own = self_times(spans)
    covered = sum(s[4] - s[3] for s in spans if s[1] is None)
    unattributed = wall - covered
    rows: dict[str, dict] = {}
    for span in spans:
        span_id, _, name, start, end, counts = span
        row = rows.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += own[span_id]
        for key, value in counts.items():
            row[key] = row.get(key, 0) + value
    # model-class calls issued under each ranking method, at any depth
    by_id = {s[0]: s for s in spans}
    for span in spans:
        if not span[2].startswith("models.") or span[2].count(".") != 2:
            continue
        parent = by_id.get(span[1])
        while parent is not None and not parent[2].startswith("ranking.rank_features."):
            parent = by_id.get(parent[1])
        if parent is not None:
            row = rows[parent[2]]
            key = "model_fits" if span[2].endswith(".fit") else "model_predicts"
            row[key] = row.get(key, 0) + 1
    for row in rows.values():
        row["share"] = row["total_s"] / wall if wall > 0 else 0.0
    return {
        "run_id": trace["run_id"],
        "wall_s": wall,
        "spans": len(spans),
        "missing_hooks": trace["missing"],
        "problems": check_spans(spans, launch, exit_, wall, unattributed, own),
        "table": dict(sorted(rows.items())),
        "metrics": per_layer_metrics(rows, unattributed, wall - untraced_wall),
    }


def format_table(report: dict) -> str:
    lines = [f"{'span':44s} {'calls':>7s} {'total_s':>10s} {'self_s':>10s} {'share':>7s}"]
    for name, row in report["table"].items():
        lines.append(
            f"{name:44s} {row['calls']:7d} {row['total_s']:10.4f} {row['self_s']:10.4f} {row['share']:7.1%}"
        )
    m = report["metrics"]
    lines.append(f"{'(unattributed)':44s} {'':7s} {m['trace.unattributed_s']:10.4f} "
                 f"{m['trace.unattributed_s']:10.4f} {m['trace.unattributed_s'] / report['wall_s']:7.1%}")
    lines.append(f"traced wall {report['wall_s']:.4f} s, overhead {m['trace.overhead_s']:+.4f} s, "
                 f"{report['spans']} spans, well formed: {not report['problems']}")
    return "\n".join(lines)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
