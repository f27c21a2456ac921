"""Smoke test of the benchmark itself, at tiny input sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload untraced and traced, checks that the metric names and
units match BENCHMARK.json, that the outputs pass their checks, that traced
spans nest, that a second seed reports the same metric names, and that the
benchmark refuses to run without the program's sources.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, trace: int, seed: int = 41, root: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


def result_and_details(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    details = next(line.split(" ", 1)[1] for line in lines if line.startswith("details "))
    return result, json.loads((ROOT / details).read_text())


def units(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_end_to_end_metrics(workload):
    result, details = result_and_details(bench(workload, 0))
    assert units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert details["sha256"] and details["environment"]["seed"] == 41


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_per_layer_metrics_from_nested_spans(workload):
    result, details = result_and_details(bench(workload, 1))
    assert units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    report = details["traced"]["report"]
    assert report["problems"] == [] and report["missing_hooks"] == []
    spans = json.loads((ROOT / details["traced"]["spans_file"]).read_text())["spans"]
    assert spans and spans[0][2] == "cli.run"
    for span_id, parent, name, start, end, _ in spans:
        assert start <= end
        if parent is not None:
            assert parent < span_id and spans[parent][3] <= start and end <= spans[parent][4], name
    assert result["metrics"]["cli.run_s"]["value"] > 0


def test_span_check_flags_malformed_traces():
    spans = [
        [0, None, "cli.run", 1.0, 5.0, {}],
        [1, 0, "models.fit", 1.5, 2.0, {}],
        [2, 0, "models.fit", 1.8, 2.5, {}],  # overlaps its sibling
        [3, 9, "data.split", 2.6, 2.7, {}],  # names a parent that does not exist
        [4, 1, "models.predict", 1.9, 2.1, {}],  # ends after its parent
    ]
    problems = tracer.analyse({"run_id": "r", "missing": [], "spans": spans}, 0.5, 5.5, 4.0)["problems"]
    assert any("missing parent 9" in p for p in problems)
    assert any("span 4" in p and "not inside" in p for p in problems)
    assert any("overlap" in p for p in problems)
    nested = [[0, None, "cli.run", 1.0, 5.0, {}], [1, 0, "models.fit", 1.5, 2.0, {}]]
    report = tracer.analyse({"run_id": "r", "missing": [], "spans": nested}, 0.5, 5.5, 4.0)
    assert report["problems"] == []
    assert report["table"]["cli.run"]["self_s"] == pytest.approx(3.5)
    assert report["metrics"]["trace.unattributed_s"] == pytest.approx(1.0)


def test_second_seed_reports_the_same_metric_names():
    first, _ = result_and_details(bench("forge_pages", 0, seed=41))
    second, details = result_and_details(bench("forge_pages", 0, seed=7))
    assert first["metrics"].keys() == second["metrics"].keys()
    assert details["environment"]["seed"] == 7


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".perfbench" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = bench(WORKLOADS[0], 0, root=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
