"""tabevade benchmark: three seeded workloads driven through the real CLI.

    python3 perfbench/run.py --workload census_grid --seed 41 --seconds 30 --trace 0

Each run generates its inputs from ``--seed`` (untimed), then launches the
workload's ``tabevade`` command in a fresh interpreter, again and again until
``--seconds`` are spent (at least once), checking the outputs of every
launch.  With ``--trace 0`` it reports the end-to-end metrics (``run_s``,
``setup_s``, ``peak_rss_mb``).  With ``--trace 1`` it follows the untraced
launches with one traced launch (see tracer.py) and reports the per-layer
metrics.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the lines before it give
every metric by name with its unit, the environment and the output hashes,
and a JSON file of details under ``.perfbench/results/``.

Every child runs with one BLAS/OpenMP thread and ``--workers 1``, one at a
time.  The program is run from ``src/`` of the checkout via PYTHONPATH.
README.md in this directory explains the workloads and how to read a trace.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import tracer  # stdlib only; found next to this file

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench"
RUN_LIMIT_S = 170.0  # every child is killed past this point of the run
SETUP_REPS = 7
SETUP_CODE = "import sys, tabevade; tabevade.load_dataset(sys.argv[1], tabevade.load_schema(sys.argv[2]))"

MODEL_KINDS = tuple(tracer.MODEL_CLASSES)
RANKING_METHODS = tracer.RANKING_METHODS
GRID_COLUMNS = ["model", "method", "n", "epsilon", "baseline_recall", "attack_recall", "success_rate"]

# Input sizes.  "tiny" exists only for the benchmark's own smoke test.
SIZES = {
    "full": {"census_rows": 3000, "n_max": 14, "grid_eps_steps": 25, "rank_eps_steps": 10, "pages_per_class": 500},
    "tiny": {"census_rows": 600, "n_max": 14, "grid_eps_steps": 3, "rank_eps_steps": 2, "pages_per_class": 4},
}


# ---------------------------------------------------------------------------
# workloads: inputs, CLI arguments and output checks

@dataclass
class Inputs:
    work: Path
    size: dict  # the SIZES entry in use
    described: dict = field(default_factory=dict)  # input sizes as recorded with the results
    runtime: dict = field(default_factory=dict)  # python, numpy and BLAS of the children
    verified: set = field(default_factory=set)  # output hashes that passed the full check

    @property
    def data(self) -> Path:
        return self.work / "data.csv"

    @property
    def schema(self) -> Path:
        return self.work / "schema.json"

    @property
    def pages(self) -> Path:
        return self.work / "pages"


def helper(args: list[str], deadline: float) -> dict:
    """Run perfbench/inputs.py in a child and return the JSON it prints."""
    proc = subprocess.run([sys.executable, str(BENCH / "inputs.py"), *args], cwd=ROOT, env=_child_env(),
                          capture_output=True, text=True, timeout=max(1.0, deadline - time.perf_counter()))
    if proc.returncode != 0:
        raise RuntimeError(f"inputs.py {args[0]} failed: {proc.stderr.strip()[-600:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    return (rows[0] if rows else []), rows[1:]


def _grid_args(inputs: Inputs, models, methods, eps_steps: int) -> list[str]:
    return [
        "gridsearch", "--data", str(inputs.data), "--schema", str(inputs.schema),
        "--models", ",".join(models), "--methods", ",".join(methods),
        "--n-min", "1", "--n-max", str(inputs.size["n_max"]),
        "--eps-min", "0.001", "--eps-max", "2.0", "--eps-steps", str(eps_steps),
        "--seed", "0", "--workers", "1",
    ]


def _check_census(out: Path, inputs: Inputs, deadline: float) -> tuple[list[str], dict]:
    header, rows = _read_csv(out / "grid.csv")
    cells = inputs.size["n_max"] * inputs.size["grid_eps_steps"] * len(MODEL_KINDS)
    problems = []
    if header != GRID_COLUMNS:
        problems.append(f"grid.csv header is {header}")
    if len(rows) != cells:
        problems.append(f"grid.csv has {len(rows)} rows, expected {cells}")
    for kind in MODEL_KINDS:
        if not any(r[0] == kind and float(r[6]) >= 0.90 and float(r[3]) <= 1.5 for r in rows):
            problems.append(f"{kind} never reaches success >= 0.90 at epsilon <= 1.5")
    return problems, {"grid.csv": _sha256(out / "grid.csv")}


def _check_rank(out: Path, inputs: Inputs, deadline: float) -> tuple[list[str], dict]:
    header, rows = _read_csv(out / "grid.csv")
    per_method = inputs.size["n_max"] * inputs.size["rank_eps_steps"]
    problems = []
    if header != GRID_COLUMNS:
        problems.append(f"grid.csv header is {header}")
    if len(rows) != per_method * len(RANKING_METHODS):
        problems.append(f"grid.csv has {len(rows)} rows, expected {per_method * len(RANKING_METHODS)}")
    for method in RANKING_METHODS:
        count = sum(1 for r in rows if r[1] == method)
        if count != per_method:
            problems.append(f"method {method} has {count} rows, expected {per_method}")
    if {r[0] for r in rows} != {"logistic_regression"}:
        problems.append("grid.csv holds models other than logistic_regression")
    return problems, {"grid.csv": _sha256(out / "grid.csv")}


def _forge_args(inputs: Inputs) -> list[str]:
    return [
        "forge", "--pages", str(inputs.pages), "--data", str(inputs.data), "--schema", str(inputs.schema),
        "--kind", "logistic_regression", "--n", "9", "--epsilon", "6.0", "--seed", "0",
    ]


def _check_forge(out: Path, inputs: Inputs, deadline: float) -> tuple[list[str], dict]:
    names = sorted(p.name for p in inputs.pages.glob("*.html"))
    problems = []
    _, rows = _read_csv(out / "forge_report.csv")
    if sorted(r[0] for r in rows) != names:
        problems.append(f"forge_report.csv has {len(rows)} rows for {len(names)} pages")
    digest = hashlib.sha256()
    for name in names:
        path = out / "pages" / name
        if path.is_file():
            digest.update(f"{name}\0{_sha256(path)}\n".encode())
    hashes = {"forge_report.csv": _sha256(out / "forge_report.csv"), "pages": digest.hexdigest()}
    # byte-identical outputs of an earlier launch were already checked in full
    if not problems and hashes["pages"] not in inputs.verified:
        problems += helper(["check-pages", str(inputs.pages), str(out / "pages")], deadline)["problems"]
        if not problems:
            inputs.verified.add(hashes["pages"])
    return problems, hashes


@dataclass(frozen=True)
class Workload:
    inputs: str  # the inputs.py generator
    count_key: str  # the SIZES entry it takes
    cli_args: Callable[[Inputs], list[str]]
    check: Callable[[Path, Inputs, float], tuple[list[str], dict]]


WORKLOADS = {
    "census_grid": Workload(
        "census", "census_rows",
        lambda i: _grid_args(i, MODEL_KINDS, ("info_gain_ratio",), i.size["grid_eps_steps"]),
        _check_census,
    ),
    "rank_sweep": Workload(
        "census", "census_rows",
        lambda i: _grid_args(i, ("logistic_regression",), RANKING_METHODS, i.size["rank_eps_steps"]),
        _check_rank,
    ),
    "forge_pages": Workload("pages", "pages_per_class", _forge_args, _check_forge),
}


def make_inputs(workload: Workload, work: Path, seed: int, size: dict, deadline: float) -> Inputs:
    made = helper([workload.inputs, str(work), str(seed), str(size[workload.count_key])], deadline)
    return Inputs(work, size, made["inputs"], made["runtime"])


# ---------------------------------------------------------------------------
# child processes

@dataclass
class Child:
    launch: float
    exit: float
    code: int
    peak_rss_mb: float
    cpu_s: float

    @property
    def wall_s(self) -> float:
        return self.exit - self.launch


def _child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def launch(cmd: list[str], log: Path, deadline: float) -> Child:
    """Run one child to its end; wall time and peak RSS come from wait4."""
    env = _child_env()
    with open(log, "wb") as handle:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=handle, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(1.0, deadline - start), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(start, end, proc.returncode, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime)


def _log_tail(log: Path) -> str:
    lines = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return lines[-1] if lines else "(no output)"


def run_rep(workload: Workload, inputs: Inputs, k: int, deadline: float, spans: Path | None = None) -> dict:
    """One CLI launch plus its output check; the run directory is removed after."""
    out = inputs.work / "runs"
    args = [*workload.cli_args(inputs), "--out", str(out), "--run-name", f"rep{k}"]
    if spans is None:
        cmd = [sys.executable, "-m", "tabevade.cli", *args]
    else:
        cmd = [sys.executable, str(BENCH / "tracer.py"), str(spans), f"{spans.stem}", "--", *args]
    log = inputs.work / f"rep{k}.log"
    child = launch(cmd, log, deadline)
    rep = {"wall_s": child.wall_s, "cpu_s": child.cpu_s, "peak_rss_mb": child.peak_rss_mb, "exit": child.code,
           "launch": child.launch, "end": child.exit, "sha256": {}, "problems": []}
    if child.code != 0:
        rep["problems"].append(f"exit code {child.code}: {_log_tail(log)}")
    else:
        try:
            rep["problems"], rep["sha256"] = workload.check(out / f"rep{k}", inputs, deadline)
        except (OSError, ValueError, IndexError, RuntimeError, subprocess.TimeoutExpired) as exc:
            rep["problems"].append(f"output check failed: {exc!r}")
    shutil.rmtree(out / f"rep{k}", ignore_errors=True)
    return rep


def measure_setup(inputs: Inputs, deadline: float) -> list[dict]:
    """Fresh interpreter: import tabevade, load and validate schema plus CSV."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(inputs.data), str(inputs.schema)]
    log = inputs.work / "setup.log"
    launch(cmd, log, deadline)  # untimed: fills the bytecode cache
    probes = []
    for _ in range(SETUP_REPS):
        child = launch(cmd, log, deadline)
        problems = [] if child.code == 0 else [f"setup exit code {child.code}: {_log_tail(log)}"]
        probes.append({"wall_s": child.wall_s, "exit": child.code, "problems": problems})
    return probes


def measure_reps(workload: Workload, inputs: Inputs, seconds: float, deadline: float) -> list[dict]:
    """Launch the workload until ``seconds`` are spent; never start one that would overrun."""
    reps = []
    start = time.perf_counter()
    while True:
        reps.append(run_rep(workload, inputs, len(reps), deadline))
        typical = statistics.median(r["wall_s"] for r in reps)
        now = time.perf_counter()
        if now - start + typical > seconds or now + 2 * typical > deadline:
            return reps


# ---------------------------------------------------------------------------
# reporting

def summary(values: list[float]) -> dict:
    values = sorted(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def unit_of(name: str) -> str:
    parts = name.split(".")
    for suffix, unit in (("_s", "s"), ("_mb", "MB"), ("rows", "rows"), ("bytes", "bytes")):
        if any(part.endswith(suffix) for part in parts):
            return unit
    return "count"


def environment(seed: int, inputs: Inputs, size_name: str) -> dict:
    commit = None
    if (ROOT / ".git").exists():  # a plain source tree may sit inside some other repository
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        **inputs.runtime,
        "nproc": os.cpu_count(),
        "threads": THREAD_ENV,
        "git_commit": commit or "unknown (not a git checkout)",
        "seed": seed,
        "size": size_name,
        "inputs": inputs.described,
    }


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=41, help="workload seed: every input is made from it")
    parser.add_argument("--seconds", type=float, default=30.0, help="time spent launching the workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add one traced launch and report per-layer metrics")
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test only")
    return parser.parse_args(argv)


def traced_rep(workload: Workload, inputs: Inputs, reps: list[dict], deadline: float, tag: str) -> dict:
    """One launch through tracer.py; its spans are analysed against the untraced median."""
    spans = inputs.work / f"{tag}-spans.json"
    traced = run_rep(workload, inputs, len(reps), deadline, spans=spans)
    if traced["exit"] != 0 or not spans.is_file():
        traced["problems"].append("traced launch wrote no spans")
        return traced
    untraced = statistics.median(r["wall_s"] for r in (_passed(reps) or reps))
    report = tracer.analyse(json.loads(spans.read_text()), traced["launch"], traced["end"], untraced)
    traced["problems"] += report["problems"]
    traced["report"] = report
    kept = OUT / "results" / spans.name
    shutil.move(str(spans), kept)
    traced["spans_file"] = str(kept.relative_to(ROOT))
    return traced


def _passed(attempts: list[dict]) -> list[dict]:
    return [a for a in attempts if not a["problems"]]


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so launch() kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "tabevade" / "cli.py").is_file():
        print(f"error: no tabevade sources under {SRC}; run from a tabevade checkout", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_LIMIT_S
    workload = WORKLOADS[args.workload]
    size_name = "tiny" if args.tiny else "full"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%d-%H%M%S')}-{os.getpid()}"
    work = OUT / "work" / tag
    work.mkdir(parents=True)
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    try:
        inputs = make_inputs(workload, work, args.seed, SIZES[size_name], deadline)
        env = environment(args.seed, inputs, size_name)
        setup = [] if args.trace else measure_setup(inputs, deadline)
        reps = measure_reps(workload, inputs, args.seconds, deadline)
        traced = [traced_rep(workload, inputs, reps, deadline, tag)] if args.trace else []
    finally:
        shutil.rmtree(work, ignore_errors=True)

    expected = next((r["sha256"] for r in _passed(reps)), None)
    for r in _passed(reps + traced):
        if r["sha256"] != expected:
            r["problems"].append("outputs differ from the first launch of this run")
    attempts = setup + reps + traced
    failed = len(attempts) - len(_passed(attempts))
    good = _passed(reps) or reps

    stats: dict[str, dict] = {}
    if args.trace:
        layer = traced[0].get("report", {}).get("metrics", {})
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in layer.items()}
    else:
        stats["run_s"] = summary([r["wall_s"] for r in good])
        stats["setup_s"] = summary([p["wall_s"] for p in setup])
        stats["peak_rss_mb"] = summary([r["peak_rss_mb"] for r in good])
        metrics = {k: {"value": v["median"], "unit": unit_of(k)} for k, v in stats.items()}

    details_path = OUT / "results" / f"{tag}.json"
    details = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace, "environment": env,
        "attempted": len(attempts), "failed": failed, "error_rate": failed / len(attempts),
        "sha256": expected, "summary": stats, "metrics": metrics,
        "setup": setup, "reps": reps, "traced": traced[0] if traced else None,
    }
    details_path.write_text(json.dumps(details, indent=1) + "\n", encoding="utf-8")

    print(f"perfbench {args.workload} seed {args.seed}: {len(reps)} launch(es), trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    for name, s in stats.items():
        print(f"{name:14s} {s['median']:12.4f} {unit_of(name):3s} median of {s['n']} "
              f"(q1 {s['q1']:.4f}, q3 {s['q3']:.4f})")
    print(f"error_rate     {failed / len(attempts):12.4f}     {failed} failed of {len(attempts)} attempted")
    for a in attempts:
        for problem in a["problems"]:
            print(f"FAILED: {problem}")
    if expected:
        print("sha256 " + " ".join(f"{k}={v}" for k, v in expected.items()))
    if traced and "report" in traced[0]:
        print(tracer.format_table(traced[0]["report"]))
        for hook in traced[0]["report"]["missing_hooks"]:
            print(f"warning: traced hook {hook} not found; its metrics read 0")
        for name, m in metrics.items():
            print(f"{name:44s} {m['value']:14.6f} {m['unit']}")
    print(f"details {details_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": len(attempts), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
