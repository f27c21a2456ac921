"""Run a set of benchmark runs and report each end-to-end metric's spread.

    python3 perfbench/runset.py --seeds 1-10
    python3 perfbench/runset.py --workloads forge_pages --seeds 7,7,7

Runs ``perfbench/run.py`` once per (seed, workload), seed by seed, one at a
time, with the ``run_seconds`` of BENCHMARK.json.  For each workload and
end-to-end metric it prints the median and quartiles over the set and the
spread (q3 - q1) / median next to the metric's bound.  Runs that share a
seed must have produced byte-identical outputs; the set fails otherwise, or
when any run is not correct.  A JSON summary goes to ``.perfbench/sets/``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi) + 1) if hi else [int(lo)])
    return seeds


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"seed": seed, "correct": False, "error": proc.stderr.strip()[-400:]}
    result = json.loads(lines[-1])
    details = next((line.split(" ", 1)[1] for line in lines if line.startswith("details ")), None)
    if details:
        result["sha256"] = json.loads((ROOT / details).read_text())["sha256"]
    result["seed"] = seed
    return result


def main(argv: list[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 41,41,7")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]

    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in seeds:
        for workload in workloads:
            result = one_run(workload, seed, spec["run_seconds"], args.trace)
            runs[workload].append(result)
            shown = {k: round(v["value"], 4) for k, v in result.get("metrics", {}).items()} if not args.trace else ""
            print(f"{workload:12s} seed {seed:4d} correct {result['correct']} {shown}", flush=True)

    ok = True
    report: dict[str, dict] = {}
    for workload, results in runs.items():
        report[workload] = {}
        if not all(r["correct"] for r in results):
            ok = False
            print(f"{workload}: {sum(not r['correct'] for r in results)} run(s) not correct")
        by_seed: dict[int, set] = {}
        for r in results:
            by_seed.setdefault(r["seed"], set()).add(json.dumps(r.get("sha256"), sort_keys=True))
        mismatched = [s for s, hashes in by_seed.items() if len(hashes) > 1]
        if mismatched:
            ok = False
            print(f"{workload}: outputs differ between runs of seed(s) {mismatched}")
        for metric in metrics:
            values = [r["metrics"][metric["name"]]["value"] for r in results if "metrics" in r]
            if len(values) < 2:
                continue
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("nan")
            entry = {"median": median, "q1": q1, "q3": q3, "n": len(values), "spread": spread}
            if "bound" in metric:
                entry["bound"] = metric["bound"]
            report[workload][metric["name"]] = entry
            bound = f"bound {metric['bound']:.3f} (a third: {metric['bound'] / 3:.3f})" if "bound" in metric else ""
            print(f"{workload:12s} {metric['name']:40s} median {median:12.4f} q1 {q1:12.4f} q3 {q3:12.4f} "
                  f"n {len(values):2d} spread {spread:7.4f} {bound}")
    out = ROOT / ".perfbench" / "sets" / f"set-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"seeds": seeds, "trace": args.trace, "runs": runs, "report": report}, indent=1) + "\n")
    print(f"summary {out.relative_to(ROOT)}; set {'passes' if ok else 'FAILS'} the output checks")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
