"""Command-line entry point wiring every module.

Subcommands: synth, train, rank, attack, evaluate, gridsearch, curves,
extract, forge.  Every run writes into a fresh run directory (timestamped
unless --run-name pins it) containing a manifest.json with the resolved
configuration.  Output files are written atomically (temp file + rename).
Exit codes: 0 success, 1 runtime/I-O failure, 2 usage error (a bad
command line, or a grid resume against other data or flags than the sink's).
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from pathlib import Path
from urllib.parse import unquote

from . import __version__, synth
from .attack import AttackConfig, build_plan, perturb_batch, select_features
from .data import Dataset, atomic_write_text, format_number, load_dataset, load_schema, save_schema, split
from .errors import ResumeError, TabevadeError
from .evaluation import (
    CURVE_AXES,
    GridResult,
    GridSpec,
    epsilon_grid,
    evaluate_attack,
    grid_search,
    max_success_curve,
)
from .metrics import recall
from .models import MODEL_KINDS, fit, load_model, save_model
from .ranking import RANKING_METHODS, rank_features
from .svgchart import bar_chart, line_chart
from .webfeatures import WEB_FEATURE_NAMES, WebPage, default_web_schema, extract_features
from .webspace import problem_space_attack


# ---------------------------------------------------------------------------
# small helpers

def _run_dir(args, command: str) -> Path:
    name = args.run_name or f"{command}-{time.strftime('%Y%m%d-%H%M%S')}"
    run = Path(args.out) / name
    run.mkdir(parents=True, exist_ok=True)
    return run


def _write_manifest(run: Path, args) -> None:
    payload = {k: v for k, v in vars(args).items() if k != "func"}
    payload["version"] = __version__
    for key, value in payload.items():
        if isinstance(value, Path):
            payload[key] = str(value)
    atomic_write_text(run / "manifest.json", json.dumps(payload, indent=2, default=str) + "\n")


def _load(args) -> Dataset:
    return load_dataset(args.data, load_schema(args.schema))


def _csv_text(rows) -> str:
    import io

    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def _parse_hyper(pairs: list[str]) -> dict:
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise TabevadeError(f"--hyper expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        try:
            out[key] = json.loads(value)
        except json.JSONDecodeError:
            out[key] = value
    return out


def _mask_indices(dataset: Dataset, names: str | None) -> frozenset[int] | None:
    if not names:
        return None
    return frozenset(dataset.schema.index_of(n.strip()) for n in names.split(",") if n.strip())


def _page_url(path: Path) -> str:
    sidecar = path.with_name(path.name + ".url")
    if sidecar.exists():
        return sidecar.read_text(encoding="utf-8").strip()
    stem = unquote(path.stem)
    return stem if "://" in stem else f"http://{stem}"


def _page_paths(target: Path) -> list[Path]:
    if target.is_dir():
        return sorted(p for p in target.iterdir() if p.suffix in (".html", ".htm"))
    return [target]


def _read_page(path: Path) -> WebPage:
    return WebPage(url=_page_url(path), html=path.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# subcommands

def _cmd_synth(args) -> int:
    run = _run_dir(args, "synth")
    _write_manifest(run, args)
    if args.dataset == "blobs":
        from .data import save_dataset_csv

        dataset = synth.gaussian_blobs(n_rows=args.rows, seed=args.seed)
        save_dataset_csv(dataset, run / "data.csv")
        save_schema(dataset.schema, run / "schema.json")
    elif args.dataset == "census":
        rows = synth.census_like_rows(n_rows=args.rows, seed=args.seed)
        atomic_write_text(run / "data.csv", _csv_text(rows))
        save_schema(synth.census_like_schema(), run / "schema.json")
    else:
        corpus = synth.demo_pages(seed=args.seed)
        synth.write_page_corpus(corpus, run / "pages")
        from .data import save_dataset_csv

        save_dataset_csv(synth.web_demo_dataset(corpus), run / "data.csv")
        save_schema(default_web_schema(), run / "schema.json")
    print(f"wrote {run}")
    return 0


def _cmd_train(args) -> int:
    dataset = _load(args)
    train, test = split(dataset, args.train_fraction, args.seed)
    model = fit(args.kind, train, hyperparameters=_parse_hyper(args.hyper), seed=args.seed)
    run = _run_dir(args, "train")
    _write_manifest(run, args)
    save_model(model, run / "model.json")
    report = {
        "kind": args.kind,
        "train_rows": train.n_rows,
        "test_rows": test.n_rows,
        "train_recall": recall(model, train.X, train.y),
        "test_recall": recall(model, test.X, test.y),
    }
    atomic_write_text(run / "metrics.json", json.dumps(report, indent=2) + "\n")
    print(f"trained {args.kind}: test recall {report['test_recall']:.3f} -> {run}")
    return 0


def _cmd_rank(args) -> int:
    dataset = _load(args)
    ranking = rank_features(dataset, args.method, seed=args.seed)
    rows = [["feature_name", "method", "score", "rank"]]
    for position, index in enumerate(ranking.order, start=1):
        rows.append(
            [dataset.schema.names[index], args.method, format_number(ranking.scores[index]), str(position)]
        )
    run = _run_dir(args, "rank")
    _write_manifest(run, args)
    atomic_write_text(run / "rank.csv", _csv_text(rows))
    print(f"wrote {run / 'rank.csv'}")
    return 0


def _cmd_attack(args) -> int:
    dataset = _load(args)
    config = AttackConfig(
        n=args.n,
        epsilon=args.epsilon,
        method=args.method,
        feature_mask=_mask_indices(dataset, args.features),
        onehot_consistency=args.onehot_consistency,
    )
    plan = build_plan(dataset, config, seed=args.seed)
    positives = dataset.take(dataset.rows_of_class(1))
    perturbed = perturb_batch(positives, plan)
    selected = select_features(plan)
    schema = dataset.schema

    adversarial_rows = [[*schema.names, schema.target_column]]
    for row in perturbed:
        adversarial_rows.append([format_number(v) for v in row] + [schema.positive_class_label])

    delta_rows = [["row", "feature", "original", "perturbed", "delta"]]
    for r in range(perturbed.shape[0]):
        for i in selected:
            before, after = positives.X[r, i], perturbed[r, i]
            delta_rows.append(
                [str(r), schema.names[i], format_number(before), format_number(after), format_number(after - before)]
            )

    run = _run_dir(args, "attack")
    _write_manifest(run, args)
    atomic_write_text(run / "adversarial.csv", _csv_text(adversarial_rows))
    atomic_write_text(run / "deltas.csv", _csv_text(delta_rows))
    print(f"perturbed {perturbed.shape[0]} rows -> {run}")
    return 0


def _cmd_evaluate(args) -> int:
    dataset = _load(args)
    train, test = split(dataset, args.train_fraction, args.seed)
    if args.model:
        model = load_model(args.model)
    else:
        model = fit(args.kind, train, seed=args.seed)
    config = AttackConfig(n=args.n, epsilon=args.epsilon, method=args.method,
                          feature_mask=_mask_indices(dataset, args.features))
    plan = build_plan(train, config, seed=args.seed)
    report = evaluate_attack(model, test, plan)
    run = _run_dir(args, "evaluate")
    _write_manifest(run, args)
    payload = {
        "model": report.model_kind,
        "baseline_recall": report.baseline_recall,
        "attack_recall": report.attack_recall,
        "success_rate": report.success_rate,
        "auprc_baseline": report.auprc_baseline,
        "auprc_attack": report.auprc_attack,
        "n": config.n,
        "epsilon": config.epsilon,
        "method": config.method,
    }
    atomic_write_text(run / "report.json", json.dumps(payload, indent=2) + "\n")
    print(
        f"{report.model_kind}: recall {report.baseline_recall:.3f} -> {report.attack_recall:.3f} "
        f"(success {report.success_rate:.3f}) -> {run}"
    )
    return 0


def _cmd_gridsearch(args) -> int:
    dataset = _load(args)
    train, test = split(dataset, args.train_fraction, args.seed)
    if args.n_values:
        n_values = tuple(int(v) for v in args.n_values.split(","))
    else:
        n_values = tuple(range(args.n_min, args.n_max + 1))
    spec = GridSpec(
        n_values=n_values,
        epsilon_values=epsilon_grid(args.eps_min, args.eps_max, args.eps_steps),
        methods=tuple(args.methods.split(",")),
        model_kinds=tuple(args.models.split(",")),
    )
    run = _run_dir(args, "gridsearch")
    sink = run / "grid.csv"
    if args.resume_from:
        # continue an earlier sink in place
        sink = Path(args.resume_from)
    elif sink.exists():
        raise ResumeError(
            f"{sink} already exists; continue it with --resume-from {sink}, "
            "or pick a new --run-name"
        )
    _write_manifest(run, args)
    total = spec.n_cells

    def progress(done: int, _total: int) -> None:
        if args.verbose and (done % 50 == 0 or done == total):
            print(f"  {done}/{total} cells", file=sys.stderr)

    result = grid_search(train, test, spec, seed=args.seed, sink=sink, workers=args.workers,
                         progress=progress)
    if sink != run / "grid.csv":
        result.to_csv(run / "grid.csv")
    print(f"evaluated {len(result.records)} cells -> {run / 'grid.csv'}")
    return 0


def emit_report(grid: GridResult, out_dir: Path) -> list[Path]:
    """Per-model curve CSVs + SVG charts + a best-cell summary table."""
    if not grid.records:
        raise TabevadeError("grid holds no records")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    models = sorted({r.model for r in grid.records})
    summary = [["model", "baseline_recall", "attack_recall", "success_rate", "n", "epsilon", "method"]]
    for model in models:
        best = max((r for r in grid.records if r.model == model), key=lambda r: r.success_rate)
        summary.append(
            [
                model,
                format_number(best.baseline_recall),
                format_number(best.attack_recall),
                format_number(best.success_rate),
                str(best.n),
                format_number(best.epsilon),
                best.method,
            ]
        )
        for axis in CURVE_AXES:
            curve = max_success_curve(grid, axis, model)
            rows = [[axis, "success_rate", "n", "epsilon", "method"]]
            for point in curve:
                rows.append(
                    [
                        str(point.axis_value),
                        format_number(point.success_rate),
                        str(point.record.n),
                        format_number(point.record.epsilon),
                        point.record.method,
                    ]
                )
            csv_path = out_dir / f"curve_{model}_{axis}.csv"
            atomic_write_text(csv_path, _csv_text(rows))
            written.append(csv_path)
            title = f"{model}: max success rate by {axis}"
            if axis == "method":
                svg = bar_chart(
                    [(str(p.axis_value), p.success_rate) for p in curve],
                    title, axis, "max success rate",
                )
            else:
                svg = line_chart(
                    [(float(p.axis_value), p.success_rate) for p in curve],
                    title, axis, "max success rate",
                )
            svg_path = out_dir / f"curve_{model}_{axis}.svg"
            atomic_write_text(svg_path, svg)
            written.append(svg_path)
    summary_path = out_dir / "summary.csv"
    atomic_write_text(summary_path, _csv_text(summary))
    written.append(summary_path)
    return written


def _cmd_curves(args) -> int:
    grid = GridResult.from_csv(args.grid)
    run = _run_dir(args, "curves")
    _write_manifest(run, args)
    written = emit_report(grid, run)
    print(f"wrote {len(written)} files -> {run}")
    return 0


def _cmd_extract(args) -> int:
    paths = _page_paths(Path(args.pages))
    rows = [["page", *WEB_FEATURE_NAMES]]
    for path in paths:
        vector = extract_features(_read_page(path))
        rows.append([path.name, *[format_number(v) for v in vector.values]])
    run = _run_dir(args, "extract")
    _write_manifest(run, args)
    atomic_write_text(run / "features.csv", _csv_text(rows))
    print(f"extracted {len(paths)} pages -> {run / 'features.csv'}")
    return 0


def _cmd_forge(args) -> int:
    schema = load_schema(args.schema)
    dataset = load_dataset(args.data, schema)
    if dataset.schema.names != WEB_FEATURE_NAMES:
        raise TabevadeError("forge needs training data over the 52 page features (see `synth --dataset webpages`)")
    model = load_model(args.model) if args.model else fit(args.kind, dataset, seed=args.seed)
    mask = _mask_indices(dataset, args.features)
    if mask is None:
        mask = frozenset(dataset.schema.addable_indices())
    config = AttackConfig(n=args.n, epsilon=args.epsilon, method=args.method, feature_mask=mask)
    plan = build_plan(dataset, config, seed=args.seed)

    run = _run_dir(args, "forge")
    _write_manifest(run, args)
    page_dir = run / "pages"
    page_dir.mkdir(parents=True, exist_ok=True)
    rows = [
        [
            "page",
            "baseline_label",
            "attack_label",
            "baseline_score",
            "attack_score",
            "evaded",
            "planned",
            "side_effects",
        ]
    ]
    flipped = 0
    for path in _page_paths(Path(args.pages)):
        page = _read_page(path)
        forged, record = problem_space_attack(page, plan, model)
        # forge_report.csv, written last and synced, vouches for the pages
        atomic_write_text(page_dir / path.name, forged.html, fsync=False)
        planned = ";".join(f"{k}:+{v}" for k, v in sorted(record.planned.items()))
        effects = ";".join(f"{k}:{v:+g}" for k, v in sorted(record.side_effects.items()))
        rows.append(
            [
                path.name,
                str(record.baseline_label),
                str(record.attack_label),
                format_number(record.baseline_score),
                format_number(record.attack_score),
                str(int(record.evaded)),
                planned,
                effects,
            ]
        )
        flipped += int(record.evaded)
    atomic_write_text(run / "forge_report.csv", _csv_text(rows))
    print(f"forged {len(rows) - 1} pages, {flipped} evaded -> {run}")
    return 0


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tabevade",
        description="Mimicry evasion attacks on tabular classifiers, with an HTML problem-space back end.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=0, help="seed for every random choice")
        p.add_argument("--out", default="runs", help="parent directory for run outputs")
        p.add_argument("--run-name", default=None, help="fixed run directory name (default: timestamped)")

    def data_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--data", required=True, help="CSV dataset with header row")
        p.add_argument("--schema", required=True, help="JSON schema sidecar")

    p = sub.add_parser("synth", help="generate synthetic demo data")
    p.add_argument("--dataset", choices=("blobs", "census", "webpages"), default="census")
    p.add_argument("--rows", type=int, default=3000, help="row count (blobs/census; the webpage corpus is fixed at 20+20)")
    common(p)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="fit a defending model")
    data_args(p)
    p.add_argument("--kind", choices=MODEL_KINDS, required=True)
    p.add_argument("--train-fraction", type=float, default=0.8)
    p.add_argument("--hyper", action="append", help="hyperparameter override key=value", default=None)
    common(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("rank", help="rank features by importance")
    data_args(p)
    p.add_argument("--method", choices=RANKING_METHODS, required=True)
    common(p)
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("attack", help="perturb the input-class rows of a dataset")
    data_args(p)
    p.add_argument("--method", choices=RANKING_METHODS, default="gini_impurity")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--features", default=None, help="comma-separated allow-list of feature names")
    p.add_argument("--onehot-consistency", action="store_true")
    common(p)
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser("evaluate", help="train/test split, attack the test rows, report metrics")
    data_args(p)
    p.add_argument("--model", default=None, help="saved model file (otherwise --kind fits one)")
    p.add_argument("--kind", choices=MODEL_KINDS, default="random_forest")
    p.add_argument("--method", choices=RANKING_METHODS, default="gini_impurity")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--features", default=None)
    p.add_argument("--train-fraction", type=float, default=0.8)
    common(p)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("gridsearch", help="exhaustive (model, method, n, epsilon) search")
    data_args(p)
    p.add_argument("--models", default=",".join(MODEL_KINDS), help="comma-separated model kinds")
    p.add_argument("--methods", default="gini_impurity", help="comma-separated ranking methods")
    p.add_argument("--n-min", type=int, default=1)
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--n-values", default=None, help="explicit comma-separated n values")
    p.add_argument("--eps-min", type=float, default=0.001)
    p.add_argument("--eps-max", type=float, default=4.0)
    p.add_argument("--eps-steps", type=int, default=50)
    p.add_argument("--train-fraction", type=float, default=0.8)
    p.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                   help="processes that fit the models and run the rankings; cells are evaluated in-process")
    p.add_argument("--resume-from", default=None,
                   help="existing grid.csv sink to continue; refused (exit 2) if started with other data or flags")
    p.add_argument("--verbose", action="store_true")
    common(p)
    p.set_defaults(func=_cmd_gridsearch)

    p = sub.add_parser("curves", help="max-success curves + SVG charts from a grid CSV")
    p.add_argument("--grid", required=True)
    common(p)
    p.set_defaults(func=_cmd_curves)

    p = sub.add_parser("extract", help="extract the 52 page features to CSV")
    p.add_argument("--pages", required=True, help="HTML file or directory of .html files")
    common(p)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("forge", help="inverse-map an attack into invisible HTML additions")
    p.add_argument("--pages", required=True)
    data_args(p)
    p.add_argument("--model", default=None, help="saved model file (otherwise --kind fits one)")
    p.add_argument("--kind", choices=MODEL_KINDS, default="random_forest")
    p.add_argument("--method", choices=RANKING_METHODS, default="gini_impurity")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--features", default=None, help="restrict further than the addable set")
    common(p)
    p.set_defaults(func=_cmd_forge)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResumeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TabevadeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
