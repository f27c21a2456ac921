"""Command-line entry point wiring every module.

Subcommands: synth, train, rank, attack, evaluate, gridsearch, curves,
extract, forge.  Every run writes into a run directory (timestamped unless
--run-name pins it), made after the command's last check, holding a
manifest.json with the resolved configuration.  Output files are written
atomically (temp file + rename), a page set as one directory.
Exit codes: 0 success, 1 runtime/I-O failure, 2 usage error (a bad
command line, a grid resume against other data or flags than the sink's,
or a run directory that already holds one of the command's outputs).
"""
from __future__ import annotations

import argparse
import errno
import json
import os
import sys
import time
from pathlib import Path
from urllib.parse import unquote

import numpy

from . import __version__, synth
from .attack import AttackConfig, AttackPlan, build_plan, perturb_batch, select_features
from .data import (Dataset, atomic_directory, atomic_write_text, csv_text, format_number, load_dataset, load_schema,
                   save_dataset_csv, save_schema, split)
from .errors import ExtractionError, ResumeError, ShapeError, TabevadeError
from .evaluation import (
    CURVE_AXES,
    GridResult,
    GridSpec,
    epsilon_grid,
    evaluate_attack,
    grid_search,
    max_success_curve,
    numeric_platform,
)
from .metrics import recall
from .models import MODEL_KINDS, Model, fit, load_model, save_model
from .ranking import RANKING_METHODS, rank_features
from .svgchart import bar_chart, line_chart
from .webfeatures import WEB_FEATURE_NAMES, WebPage, default_web_schema, extract_features
from .webspace import check_problem_space, problem_space_attack


# ---------------------------------------------------------------------------
# small helpers

def _run_dir(args) -> Path:
    """Make the run directory ``args.run`` and write its manifest.json.

    Each command calls this once, after its last refusal, so a refused run leaves no directory.
    """
    args.run.mkdir(parents=True, exist_ok=True)
    payload = {k: v for k, v in vars(args).items() if k not in ("func", "outputs", "run")}
    payload["version"] = __version__
    payload["python"] = ".".join(str(part) for part in sys.version_info[:3])
    payload["numpy"] = numpy.__version__
    payload.update(numeric_platform())
    atomic_write_text(args.run / "manifest.json", json.dumps(payload, indent=2, default=str) + "\n")
    return args.run


def _load(args) -> Dataset:
    return load_dataset(args.data, load_schema(args.schema))


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


def _plan(args, train: Dataset, feature_mask: frozenset[int] | None = None) -> AttackPlan:
    """The plan the attack flags ask for over ``train``; ``feature_mask``, if given, stands in for --features'."""
    config = AttackConfig(n=args.n, epsilon=args.epsilon, method=args.method,
                          feature_mask=_mask_indices(train, args.features) if feature_mask is None else feature_mask,
                          onehot_consistency=getattr(args, "onehot_consistency", False))
    return build_plan(train, config, seed=args.seed)  # refused, before any ranking, when it cannot select --n


def _defender(args, train: Dataset) -> Model:
    """The model --model names, or a --kind fitted on ``train``; refused unless it is as wide as the data."""
    model = load_model(args.model) if args.model else fit(args.kind, train, seed=args.seed)
    if model.n_features != train.n_features:
        raise ShapeError(f"model expects {model.n_features} features, the data has {train.n_features}")
    return model


def _read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ExtractionError(f"{path} is not UTF-8 text ({exc.reason})") from None


def _page_url(path: Path) -> str:
    sidecar = path.with_name(path.name + ".url")
    if sidecar.exists():
        return _read_text(sidecar).strip()
    stem = unquote(path.stem)
    return stem if "://" in stem else f"http://{stem}"


def _page_paths(target: Path) -> list[Path]:
    if target.is_dir():
        return sorted(p for p in target.iterdir() if p.suffix in (".html", ".htm"))
    if not target.exists():
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(target))
    return [target]


def _read_page(path: Path) -> WebPage:
    return WebPage(url=_page_url(path), html=_read_text(path))


# ---------------------------------------------------------------------------
# subcommands

def _cmd_synth(args) -> int:
    if args.rows < 1:  # refused before the run directory is made, naming the flag
        raise ValueError(f"--rows must be at least 1, got {args.rows}")
    run = _run_dir(args)
    if args.dataset == "blobs":
        dataset = synth.gaussian_blobs(n_rows=args.rows, seed=args.seed)
        save_dataset_csv(dataset, run / "data.csv")
        save_schema(dataset.schema, run / "schema.json")
    elif args.dataset == "census":
        rows = synth.census_like_rows(n_rows=args.rows, seed=args.seed)
        atomic_write_text(run / "data.csv", csv_text(rows))
        save_schema(synth.census_like_schema(), run / "schema.json")
    else:
        corpus = synth.demo_pages(seed=args.seed)
        synth.write_page_corpus(corpus, run / "pages")
        save_dataset_csv(synth.web_demo_dataset(corpus), run / "data.csv")
        save_schema(default_web_schema(), run / "schema.json")
    print(f"wrote {run}")
    return 0


def _cmd_train(args) -> int:
    dataset = _load(args)
    train, test = split(dataset, args.train_fraction, args.seed)
    model = fit(args.kind, train, hyperparameters=_parse_hyper(args.hyper), seed=args.seed)
    run = _run_dir(args)
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
    run = _run_dir(args)
    atomic_write_text(run / "rank.csv", csv_text(rows))
    print(f"wrote {run / 'rank.csv'}")
    return 0


def _cmd_attack(args) -> int:
    dataset = _load(args)
    plan = _plan(args, dataset)
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

    run = _run_dir(args)
    atomic_write_text(run / "adversarial.csv", csv_text(adversarial_rows))
    atomic_write_text(run / "deltas.csv", csv_text(delta_rows))
    print(f"perturbed {perturbed.shape[0]} rows -> {run}")
    return 0


def _cmd_evaluate(args) -> int:
    dataset = _load(args)
    train, test = split(dataset, args.train_fraction, args.seed)
    plan = _plan(args, train)
    report = evaluate_attack(_defender(args, train), test, plan)
    run = _run_dir(args)
    payload = {
        "model": report.model_kind,
        "baseline_recall": report.baseline_recall,
        "attack_recall": report.attack_recall,
        "success_rate": report.success_rate,
        "auprc_baseline": report.auprc_baseline,
        "auprc_attack": report.auprc_attack,
        "n": plan.config.n,
        "epsilon": plan.config.epsilon,
        "method": plan.config.method,
    }
    atomic_write_text(run / "report.json", json.dumps(payload, indent=2) + "\n")
    print(
        f"{report.model_kind}: recall {report.baseline_recall:.3f} -> {report.attack_recall:.3f} "
        f"(success {report.success_rate:.3f}) -> {run}"
    )
    return 0


def _cmd_gridsearch(args) -> int:
    if args.workers < 1:  # refused before the data is read, naming the flag
        raise ValueError(f"--workers must be at least 1, got {args.workers}")
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
    sink = Path(args.resume_from) if args.resume_from else args.run / "grid.csv"
    if args.resume_from and not sink.is_file():  # grid_search would start a new grid there
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(sink))
    total = spec.n_cells

    def progress(done: int, _total: int) -> None:
        if args.verbose and (done % 50 == 0 or done == total):
            print(f"  {done}/{total} cells", file=sys.stderr)

    # grid_search makes a new sink's directory once the grid passes its checks, and calls
    # started once it holds the sink's lock, so a refused run writes nothing
    result = grid_search(train, test, spec, seed=args.seed, sink=sink, workers=args.workers,
                         progress=progress, started=lambda: _run_dir(args))
    grid = args.run / "grid.csv"
    if sink.resolve() != grid.resolve():
        result.to_csv(grid)
    print(f"evaluated {len(result.records)} cells -> {grid}")
    return 0


def emit_report(grid: GridResult, out_dir: Path) -> list[Path]:
    """Per-model curve CSVs + SVG charts + a best-cell summary table, in the existing ``out_dir``."""
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
            atomic_write_text(csv_path, csv_text(rows))
            written.append(csv_path)
            chart, key = (bar_chart, str) if axis == "method" else (line_chart, float)
            svg = chart([(key(p.axis_value), p.success_rate) for p in curve],
                        f"{model}: max success rate by {axis}", axis, "max success rate")
            svg_path = out_dir / f"curve_{model}_{axis}.svg"
            atomic_write_text(svg_path, svg)
            written.append(svg_path)
    summary_path = out_dir / "summary.csv"
    atomic_write_text(summary_path, csv_text(summary))
    written.append(summary_path)
    return written


def _cmd_curves(args) -> int:
    grid = GridResult.from_csv(args.grid)
    if not grid.records:
        raise TabevadeError("grid holds no records")
    run = _run_dir(args)
    written = emit_report(grid, run)
    print(f"wrote {len(written)} files -> {run}")
    return 0


def _cmd_extract(args) -> int:
    paths = _page_paths(Path(args.pages))
    rows = [["page", *WEB_FEATURE_NAMES]]
    for path in paths:
        vector = extract_features(_read_page(path))
        rows.append([path.name, *[format_number(v) for v in vector.values]])
    run = _run_dir(args)
    atomic_write_text(run / "features.csv", csv_text(rows))
    print(f"extracted {len(paths)} pages -> {run / 'features.csv'}")
    return 0


def _cmd_forge(args) -> int:
    paths = _page_paths(Path(args.pages))
    dataset = _load(args)
    mask = _mask_indices(dataset, args.features)
    if mask is None:
        mask = frozenset(dataset.schema.addable_indices())
    check_problem_space(dataset.schema, mask)
    plan = _plan(args, dataset, mask)
    model = _defender(args, dataset)
    run = _run_dir(args)
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
    with atomic_directory(run / "pages") as page_dir:  # a forge that fails leaves no pages/
        for path in paths:
            page = _read_page(path)
            forged, record = problem_space_attack(page, plan, model)
            # forge_report.csv, written last and synced, vouches for the pages
            (page_dir / path.name).write_text(forged.html, encoding="utf-8", newline="")
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
    atomic_write_text(run / "forge_report.csv", csv_text(rows))
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

    def model_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--model", default=None, help="saved model file (otherwise --kind fits one)")
        p.add_argument("--kind", choices=MODEL_KINDS, default="random_forest")

    def attack_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--method", choices=RANKING_METHODS, default="gini_impurity")
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--epsilon", type=float, required=True)
        p.add_argument("--features", default=None, help="comma-separated allow-list of feature names")

    p = sub.add_parser("synth", help="generate synthetic demo data")
    p.add_argument("--dataset", choices=("blobs", "census", "webpages"), default="census")
    p.add_argument("--rows", type=int, default=3000, help="row count (blobs/census; the webpage corpus is fixed at 20+20)")
    common(p)
    p.set_defaults(func=_cmd_synth, outputs=("data.csv", "schema.json", "pages"))

    p = sub.add_parser("train", help="fit a defending model")
    data_args(p)
    p.add_argument("--kind", choices=MODEL_KINDS, required=True)
    p.add_argument("--train-fraction", type=float, default=0.8)
    p.add_argument("--hyper", action="append", help="hyperparameter override key=value", default=None)
    common(p)
    p.set_defaults(func=_cmd_train, outputs=("model.json", "metrics.json"))

    p = sub.add_parser("rank", help="rank features by importance")
    data_args(p)
    p.add_argument("--method", choices=RANKING_METHODS, required=True)
    common(p)
    p.set_defaults(func=_cmd_rank, outputs=("rank.csv",))

    p = sub.add_parser("attack", help="perturb the input-class rows of a dataset")
    data_args(p)
    attack_args(p)
    p.add_argument("--onehot-consistency", action="store_true")
    common(p)
    p.set_defaults(func=_cmd_attack, outputs=("adversarial.csv", "deltas.csv"))

    p = sub.add_parser("evaluate", help="train/test split, attack the test rows, report metrics")
    data_args(p)
    model_args(p)
    attack_args(p)
    p.add_argument("--train-fraction", type=float, default=0.8)
    common(p)
    p.set_defaults(func=_cmd_evaluate, outputs=("report.json",))

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
    p.set_defaults(func=_cmd_gridsearch, outputs=("grid.csv",))

    p = sub.add_parser("curves", help="max-success curves + SVG charts from a grid CSV")
    p.add_argument("--grid", required=True)
    common(p)
    p.set_defaults(func=_cmd_curves, outputs=("summary.csv",))

    p = sub.add_parser("extract", help="extract the 52 page features to CSV")
    p.add_argument("--pages", required=True, help="HTML file or directory of .html files")
    common(p)
    p.set_defaults(func=_cmd_extract, outputs=("features.csv",))

    p = sub.add_parser("forge", help="inverse-map an attack into invisible HTML additions")
    p.add_argument("--pages", required=True)
    data_args(p)
    model_args(p)
    attack_args(p)
    common(p)
    p.set_defaults(func=_cmd_forge, outputs=("forge_report.csv", "pages"))

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # named once, so the check below, a grid's sink and the manifest share one timestamp
    run_dir = args.run = Path(args.out) / (args.run_name or f"{args.command}-{time.strftime('%Y%m%d-%H%M%S')}")
    try:  # one rule for every command: a run directory describes one run, and a resume continues its own grid
        held = [name for name in args.outputs if (run_dir / name).exists()]
        resume = getattr(args, "resume_from", None)
        if held and not (resume and Path(resume).resolve() == (run_dir / "grid.csv").resolve()):
            hint = f"continue its grid with --resume-from {run_dir / 'grid.csv'}, or " if "grid.csv" in held else ""
            raise ResumeError(f"{run_dir} already exists and holds {', '.join(held)} from an earlier run; "
                              f"{hint}pick another --run-name")
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
