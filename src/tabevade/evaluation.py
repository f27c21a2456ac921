"""Attack evaluation: reports, the (n, epsilon, method) grid search and
max-success curves.

Grid cells are evaluated against models fitted once per kind and rankings
computed once per method.  Records can persist incrementally to a CSV sink
so an interrupted search resumes.  A worker pool runs the fits and rankings
in parallel, with no more processes than there are fits plus rankings;
every cell is evaluated in the calling process.
"""
from __future__ import annotations

import csv
import io
import json
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import ExitStack
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Callable, Union

import numpy as np

from .attack import AttackConfig, AttackPlan, compute_direction, perturb_batch
from .data import Dataset, atomic_write_text, fit_scaler, format_number, schema_to_dict
from .errors import MetricError, ResumeError, TabevadeError
from .metrics import auprc, recall, success_rate
from .models import MODEL_KINDS, Model, fit, predict, predict_score
from .ranking import RANKING_METHODS, FeatureRanking, rank_features


@dataclass(frozen=True)
class EvaluationReport:
    baseline_recall: float
    attack_recall: float
    success_rate: float
    auprc_baseline: float
    auprc_attack: float
    config: AttackConfig
    model_kind: str


def evaluate_attack(model: Model, test: Dataset, plan: AttackPlan) -> EvaluationReport:
    """Perturb the input-class test rows and measure the damage.

    Target-class rows pass through untouched; already-misclassified input
    rows are perturbed like the rest.
    """
    baseline_scores = predict_score(model, test.X)
    base_recall = recall(model, test.X, test.y)
    base_auprc = auprc(baseline_scores, test.y)
    pos = test.rows_of_class(1)
    attacked = test.X.copy()
    attacked[pos] = perturb_batch(test.take(pos), plan)
    attack_scores = predict_score(model, attacked)
    att_recall = recall(model, attacked, test.y)
    return EvaluationReport(
        baseline_recall=base_recall,
        attack_recall=att_recall,
        success_rate=success_rate(base_recall, att_recall),
        auprc_baseline=base_auprc,
        auprc_attack=auprc(attack_scores, test.y),
        config=plan.config,
        model_kind=model.kind,
    )


# ---------------------------------------------------------------------------
# grid search

@dataclass(frozen=True)
class GridSpec:
    n_values: tuple[int, ...]
    epsilon_values: tuple[float, ...]
    methods: tuple[str, ...]
    model_kinds: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_values", tuple(int(n) for n in self.n_values))
        object.__setattr__(self, "epsilon_values", tuple(float(e) for e in self.epsilon_values))
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "model_kinds", tuple(self.model_kinds))
        if not (self.n_values and self.epsilon_values and self.methods and self.model_kinds):
            raise ValueError("grid spec lists must all be non-empty")
        if any(n < 1 for n in self.n_values):
            raise ValueError("n values must be positive")
        if any(e < 0 for e in self.epsilon_values):
            raise ValueError("epsilon values must be non-negative")
        eps = self.epsilon_values
        if any(b <= a for a, b in zip(eps, eps[1:])):
            raise ValueError(f"epsilon values must be sorted strictly ascending, without repeats: {list(eps)}")
        for axis in ("n_values", "methods", "model_kinds"):
            values = getattr(self, axis)
            if len(set(values)) < len(values):
                raise ValueError(f"grid spec {axis} repeats a value: {list(values)}")
        bad = [m for m in self.methods if m not in RANKING_METHODS]
        if bad:
            raise ValueError(f"unknown ranking methods: {bad}")
        bad = [k for k in self.model_kinds if k not in MODEL_KINDS]
        if bad:
            raise ValueError(f"unknown model kinds: {bad}")

    @property
    def n_cells(self) -> int:
        return len(self.n_values) * len(self.epsilon_values) * len(self.methods) * len(self.model_kinds)


def epsilon_grid(lo: float, hi: float, steps: int) -> tuple[float, ...]:
    """Arithmetic progression including both endpoints."""
    if steps < 1:
        raise ValueError("steps must be positive")
    if steps == 1:
        return (float(lo),)
    if hi < lo:
        raise ValueError("epsilon range must be non-decreasing")
    return tuple(float(v) for v in np.linspace(lo, hi, steps))


@dataclass(frozen=True)
class GridRecord:
    model: str
    method: str
    n: int
    epsilon: float
    baseline_recall: float
    attack_recall: float
    success_rate: float


GRID_COLUMNS = ("model", "method", "n", "epsilon", "baseline_recall", "attack_recall", "success_rate")


@dataclass(frozen=True)
class GridResult:
    records: tuple[GridRecord, ...]

    def to_csv(self, path: Union[str, Path]) -> None:
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(GRID_COLUMNS)
        writer.writerows(_record_row(r) for r in self.records)
        atomic_write_text(path, buffer.getvalue())

    @staticmethod
    def from_csv(path: Union[str, Path]) -> "GridResult":
        """Read a grid CSV; a malformed row raises :class:`MetricError` naming its line."""
        with open(path, "r", encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            records = []
            try:
                header = next(reader, None)
                if header is None or tuple(header) != GRID_COLUMNS:
                    raise MetricError(f"grid CSV must start with header {','.join(GRID_COLUMNS)}")
                for row in reader:
                    if not row:
                        continue
                    if len(row) != len(GRID_COLUMNS):
                        raise ValueError(f"expected {len(GRID_COLUMNS)} cells, found {len(row)}")
                    records.append(GridRecord(row[0], row[1], int(row[2]), *map(float, row[3:])))
            except (ValueError, csv.Error) as exc:
                raise MetricError(f"{path}, line {reader.line_num}: {exc}") from None
        return GridResult(records=tuple(records))


def _record_row(r: GridRecord) -> list[str]:
    return [
        r.model,
        r.method,
        str(r.n),
        format_number(r.epsilon),
        format_number(r.baseline_recall),
        format_number(r.attack_recall),
        format_number(r.success_rate),
    ]


def _cell_key(model: str, method: str, n: int, epsilon: float) -> tuple:
    return (model, method, int(n), float(epsilon))


def _prepare(task: tuple[str, str], train: Dataset, seed: int) -> Union[Model, FeatureRanking]:
    """Fit one model kind (``("fit", kind)``) or rank by one method
    (``("rank_features", method)``): the units of work a grid shares out."""
    what, name = task
    return fit(name, train, seed=seed) if what == "fit" else rank_features(train, name, seed=seed)


def _trim_torn_tail(sink: Union[str, Path]) -> None:
    """Cut a sink back to its last complete line.

    A run interrupted mid-write leaves a last row without its newline; the
    row may even parse, with a truncated number, so it is dropped and its
    cell evaluated again.  A file that does not start like a grid CSV is
    left alone for :meth:`GridResult.from_csv` to reject.
    """
    header = ",".join(GRID_COLUMNS).encode()
    with open(sink, "rb+") as handle:
        text = handle.read()
        if not text.endswith(b"\n") and header.startswith(text[:len(header)]):
            handle.truncate(text.rfind(b"\n") + 1)


def grid_fingerprint(train: Dataset, test: Dataset, spec: GridSpec, seed: int) -> dict:
    """What a grid's cells depend on: content hashes of the data and schema,
    the seed, the spec and the package version."""
    import hashlib  # loads OpenSSL, a few ms that only a grid with a sink should pay

    from . import __version__

    def digest(array: np.ndarray) -> str:
        hashed = hashlib.sha256(f"{array.dtype.str}{array.shape}".encode())
        hashed.update(np.ascontiguousarray(array))  # hashed in place, not copied to bytes
        return hashed.hexdigest()

    schema = json.dumps(schema_to_dict(train.schema), sort_keys=True).encode()
    return {
        "train_X": digest(train.X),
        "train_y": digest(train.y.astype("<i8")),
        "test_X": digest(test.X),
        "test_y": digest(test.y.astype("<i8")),
        "schema": hashlib.sha256(schema).hexdigest(),
        "seed": int(seed),
        "spec": {name: list(getattr(spec, name)) for name in ("n_values", "epsilon_values", "methods", "model_kinds")},
        "version": __version__,
    }


def fingerprint_path(sink: Union[str, Path]) -> Path:
    """Where a sink's fingerprint lives: ``<sink>.fingerprint.json`` beside it."""
    sink = Path(sink)
    return sink.with_name(sink.name + ".fingerprint.json")


def _check_fingerprint(sink: Path, fingerprint: dict) -> bool:
    """True when the sink's stored fingerprint equals ``fingerprint``, False
    when it has none; a different one raises :class:`ResumeError`."""
    path = fingerprint_path(sink)
    if not path.exists():
        return False
    try:
        stored = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ResumeError(f"cannot resume {sink}: its fingerprint {path} is not valid JSON ({exc})") from None
    if not isinstance(stored, dict):
        raise ResumeError(f"cannot resume {sink}: its fingerprint {path} does not hold a JSON object")
    differing = sorted(key for key in fingerprint.keys() | stored.keys() if stored.get(key) != fingerprint.get(key))
    if differing:
        raise ResumeError(
            f"cannot resume {sink}: it was written for other inputs (differing: {', '.join(differing)}); "
            "resume with the data and flags that started it, or start a new sink"
        )
    return True


def grid_search(
    train: Dataset,
    test: Dataset,
    spec: GridSpec,
    seed: int = 0,
    sink: Union[str, Path, None] = None,
    workers: int = 1,
    progress: Callable[[int, int], None] | None = None,
) -> GridResult:
    """Evaluate the full (model, method, n, epsilon) cross product.

    ``sink`` appends records as they complete and lets an interrupted run
    resume: already-present cells are skipped, and only the model kinds and
    ranking methods of the pending cells are fitted and ranked.  A fingerprint
    of the inputs is kept beside the sink (see :func:`fingerprint_path`), and
    resuming a sink whose fingerprint differs raises :class:`ResumeError`; a
    sink without one resumes and gets one.  The fits and rankings run in up
    to ``workers`` processes, never more than there are of them; the cells
    are then evaluated here, in order, so results are identical for any
    worker count.  A worker that dies raises :class:`TabevadeError`.
    """
    done: dict[tuple, GridRecord] = {}
    fingerprinted = False
    if sink is not None:
        fingerprint = grid_fingerprint(train, test, spec, seed)
        if Path(sink).exists():
            fingerprinted = _check_fingerprint(Path(sink), fingerprint)
            _trim_torn_tail(sink)
            if Path(sink).stat().st_size > 0:
                for r in GridResult.from_csv(sink).records:
                    done[_cell_key(r.model, r.method, r.n, r.epsilon)] = r
        if not fingerprinted:
            atomic_write_text(fingerprint_path(sink), json.dumps(fingerprint, indent=2) + "\n")

    cells = [
        (kind, method, n, epsilon)
        for kind in spec.model_kinds
        for method in spec.methods
        for n in spec.n_values
        for epsilon in spec.epsilon_values
    ]
    pending = [c for c in cells if _cell_key(*c) not in done]
    kinds = [kind for kind in spec.model_kinds if any(c[0] == kind for c in pending)]
    methods = [method for method in spec.methods if any(c[1] == method for c in pending)]

    tasks = [("fit", kind) for kind in kinds] + [("rank_features", method) for method in methods]
    with ExitStack() as stack:
        if sink is not None:
            handle = stack.enter_context(open(sink, "a", encoding="utf-8", newline=""))
            sink_writer = csv.writer(handle)
            if handle.tell() == 0:
                sink_writer.writerow(GRID_COLUMNS)
                handle.flush()
        if workers > 1 and tasks:
            try:
                with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
                    results = list(pool.map(_prepare, tasks, repeat(train), repeat(seed)))
            except BrokenProcessPool as exc:
                raise TabevadeError(
                    f"a worker process died before the fits and rankings finished ({exc}); "
                    "if it ran out of memory, resume the grid with fewer --workers"
                ) from None
        else:
            results = [_prepare(task, train, seed) for task in tasks]
        prepared = dict(zip(tasks, results))
        baselines = {kind: recall(prepared["fit", kind], test.X, test.y) for kind in kinds}
        scaler, direction = fit_scaler(train), compute_direction(train)
        positives = test.take(test.rows_of_class(1))
        for finished, (kind, method, n, epsilon) in enumerate(pending, start=len(done) + 1):
            config = AttackConfig(n=n, epsilon=epsilon, method=method)
            plan = AttackPlan(train.schema, prepared["rank_features", method], direction, config, scaler)
            preds = predict(prepared["fit", kind], perturb_batch(positives, plan))
            attack_recall = float(preds.mean()) if preds.size else 0.0
            record = GridRecord(kind, method, n, epsilon, baselines[kind], attack_recall,
                                success_rate(baselines[kind], attack_recall))
            done[_cell_key(kind, method, n, epsilon)] = record
            if sink is not None:
                sink_writer.writerow(_record_row(record))
                handle.flush()
            if progress:
                progress(finished, len(cells))

    records = tuple(done[_cell_key(*c)] for c in cells)
    return GridResult(records=records)


# ---------------------------------------------------------------------------
# success-rate curves

CURVE_AXES = ("n", "epsilon", "method")


@dataclass(frozen=True)
class CurvePoint:
    axis_value: object
    success_rate: float
    record: GridRecord


def max_success_curve(grid: GridResult, axis: str, model_kind: str) -> list[CurvePoint]:
    """Per distinct axis value, the best success rate over everything else."""
    if axis not in CURVE_AXES:
        raise ValueError(f"axis must be one of {CURVE_AXES}")
    records = [r for r in grid.records if r.model == model_kind]
    if not records:
        raise MetricError(f"grid holds no records for model {model_kind!r}")
    buckets: dict[object, GridRecord] = {}
    for r in records:
        key = getattr(r, axis)
        best = buckets.get(key)
        if best is None or r.success_rate > best.success_rate:
            buckets[key] = r
    if axis == "method":
        ordered = sorted(buckets, key=lambda m: RANKING_METHODS.index(m))
    else:
        ordered = sorted(buckets)
    return [CurvePoint(axis_value=k, success_rate=buckets[k].success_rate, record=buckets[k]) for k in ordered]
