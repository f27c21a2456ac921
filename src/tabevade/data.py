"""Dataset loading, feature schema, one-hot expansion, splitting and min-max scaling.

Conventions used throughout the package:

* labels are stored as a 0/1 integer vector where 1 is the *input class*
  (the class being perturbed, e.g. phishing) and 0 is the *target class*
  (the class being mimicked, e.g. legitimate);
* feature matrices are float64, rows = samples, columns in schema order;
* one-hot group members are discrete binary columns named by the schema.
"""
from __future__ import annotations

import csv
import io
import json
import math
import os
import shutil
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterator, Mapping, TextIO, Union

import numpy as np

from .errors import ParseError, SchemaError, ShapeError, StratificationError, TabevadeError

FEATURE_KINDS = ("continuous", "discrete", "categorical", "onehot")


@dataclass(frozen=True)
class FeatureSpec:
    """One column of the feature space.

    ``categorical`` marks a raw text column in a source CSV that is expanded
    into one-hot members at load time; a loaded :class:`Dataset` never
    contains categorical specs.  ``addable`` means the feature can be
    realized in problem space by adding page content, which requires the
    feature to be mutable at all.
    """

    name: str
    kind: str
    group: str | None = None
    mutable: bool = True
    addable: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("feature name must be non-empty")
        if self.kind not in FEATURE_KINDS:
            raise SchemaError(f"unknown feature kind {self.kind!r} for {self.name!r}")
        if self.kind == "onehot" and not self.group:
            raise SchemaError(f"onehot feature {self.name!r} must name its group")
        if self.kind != "onehot" and self.group is not None:
            raise SchemaError(f"feature {self.name!r} of kind {self.kind} must not name a group")
        if self.addable and not self.mutable:
            raise SchemaError(f"feature {self.name!r} is addable but not mutable")

    @property
    def is_discrete(self) -> bool:
        # one-hot members are implicitly discrete with range {0, 1}
        return self.kind in ("discrete", "onehot")


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered feature specs plus the label convention of the task."""

    features: tuple[FeatureSpec, ...]
    target_column: str
    positive_class_label: str
    negative_class_label: str

    def __post_init__(self) -> None:
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise SchemaError(f"duplicate feature names: {dupes}")
        if not self.target_column:
            raise SchemaError("target_column must be non-empty")
        if self.target_column in names:
            raise SchemaError(f"target column {self.target_column!r} is also a feature")
        if self.positive_class_label == self.negative_class_label:
            raise SchemaError("class labels must differ")
        for group, members in self.onehot_groups().items():
            if len(members) < 2:
                raise SchemaError(f"one-hot group {group!r} has fewer than 2 members")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.features)

    @property
    def n_features(self) -> int:
        return len(self.features)

    def index_of(self, name: str) -> int:
        for i, f in enumerate(self.features):
            if f.name == name:
                return i
        raise SchemaError(f"unknown feature {name!r}")

    def onehot_groups(self) -> dict[str, list[int]]:
        groups: dict[str, list[int]] = {}
        for i, f in enumerate(self.features):
            if f.kind == "onehot":
                groups.setdefault(f.group, []).append(i)
        return groups

    def discrete_mask(self) -> np.ndarray:
        return np.array([f.is_discrete for f in self.features], dtype=bool)

    def mutable_mask(self) -> np.ndarray:
        return np.array([f.mutable for f in self.features], dtype=bool)

    def addable_indices(self) -> list[int]:
        return [i for i, f in enumerate(self.features) if f.addable]

    def has_categorical(self) -> bool:
        return any(f.kind == "categorical" for f in self.features)


# ---------------------------------------------------------------------------
# schema sidecar (JSON, strict)

_SCHEMA_KEYS = {"target_column", "positive_class_label", "negative_class_label", "features"}
_FEATURE_TYPES = {"name": str, "kind": str, "group": str, "mutable": bool, "addable": bool}


def schema_from_dict(payload: Mapping) -> FeatureSchema:
    """Parse the sidecar payload; unknown keys are rejected."""
    unknown = set(payload) - _SCHEMA_KEYS
    if unknown:
        raise SchemaError(f"unknown schema keys: {sorted(unknown)}")
    missing = _SCHEMA_KEYS - set(payload)
    if missing:
        raise SchemaError(f"missing schema keys: {sorted(missing)}")
    for key in ("target_column", "positive_class_label", "negative_class_label"):
        if not isinstance(payload[key], str):
            raise SchemaError(f"{key!r} must be a string, got {payload[key]!r}")
    if not isinstance(payload["features"], list) or not all(isinstance(entry, dict) for entry in payload["features"]):
        raise SchemaError(f"'features' must be a list of objects, got {payload['features']!r}")
    specs = []
    for entry in payload["features"]:
        extra = set(entry) - set(_FEATURE_TYPES)
        if extra:
            raise SchemaError(f"unknown feature keys: {sorted(extra)}")
        if "name" not in entry or "kind" not in entry:
            raise SchemaError("every feature needs at least 'name' and 'kind'")
        for key, value in entry.items():
            if not isinstance(value, _FEATURE_TYPES[key]):  # no coercion: "false" is not false
                need = "a string" if _FEATURE_TYPES[key] is str else "true or false"
                raise SchemaError(f"feature {entry['name']!r}: {key!r} must be {need}, got {value!r}")
        specs.append(FeatureSpec(**entry))
    return FeatureSchema(
        features=tuple(specs),
        target_column=payload["target_column"],
        positive_class_label=payload["positive_class_label"],
        negative_class_label=payload["negative_class_label"],
    )


def schema_to_dict(schema: FeatureSchema) -> dict:
    features = []
    for f in schema.features:
        entry = {"name": f.name, "kind": f.kind, "mutable": f.mutable, "addable": f.addable}
        if f.group is not None:
            entry["group"] = f.group
        features.append(entry)
    return {
        "target_column": schema.target_column,
        "positive_class_label": schema.positive_class_label,
        "negative_class_label": schema.negative_class_label,
        "features": features,
    }


def load_schema(path: Union[str, Path]) -> FeatureSchema:
    """Read a schema file; the errors it raises name the file."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise SchemaError(f"schema file {path} is not UTF-8 text ({exc.reason})") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"schema file {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise SchemaError(f"schema file {path} must hold a JSON object")
    try:
        return schema_from_dict(payload)
    except TabevadeError as exc:
        raise type(exc)(f"schema file {path}: {exc}") from exc


def _private_name(path: Path) -> Path:
    return path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")  # where a write stages before its rename


def atomic_write_text(path: Union[str, Path], text: str) -> None:
    """Write-then-rename so readers never observe a partial file.

    The text goes, untranslated, to a temp file beside ``path`` under a
    random name, created exclusively (so concurrent writers never share one)
    with the mode a plain ``open`` gives under the umask in force, and
    replaces ``path`` once synced: a crash leaves the old file or the new one.
    The temp file is removed when anything fails.
    """
    tmp = _private_name(Path(path))
    handle = open(tmp, "x", encoding="utf-8", newline="")  # before the try: a name taken is not ours to unlink
    try:
        with handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


@contextmanager
def atomic_directory(path: Union[str, Path]) -> Iterator[Path]:
    """Yield a private directory beside ``path``: renamed to it when the block ends, removed if the block raises.

    ``path`` must be absent or an empty directory.  The files, unreachable until the rename, may be written
    plainly: the caller syncs a last one that vouches for them.
    """
    tmp = _private_name(Path(path))
    tmp.mkdir()  # before the try: a name taken is not ours to remove
    try:
        yield tmp
        os.rename(tmp, path)
    except BaseException:
        shutil.rmtree(tmp)
        raise


def save_schema(schema: FeatureSchema, path: Union[str, Path]) -> None:
    atomic_write_text(path, json.dumps(schema_to_dict(schema), indent=2) + "\n")


# ---------------------------------------------------------------------------
# dataset

@dataclass(frozen=True)
class Dataset:
    """Immutable numeric feature matrix with binary labels and its schema."""

    X: np.ndarray
    y: np.ndarray
    schema: FeatureSchema

    def __post_init__(self) -> None:
        X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=int)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        if self.schema.has_categorical():
            raise SchemaError("datasets require categorical columns to be expanded first")
        if X.ndim != 2 or X.shape[1] != self.schema.n_features:
            raise SchemaError(
                f"X has {X.shape[1] if X.ndim == 2 else '?'} columns, schema has {self.schema.n_features}"
            )
        if y.ndim != 1 or y.shape[0] != X.shape[0]:
            raise SchemaError("y length must equal the X row count")
        if y.size and not np.isin(y, (0, 1)).all():
            raise SchemaError("labels must be 0 (target class) or 1 (input class)")
        bad = _first_invalid(X.T, self.schema.features)
        if bad is not None:
            spec = self.schema.features[bad]
            raise SchemaError(f"{spec.kind} feature {spec.name!r} holds a value that is not finite, or not whole"
                              f" in a discrete column, or not 0 or 1 in a one-hot one")
        for group, members in self.schema.onehot_groups().items():
            if X.shape[0] and not np.all(X[:, members].sum(axis=1) == 1):
                raise SchemaError(f"one-hot group {group!r} is not exactly-one-hot in some row")
        X.setflags(write=False)
        y.setflags(write=False)

    @property
    def n_rows(self) -> int:
        return int(self.X.shape[0])

    @property
    def n_features(self) -> int:
        return int(self.X.shape[1])

    def rows_of_class(self, label: int) -> np.ndarray:
        return np.flatnonzero(self.y == label)

    def take(self, indices: np.ndarray) -> "Dataset":
        return Dataset(self.X[indices].copy(), self.y[indices].copy(), self.schema)


_BLOCK_ROWS = 1024  # data rows parsed at once; only the pending block's cells are held as text


def _parse_numeric(cell: str, spec: FeatureSpec, row: int) -> float:
    text = cell.strip()
    if not text:
        raise ParseError(f"row {row}: missing value in column {spec.name!r}")
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"row {row}: non-numeric value {cell!r} in column {spec.name!r}") from None
    if not math.isfinite(value):
        raise ParseError(f"row {row}: non-finite value {cell!r} in column {spec.name!r}")
    if spec.is_discrete and value != math.floor(value):
        raise ParseError(f"row {row}: non-integer value {cell!r} in discrete column {spec.name!r}")
    if spec.kind == "onehot" and value not in (0.0, 1.0):
        raise ParseError(f"row {row}: one-hot column {spec.name!r} holds {cell!r}, expected 0 or 1")
    return value


def _row_blocks(reader, width: int, label_pos: int, labels: Mapping[str, int]):
    """Yield the data rows of ``reader`` as (rows, their 1-based numbers, their labels) blocks of at most
    ``_BLOCK_ROWS``, skipping blank lines.  A row of another width than the header's, a row with an unknown
    label, or a failure to read the next row ends the last block, and is raised once that block has been
    yielded, so the cells of the rows before it are checked first."""
    rows: list[list[str]] = []
    numbers: list[int] = []
    ys: list[int] = []
    problem = None
    try:
        for number, row in enumerate(reader, start=1):
            if not "".join(row).strip():
                continue  # blank line
            if len(row) != width:
                problem = ParseError(f"row {number}: expected {width} cells, got {len(row)}")
                break
            label = row[label_pos].strip()
            if label not in labels:
                problem = ParseError(f"row {number}: unknown label {label!r}")
                break
            rows.append(row)
            numbers.append(number)
            ys.append(labels[label])
            if len(rows) == _BLOCK_ROWS:
                yield rows, numbers, ys
                rows, numbers, ys = [], [], []
    except (csv.Error, UnicodeDecodeError) as exc:
        problem = exc
    yield rows, numbers, ys
    if problem is not None:
        raise problem


def _raise_first_bad_cell(rows: list[list[str]], numbers: list[int], specs: tuple[FeatureSpec, ...],
                          cells_of: list[int]) -> None:
    """Raise the ParseError of the block's first bad cell in row-major order (row, then schema order)."""
    for row, number in zip(rows, numbers):
        for spec, position in zip(specs, cells_of):
            if spec.kind != "categorical":
                _parse_numeric(row[position], spec, number)
            elif not row[position].strip():
                raise ParseError(f"row {number}: missing value in column {spec.name!r}")


def _first_invalid(values: np.ndarray, specs) -> int | None:
    """The first spec whose row of ``values`` (one per spec) holds a value that is not finite, has a
    fraction in a discrete column, or is other than 0 or 1 in a one-hot column; None if there is none."""
    discrete = np.array([spec.is_discrete for spec in specs], dtype=bool)[:, None]
    onehot = np.array([spec.kind == "onehot" for spec in specs], dtype=bool)[:, None]
    bad = np.flatnonzero((~np.isfinite(values) | (discrete & (values != np.floor(values)))
                          | (onehot & (values != 0.0) & (values != 1.0))).any(axis=1))
    return int(bad[0]) if bad.size else None


def _parse_block(rows: list[list[str]], numbers: list[int], specs: tuple[FeatureSpec, ...],
                 cells_of: list[int]) -> list:
    """The block's cells of each feature in schema order: floats for a numeric one, stripped text for a
    categorical one; ``cells_of[j]`` is the CSV position of feature ``j``.  A block with a bad cell
    raises the ParseError of the first one in row-major order."""
    by_position = list(zip(*rows))
    columns: list = [list(map(str.strip, by_position[position])) for position in cells_of]
    numeric = [j for j, spec in enumerate(specs) if spec.kind != "categorical"]
    try:
        # numpy calls float() on each str, so a value is float(cell.strip()), and a blank or
        # non-numeric cell raises here as it does in _parse_numeric
        values = np.array([columns[j] for j in numeric], dtype=float).reshape(len(numeric), len(rows))
    except ValueError:
        values = None
    blank = any("" in column for column, spec in zip(columns, specs) if spec.kind == "categorical")
    if values is None or blank or _first_invalid(values, [specs[j] for j in numeric]) is not None:
        _raise_first_bad_cell(rows, numbers, specs, cells_of)
    for j, column in zip(numeric, values):
        columns[j] = column
    return columns


def load_dataset(source: Union[str, Path, TextIO], schema: FeatureSchema) -> Dataset:
    """Load a header-carrying CSV and expand categorical columns to one-hot.

    Row indices in errors are 1-based data-row positions (the header is row
    0), and errors on a path name the file.  Columns in the CSV that the
    schema does not mention are ignored.  When several cells are bad, the
    error names the first in row-major order, and a row of the wrong width
    or with an unknown label counts as bad before its cells.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", newline="") as handle:
            try:
                return load_dataset(handle, schema)
            except UnicodeDecodeError as exc:
                raise ParseError(f"{source} is not UTF-8 text ({exc.reason})") from None
            except TabevadeError as exc:
                raise type(exc)(f"{source}: {exc}") from exc

    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("CSV has no header row") from None
    header = [h.strip() for h in header]
    positions: dict[str, int] = {}
    for idx, name in enumerate(header):
        positions.setdefault(name, idx)

    missing = [n for n in (*schema.names, schema.target_column) if n not in positions]
    if missing:
        raise SchemaError(f"CSV header lacks columns: {missing}")

    cells_of = [positions[name] for name in schema.names]
    labels_of = {schema.positive_class_label: 1, schema.negative_class_label: 0}
    blocks: list[list] = [[] for _ in schema.features]  # each feature's parsed blocks
    labels: list[int] = []
    for rows, numbers, ys in _row_blocks(reader, len(header), positions[schema.target_column], labels_of):
        if rows:
            for parts, column in zip(blocks, _parse_block(rows, numbers, schema.features, cells_of)):
                parts.append(column)
            labels.extend(ys)

    expanded_specs: list[FeatureSpec] = []
    expanded_cols: list[np.ndarray] = []
    n = len(labels)
    for spec, parts in zip(schema.features, blocks):
        if spec.kind != "categorical":
            expanded_specs.append(spec)
            expanded_cols.append(np.concatenate(parts) if parts else np.zeros(0))
            continue
        column = list(chain.from_iterable(parts))
        values = sorted(set(column))
        if len(values) < 2:
            raise SchemaError(
                f"categorical column {spec.name!r} has {len(values)} distinct value(s); "
                "one-hot groups need at least 2"
            )
        code_of = {value: code for code, value in enumerate(values)}
        codes = np.fromiter(map(code_of.__getitem__, column), dtype=np.intp, count=len(column))
        for code, value in enumerate(values):
            expanded_specs.append(
                FeatureSpec(
                    name=f"{spec.name}={value}",
                    kind="onehot",
                    group=spec.name,
                    mutable=spec.mutable,
                    addable=spec.addable,
                )
            )
            expanded_cols.append((codes == code).astype(float))

    X = np.column_stack(expanded_cols) if expanded_cols else np.zeros((n, 0))
    out_schema = FeatureSchema(
        features=tuple(expanded_specs),
        target_column=schema.target_column,
        positive_class_label=schema.positive_class_label,
        negative_class_label=schema.negative_class_label,
    )
    return Dataset(X=X, y=np.asarray(labels, dtype=int), schema=out_schema)


def csv_text(rows, lineterminator: str = "\n") -> str:
    """``rows`` as CSV text, each line ended by ``lineterminator``: CRLF in grid.csv and labels.csv, LF elsewhere."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator=lineterminator).writerows(rows)
    return buffer.getvalue()


def save_dataset_csv(dataset: Dataset, path: Union[str, Path]) -> None:
    """Write the (expanded) dataset back out as CSV with a label column."""
    schema = dataset.schema
    labels = np.where(dataset.y == 1, schema.positive_class_label, schema.negative_class_label)
    rows = [[format_number(v) for v in row] + [label] for row, label in zip(dataset.X, labels)]
    atomic_write_text(path, csv_text([[*schema.names, schema.target_column], *rows]))


def format_number(value: float) -> str:
    """Shortest-roundtrip decimal text; integers drop the trailing .0."""
    value = float(value)
    if value == math.floor(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def split(dataset: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Deterministic stratified partition into (train, test).

    Per-class train counts are round(train_fraction * class size), clamped so
    both sides keep at least one row of each class.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie in (0, 1)")
    labels = np.unique(dataset.y)
    if labels.size < 2:
        raise StratificationError("stratified split needs both classes present")
    rng = np.random.default_rng(seed)
    train_idx: list[np.ndarray] = []
    test_idx: list[np.ndarray] = []
    for label in labels:
        rows = dataset.rows_of_class(int(label))
        if rows.size < 2:
            raise StratificationError(f"class {label} has fewer than 2 rows")
        shuffled = rng.permutation(rows)
        k = int(round(train_fraction * rows.size))
        k = min(max(k, 1), rows.size - 1)
        train_idx.append(shuffled[:k])
        test_idx.append(shuffled[k:])
    train_rows = np.sort(np.concatenate(train_idx))
    test_rows = np.sort(np.concatenate(test_idx))
    return dataset.take(train_rows), dataset.take(test_rows)


# ---------------------------------------------------------------------------
# min-max scaling transformer

@dataclass(frozen=True)
class ScalerState:
    """Per-feature (min, max) learned from training rows.

    ``transform`` maps v to (v - min) / (max - min) without clipping, so test
    values outside the training range land outside [0, 1].  Constant features
    (min == max) transform to 0 and invert to min.
    """

    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self) -> None:
        mins = np.asarray(self.mins, dtype=float)
        maxs = np.asarray(self.maxs, dtype=float)
        object.__setattr__(self, "mins", mins)
        object.__setattr__(self, "maxs", maxs)
        if mins.shape != maxs.shape or mins.ndim != 1:
            raise SchemaError("scaler min/max must be matching 1-D vectors")
        if np.any(mins > maxs):
            raise SchemaError("scaler has min > max for some feature")
        mins.setflags(write=False)
        maxs.setflags(write=False)

    @property
    def n_features(self) -> int:
        return int(self.mins.size)

    def constant_mask(self) -> np.ndarray:
        return self.maxs == self.mins


def fit_scaler(train: Dataset) -> ScalerState:
    if train.n_rows == 0:
        raise ValueError("cannot fit a scaler on an empty dataset")
    return ScalerState(mins=train.X.min(axis=0), maxs=train.X.max(axis=0))


def _check_width(x, scaler: ScalerState) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.shape[-1] != scaler.n_features:
        raise ShapeError(f"vector has {arr.shape[-1]} features, scaler expects {scaler.n_features}")
    return arr


def transform(x, scaler: ScalerState) -> np.ndarray:
    """Scale a sample vector (or row matrix) into training-range units."""
    arr = _check_width(x, scaler)
    span = scaler.maxs - scaler.mins
    safe = np.where(span == 0.0, 1.0, span)
    out = (arr - scaler.mins) / safe
    return np.where(span == 0.0, 0.0, out)


def inverse_transform(x_scaled, scaler: ScalerState) -> np.ndarray:
    arr = _check_width(x_scaled, scaler)
    span = scaler.maxs - scaler.mins
    out = arr * span + scaler.mins
    return np.where(span == 0.0, scaler.mins, out)
