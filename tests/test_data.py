import collections
import io
import json
import os
import stat

import numpy as np
import pytest

from oracles import load_dataset_reference
from tabevade.data import (
    Dataset,
    FeatureSchema,
    FeatureSpec,
    ScalerState,
    atomic_write_text,
    fit_scaler,
    format_number,
    inverse_transform,
    load_dataset,
    load_schema,
    schema_from_dict,
    split,
    transform,
)
from tabevade.errors import ParseError, SchemaError, ShapeError, StratificationError
from tabevade.synth import census_like, census_like_rows, census_like_schema, demo_pages, web_demo_dataset


def make_schema(*specs, target="class", pos="1", neg="0"):
    return FeatureSchema(
        features=tuple(specs), target_column=target, positive_class_label=pos, negative_class_label=neg
    )


# ---------------------------------------------------------------------------
# schema invariants

def test_duplicate_feature_names_rejected():
    with pytest.raises(SchemaError, match="duplicate"):
        make_schema(FeatureSpec("a", "continuous"), FeatureSpec("a", "discrete"))


def test_target_among_features_rejected():
    with pytest.raises(SchemaError):
        make_schema(FeatureSpec("class", "continuous"))


def test_onehot_needs_group_and_two_members():
    with pytest.raises(SchemaError, match="group"):
        FeatureSpec("flag=a", "onehot")
    with pytest.raises(SchemaError, match="fewer than 2"):
        make_schema(FeatureSpec("flag=a", "onehot", group="flag"), FeatureSpec("x", "continuous"))


def test_addable_implies_mutable():
    with pytest.raises(SchemaError, match="addable"):
        FeatureSpec("a", "discrete", mutable=False, addable=True)


def test_sidecar_rejects_unknown_keys(tmp_path):
    payload = {
        "target_column": "class",
        "positive_class_label": "1",
        "negative_class_label": "0",
        "features": [{"name": "a", "kind": "continuous"}],
        "bogus": 1,
    }
    with pytest.raises(SchemaError, match="unknown schema keys"):
        schema_from_dict(payload)
    payload.pop("bogus")
    payload["features"][0]["extra"] = True
    with pytest.raises(SchemaError, match="unknown feature keys"):
        schema_from_dict(payload)
    payload["features"][0].pop("extra")
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(payload))
    assert load_schema(path).names == ("a",)


# ---------------------------------------------------------------------------
# loading

def test_load_of_a_csv_that_is_not_utf8_names_the_file(tmp_path):
    path = tmp_path / "data.csv"
    path.write_bytes(b"a,class\n1.0,1\n2.0\xff,0\n")
    with pytest.raises(ParseError, match=f"{path} is not UTF-8 text"):
        load_dataset(path, make_schema(FeatureSpec("a", "continuous")))
    with pytest.raises(ParseError, match=f"{path} is not UTF-8 text"):
        load_dataset(str(path), make_schema(FeatureSpec("a", "continuous")))


def test_load_schema_that_is_not_utf8_names_the_file(tmp_path):
    path = tmp_path / "schema.json"
    path.write_bytes(b'{"target_column": "cl\xffass"}')
    with pytest.raises(SchemaError, match=f"schema file {path} is not UTF-8 text"):
        load_schema(path)


@pytest.mark.parametrize("text, error, message", [
    ("a,class\n1,1\nzz,0\n", ParseError, "row 2: non-numeric value 'zz' in column 'a'"),
    ("a,class\n1,2\n", ParseError, "row 1: unknown label '2'"),
    ("b,class\n1,1\n", SchemaError, "CSV header lacks columns: ['a']"),
    ("", ParseError, "CSV has no header row"),
    ("class,a,c\n1,2,y\n0,3,x,y\n", ParseError, "row 2: expected 3 cells, got 4"),
])
def test_load_dataset_errors_name_the_file(tmp_path, text, error, message):
    path = tmp_path / "data.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(error) as info:
        load_dataset(path, make_schema(FeatureSpec("a", "continuous")))
    assert str(info.value) == f"{path}: {message}"


@pytest.mark.parametrize("text, message", [
    ('{"features": []}', "schema file {}: missing schema keys: "),
    ('{"features": [', "schema file {} is not valid JSON: "),
    ("[]", "schema file {} must hold a JSON object"),
    ('{"target_column": "c", "positive_class_label": "1", "negative_class_label": "1", "features": []}',
     "schema file {}: class labels must differ"),
    ('{"target_column": "c", "positive_class_label": "1", "negative_class_label": "0",'
     ' "features": [{"name": "a", "kind": "continuous", "mutable": "false"}]}',
     "schema file {}: feature 'a': 'mutable' must be true or false, got 'false'"),
    ('{"target_column": "c", "positive_class_label": "1", "negative_class_label": "0",'
     ' "features": [{"name": "a", "kind": "continuous", "addable": 1}]}',
     "schema file {}: feature 'a': 'addable' must be true or false, got 1"),
    ('{"target_column": "c", "positive_class_label": "1", "negative_class_label": "0",'
     ' "features": [{"name": 7, "kind": "continuous"}]}',
     "schema file {}: feature 7: 'name' must be a string, got 7"),
    ('{"target_column": "c", "positive_class_label": "1", "negative_class_label": "0",'
     ' "features": [{"name": "a", "kind": ["continuous"]}]}',
     "schema file {}: feature 'a': 'kind' must be a string, got ['continuous']"),
    ('{"target_column": "c", "positive_class_label": "1", "negative_class_label": "0",'
     ' "features": [{"name": "a", "kind": "onehot", "group": 2}]}',
     "schema file {}: feature 'a': 'group' must be a string, got 2"),
    ('{"target_column": "c", "positive_class_label": "1", "negative_class_label": "0", "features": 5}',
     "schema file {}: 'features' must be a list of objects, got 5"),
    ('{"target_column": "c", "positive_class_label": "1", "negative_class_label": "0", "features": [5]}',
     "schema file {}: 'features' must be a list of objects, got [5]"),
    ('{"target_column": "c", "positive_class_label": "1", "negative_class_label": "0", "features": null}',
     "schema file {}: 'features' must be a list of objects, got None"),
    ('{"target_column": ["x"], "positive_class_label": "1", "negative_class_label": "0", "features": []}',
     "schema file {}: 'target_column' must be a string, got ['x']"),
    ('{"target_column": "c", "positive_class_label": null, "negative_class_label": "0", "features": []}',
     "schema file {}: 'positive_class_label' must be a string, got None"),
])
def test_load_schema_errors_name_the_file(tmp_path, text, message):
    path = tmp_path / "schema.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(SchemaError) as info:
        load_schema(path)
    assert str(info.value).startswith(message.format(path))


def test_load_three_row_csv():
    schema = make_schema(FeatureSpec("age", "continuous"))
    csv_text = "age,class\n1.5,1\n2.5,0\n3.5,1\n"
    ds = load_dataset(io.StringIO(csv_text), schema)
    assert ds.X.shape == (3, 1)
    assert ds.y.tolist() == [1, 0, 1]


def test_load_expands_categorical_to_onehot():
    schema = make_schema(FeatureSpec("workclass", "categorical"))
    csv_text = "workclass,class\ngov,1\nprivate,0\ngov,0\n"
    ds = load_dataset(io.StringIO(csv_text), schema)
    assert ds.schema.names == ("workclass=gov", "workclass=private")
    assert ds.X.tolist() == [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]
    # group membership and exactly-one-hot are recorded in the schema
    assert ds.schema.onehot_groups() == {"workclass": [0, 1]}
    assert ds.y.tolist() == [1, 0, 0]


def test_load_refuses_a_categorical_column_with_one_value():
    schema = make_schema(FeatureSpec("workclass", "categorical"))
    with pytest.raises(SchemaError, match=r"categorical column 'workclass' has 1 distinct value\(s\); one-hot groups"):
        load_dataset(io.StringIO("workclass,class\ngov,1\ngov,0\n"), schema)


def test_load_missing_column_is_schema_mismatch():
    schema = make_schema(FeatureSpec("age", "continuous"))
    with pytest.raises(SchemaError, match="age"):
        load_dataset(io.StringIO("height,class\n1,1\n"), schema)


def test_load_bad_value_names_row():
    schema = make_schema(FeatureSpec("age", "continuous"))
    with pytest.raises(ParseError, match="row 2"):
        load_dataset(io.StringIO("age,class\n1,1\nnope,0\n"), schema)


def test_load_missing_value_rejected():
    schema = make_schema(FeatureSpec("age", "continuous"))
    with pytest.raises(ParseError, match="missing"):
        load_dataset(io.StringIO("age,class\n,1\n"), schema)


def test_load_non_integer_discrete_rejected():
    schema = make_schema(FeatureSpec("count", "discrete"))
    with pytest.raises(ParseError, match="non-integer"):
        load_dataset(io.StringIO("count,class\n1.5,1\n"), schema)


def test_load_unknown_label_rejected():
    schema = make_schema(FeatureSpec("age", "continuous"))
    with pytest.raises(ParseError, match="label"):
        load_dataset(io.StringIO("age,class\n1,2\n"), schema)


def test_onehot_expansion_preserves_rows_and_labels():
    rng = np.random.default_rng(0)
    rows = ["v,n,class"]
    labels = []
    for i in range(50):
        label = int(rng.integers(0, 2))
        labels.append(label)
        rows.append(f"{'abc'[int(rng.integers(0, 3))]},{rng.integers(0, 9)},{label}")
    schema = make_schema(FeatureSpec("v", "categorical"), FeatureSpec("n", "discrete"))
    ds = load_dataset(io.StringIO("\n".join(rows)), schema)
    assert ds.n_rows == 50
    assert ds.y.tolist() == labels
    assert np.all(ds.X[:, :3].sum(axis=1) == 1)


def test_dataset_validates_onehot_consistency():
    schema = make_schema(
        FeatureSpec("g=a", "onehot", group="g"), FeatureSpec("g=b", "onehot", group="g")
    )
    with pytest.raises(SchemaError, match="exactly-one-hot"):
        Dataset(X=np.array([[1.0, 1.0]]), y=np.array([1]), schema=schema)


DATASET_SPECS = (FeatureSpec("c", "continuous"), FeatureSpec("d", "discrete"),
                 FeatureSpec("g=a", "onehot", group="g"), FeatureSpec("g=b", "onehot", group="g"))


def _set(row, column, *values):
    def mutate(X, y, specs):
        X[row, column:column + len(values)] = values
        return X, y, specs
    return mutate


@pytest.mark.parametrize("mutate, message", [
    (lambda X, y, specs: (X, y, (FeatureSpec("v", "categorical"), *specs[1:])), "categorical columns"),
    (lambda X, y, specs: (X[:, :3], y, specs), "X has 3 columns, schema has 4"),
    (lambda X, y, specs: (X, y[:1], specs), "y length must equal the X row count"),
    (lambda X, y, specs: (X, np.array([0, 2]), specs), r"labels must be 0 \(target class\) or 1"),
    (_set(1, 1, 2.5), "discrete feature 'd'"),
    (_set(0, 2, 0.5, 0.5), "onehot feature 'g=a'"),
    (_set(1, 0, np.nan), "continuous feature 'c'"),
    (_set(0, 0, np.inf), "continuous feature 'c'"),
    (_set(0, 0, -np.inf, 0.5), "continuous feature 'c'"),  # the first bad feature is named
], ids=["categorical", "columns", "y_length", "label_2", "fraction", "onehot_half", "nan", "inf", "first_named"])
def test_dataset_refuses_what_the_loader_refuses(mutate, message):
    X = np.array([[0.5, 2.0, 1.0, 0.0], [1.5, 3.0, 0.0, 1.0]])
    Dataset(X.copy(), np.array([0, 1]), make_schema(*DATASET_SPECS))  # the unmutated table is valid
    X, y, specs = mutate(X, np.array([0, 1]), DATASET_SPECS)
    with pytest.raises(SchemaError, match=message):
        Dataset(X, y, make_schema(*specs))


# ---------------------------------------------------------------------------
# the columnar loader against the per-cell reference

# cell texts a mutation writes: good and bad numbers as float() reads them, blanks, labels and text
_MUTANT_CELLS = ("", " ", "\t", "nan", "inf", "-Infinity", "1e400", "1e-400", "1_000", "1__0", "\u0661\u0662",
                 "\xa01\xa0", " 2 ", "-0", "0", "1", "0.0", "1.0", "2", "1.5", "-3", "+4", "0x1", "x", "high", "low",
                 "1,5", "\x1c0\x1f", "\u00bd", "9" * 400)


def _mutate(rows: list[list[str]], rng: np.random.Generator, schema: FeatureSchema) -> list[list[str]]:
    """``rows`` (header first) with one to four seeded faults or near-faults; sometimes with shuffled columns."""
    rows = [list(row) for row in rows]
    if rng.random() < 0.3:
        order = rng.permutation(len(rows[0]))
        rows = [[row[i] for i in order] for row in rows]
    label_pos = rows[0].index(schema.target_column)
    labels = ["", "maybe", f" {schema.positive_class_label} ", schema.negative_class_label.upper()]
    for _ in range(int(rng.integers(1, 5))):
        if len(rows) < 2:
            break
        r = int(rng.integers(1, len(rows)))
        kind = rng.random()
        if len(rows[r]) <= label_pos:  # a blank or cut row: make it a fault of its own
            rows[r] = [str(rng.choice(_MUTANT_CELLS))]
        elif kind < 0.6:
            rows[r][int(rng.integers(0, len(rows[r])))] = str(rng.choice(_MUTANT_CELLS))
        elif kind < 0.7:
            rows[r][label_pos] = str(rng.choice(labels))
        elif kind < 0.8:
            rows[r] = rows[r] + ["extra"] if rng.random() < 0.5 else rows[r][:-1]
        elif kind < 0.9:
            rows.insert(r, [] if rng.random() < 0.5 else [" "] * len(rows[0]))
        elif kind < 0.95:
            rows = rows[:r]  # header-only files too
        else:
            rows[r][int(rng.integers(0, len(rows[r])))] = "7" * 140_000  # past csv's field limit
    return rows


def _load_outcome(loader, text: str, schema: FeatureSchema):
    """The loaded dataset's bits and schema, or the exception's type and message."""
    try:
        ds = loader(io.StringIO(text, newline=""), schema)
    except Exception as exc:  # every failure, ours or the csv module's, must match the reference's
        return type(exc), str(exc)
    return ds.X.shape, ds.X.tobytes(), ds.y.tolist(), ds.schema


def _rows(ds: Dataset) -> list[list[str]]:
    schema = ds.schema
    labels = (schema.negative_class_label, schema.positive_class_label)
    return [[*schema.names, schema.target_column],
            *([*map(format_number, x), labels[y]] for x, y in zip(ds.X, ds.y))]


def test_columnar_load_matches_the_per_cell_reference_on_seeded_mutations(monkeypatch):
    from tabevade import data

    # raw census columns (categorical), the expanded census (one-hot) and the page features (discrete)
    expanded, pages = census_like(n_rows=60, seed=6), web_demo_dataset(demo_pages(12, 12, seed=3))
    bases = [(census_like_schema(), census_like_rows(n_rows=90, seed=5)), (expanded.schema, _rows(expanded)),
             (pages.schema, _rows(pages))]
    kinds = collections.Counter()
    for seed in range(240):
        schema, rows = bases[seed % len(bases)]
        rng = np.random.default_rng(seed)
        monkeypatch.setattr(data, "_BLOCK_ROWS", int(rng.choice([1, 7, 16, 1024])))
        text = data.csv_text(_mutate(rows, rng, schema))
        expected = _load_outcome(load_dataset_reference, text, schema)
        assert _load_outcome(load_dataset, text, schema) == expected, (seed, expected)
        kinds[expected[0].__name__ if isinstance(expected[0], type) else "loaded"] += 1
    assert kinds["ParseError"] >= 100 and kinds["loaded"] >= 20 and kinds["Error"] >= 1, kinds


def test_a_bad_cell_is_named_before_undecodable_bytes_further_on(tmp_path):
    path = tmp_path / "data.csv"
    path.write_bytes(b"a,class\n1,1\nzz,0\n" + b"2,1\n" * 5000 + b"\xff,0\n")  # decoded a chunk at a time
    schema = make_schema(FeatureSpec("a", "continuous"))
    for loader in (load_dataset_reference, load_dataset):
        with open(path, encoding="utf-8", newline="") as handle:
            with pytest.raises(ParseError, match="row 2: non-numeric"):
                loader(handle, schema)
    with pytest.raises(ParseError) as info:
        load_dataset(path, schema)
    assert str(info.value) == f"{path}: row 2: non-numeric value 'zz' in column 'a'"


# ---------------------------------------------------------------------------
# split

def blob_dataset(n=100, pos_fraction=0.6, seed=0):
    rng = np.random.default_rng(seed)
    n_pos = int(n * pos_fraction)
    X = rng.normal(size=(n, 2))
    y = np.array([1] * n_pos + [0] * (n - n_pos))
    schema = make_schema(FeatureSpec("a", "continuous"), FeatureSpec("b", "continuous"))
    return Dataset(X=X, y=y, schema=schema)


def test_split_counts_and_stratification():
    ds = blob_dataset(100)
    train, test = split(ds, 0.8, seed=7)
    assert train.n_rows == 80 and test.n_rows == 20
    full_ratio = ds.y.mean()
    assert abs(train.y.mean() - full_ratio) <= 1.0 / train.n_rows
    assert abs(test.y.mean() - full_ratio) <= 1.0 / test.n_rows


def test_split_is_exact_partition():
    ds = blob_dataset(101, pos_fraction=0.37)
    train, test = split(ds, 0.8, seed=3)
    combined = np.vstack([train.X, test.X])
    assert combined.shape[0] == ds.n_rows
    # every original row appears exactly once across the two sides
    original = {tuple(row) for row in ds.X}
    assert {tuple(row) for row in combined} == original


def test_split_deterministic():
    ds = blob_dataset(100)
    a = split(ds, 0.8, seed=42)
    b = split(ds, 0.8, seed=42)
    assert np.array_equal(a[0].X, b[0].X) and np.array_equal(a[1].X, b[1].X)


def test_split_single_class_errors():
    schema = make_schema(FeatureSpec("a", "continuous"))
    ds = Dataset(X=np.ones((10, 1)), y=np.ones(10, dtype=int), schema=schema)
    with pytest.raises(StratificationError):
        split(ds, 0.8, seed=0)


def test_split_refuses_a_class_of_one_row():
    schema = make_schema(FeatureSpec("a", "continuous"))
    ds = Dataset(X=np.arange(10.0)[:, None], y=np.array([1] + [0] * 9), schema=schema)
    with pytest.raises(StratificationError, match="class 1 has fewer than 2 rows"):
        split(ds, 0.8, seed=0)


# ---------------------------------------------------------------------------
# scaler

def test_fit_scaler_simple_column():
    schema = make_schema(FeatureSpec("a", "continuous"))
    ds = Dataset(X=np.array([[2.0], [4.0], [10.0]]), y=np.array([1, 0, 1]), schema=schema)
    scaler = fit_scaler(ds)
    assert scaler.mins[0] == 2.0 and scaler.maxs[0] == 10.0


def test_fit_scaler_constant_column():
    schema = make_schema(FeatureSpec("a", "continuous"))
    ds = Dataset(X=np.array([[5.0], [5.0], [5.0]]), y=np.array([1, 0, 1]), schema=schema)
    scaler = fit_scaler(ds)
    assert scaler.mins[0] == 5.0 and scaler.maxs[0] == 5.0
    assert transform(np.array([5.0]), scaler)[0] == 0.0
    assert inverse_transform(np.array([0.0]), scaler)[0] == 5.0


def test_fit_scaler_matches_column_scan():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(40, 2)) * 10
    schema = make_schema(FeatureSpec("a", "continuous"), FeatureSpec("b", "continuous"))
    ds = Dataset(X=X, y=np.array([1, 0] * 20), schema=schema)
    scaler = fit_scaler(ds)
    for j in range(2):
        lo, hi = np.inf, -np.inf
        for row in X:
            lo, hi = min(lo, row[j]), max(hi, row[j])
        assert scaler.mins[j] == lo and scaler.maxs[j] == hi


def test_transform_midpoint_and_beyond_range():
    scaler = ScalerState(mins=np.array([2.0]), maxs=np.array([10.0]))
    assert transform(np.array([6.0]), scaler)[0] == pytest.approx(0.5)
    # test-time values past the training max scale past 1 and are not clipped
    assert transform(np.array([12.0]), scaler)[0] == pytest.approx(1.25)


def test_inverse_transform_midpoint():
    scaler = ScalerState(mins=np.array([2.0]), maxs=np.array([10.0]))
    assert inverse_transform(np.array([0.5]), scaler)[0] == pytest.approx(6.0)


def test_round_trip_random_values():
    rng = np.random.default_rng(11)
    mins = rng.normal(size=8) * 3
    maxs = mins + rng.random(8) * 10 + 0.1
    scaler = ScalerState(mins=mins, maxs=maxs)
    for _ in range(1000):
        x = mins + rng.random(8) * (maxs - mins)
        back = inverse_transform(transform(x, scaler), scaler)
        assert np.allclose(back, x, rtol=1e-9, atol=1e-12)


def test_training_rows_scale_into_unit_interval():
    ds = blob_dataset(60, seed=9)
    scaler = fit_scaler(ds)
    scaled = transform(ds.X, scaler)
    assert scaled.min() >= 0.0 and scaled.max() <= 1.0


def test_transform_shape_mismatch():
    scaler = ScalerState(mins=np.zeros(2), maxs=np.ones(2))
    with pytest.raises(ShapeError):
        transform(np.zeros(3), scaler)


def test_scaler_rejects_min_above_max():
    with pytest.raises(SchemaError):
        ScalerState(mins=np.array([1.0]), maxs=np.array([0.0]))


# ---------------------------------------------------------------------------
# atomic writes

def test_atomic_write_ignores_a_directory_at_the_old_temp_name(tmp_path):
    # the temp file used to be a fixed <name>.tmp, so this directory broke the write
    (tmp_path / "manifest.json.tmp").mkdir()
    atomic_write_text(tmp_path / "manifest.json", "{}\n")
    assert (tmp_path / "manifest.json").read_text(encoding="utf-8") == "{}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json", "manifest.json.tmp"]


def test_atomic_write_replaces_and_keeps_text_untranslated(tmp_path):
    target = tmp_path / "grid.csv"
    atomic_write_text(target, "old\n")
    atomic_write_text(target, "a,b\r\nc\n")
    assert target.read_bytes() == b"a,b\r\nc\n"
    assert [p.name for p in tmp_path.iterdir()] == ["grid.csv"]


def test_atomic_write_removes_its_temp_file_on_failure(tmp_path):
    target = tmp_path / "out"
    target.mkdir()  # a file cannot replace a directory
    with pytest.raises(OSError):
        atomic_write_text(target, "text")
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
    assert list(target.iterdir()) == []


@pytest.mark.parametrize("umask", [0o077, 0o022], ids=["077", "022"])
def test_atomic_write_takes_the_mode_a_plain_open_gives(tmp_path, umask):
    previous = os.umask(umask)  # set after import, as a caller of the package would
    try:
        atomic_write_text(tmp_path / "atomic", "x")
        with open(tmp_path / "plain", "w", encoding="utf-8") as handle:
            handle.write("x")
    finally:
        os.umask(previous)
    modes = {stat.S_IMODE((tmp_path / name).stat().st_mode) for name in ("atomic", "plain")}
    assert modes == {0o666 & ~umask}
