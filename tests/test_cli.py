import csv
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import tabevade
import tabevade.attack as attack
import tabevade.evaluation as evaluation
from tabevade import cli, synth
from tabevade.cli import run
from tabevade.data import load_dataset, load_schema, save_dataset_csv, save_schema
from tabevade.errors import FitError
from tabevade.svgchart import bar_chart, line_chart
from tabevade.synth import census_like_rows, census_like_schema, gaussian_blobs
from tabevade.webfeatures import WebPage


@pytest.fixture()
def census_files(tmp_path):
    data = tmp_path / "data.csv"
    schema = tmp_path / "schema.json"
    rows = census_like_rows(n_rows=300, seed=1)
    data.write_text("\n".join(",".join(r) for r in rows) + "\n", encoding="utf-8")
    save_schema(census_like_schema(), schema)
    return data, schema


def read_csv(path: Path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


def run_ok(argv):
    code = run(argv)
    assert code == 0, argv
    return code


# ---------------------------------------------------------------------------

def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 2


def test_missing_input_file_exits_1(tmp_path):
    code = run(
        ["rank", "--data", str(tmp_path / "nope.csv"), "--schema", str(tmp_path / "nope.json"),
         "--method", "gini_impurity", "--out", str(tmp_path), "--run-name", "r"]
    )
    assert code == 1


def test_synth_then_train(tmp_path, census_files):
    data, schema = census_files
    run_ok(
        ["train", "--data", str(data), "--schema", str(schema), "--kind", "decision_tree",
         "--seed", "3", "--out", str(tmp_path / "runs"), "--run-name", "t1"]
    )
    run_dir = tmp_path / "runs" / "t1"
    assert (run_dir / "model.json").exists()
    assert (run_dir / "manifest.json").exists()
    metrics = json.loads((run_dir / "metrics.json").read_text())
    assert metrics["test_recall"] > 0.5



def test_train_with_a_negative_batch_size_exits_1_and_leaves_no_run_dir(tmp_path, census_files, capsys):
    data, schema = census_files
    code = run(["train", "--data", str(data), "--schema", str(schema), "--kind", "mlp",
                "--hyper", "batch_size=-1", "--hyper", "epochs=1", "--out", str(tmp_path / "runs"), "--run-name", "t"])
    assert code == 1
    assert "mlp hyperparameter 'batch_size' must be a whole number of at least 1, got -1" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_manifest_records_the_interpreter_and_numpy(tmp_path):
    import numpy

    run_ok(["synth", "--dataset", "blobs", "--rows", "20", "--seed", "1", "--out", str(tmp_path), "--run-name", "b"])
    manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
    assert manifest["python"] == "%d.%d.%d" % sys.version_info[:3]
    assert manifest["numpy"] == numpy.__version__
    assert manifest["version"] == tabevade.__version__


def test_manifest_names_the_blas_core_and_numpy_simd_targets(tmp_path):
    run_ok(["synth", "--dataset", "blobs", "--rows", "20", "--seed", "1", "--out", str(tmp_path), "--run-name", "b"])
    manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
    platform = evaluation.numeric_platform()
    assert {key: manifest[key] for key in platform} == platform
    assert isinstance(manifest["blas_core"], str) and manifest["blas_core"]
    assert manifest["numpy_simd"] and all(isinstance(target, str) for target in manifest["numpy_simd"])

def test_rank_on_separating_feature(tmp_path):
    data = tmp_path / "tiny.csv"
    schema_path = tmp_path / "tiny.json"
    data.write_text("a,b,class\n0,5,0\n0,5,0\n1,5,1\n1,5,1\n", encoding="utf-8")
    schema_path.write_text(json.dumps({
        "target_column": "class",
        "positive_class_label": "1",
        "negative_class_label": "0",
        "features": [
            {"name": "a", "kind": "discrete"},
            {"name": "b", "kind": "discrete"},
        ],
    }), encoding="utf-8")
    run_ok(["rank", "--data", str(data), "--schema", str(schema_path), "--method", "gini_impurity",
            "--out", str(tmp_path), "--run-name", "r1"])
    rows = read_csv(tmp_path / "r1" / "rank.csv")
    assert rows[0] == ["feature_name", "method", "score", "rank"]
    assert rows[1] == ["a", "gini_impurity", "0.5", "1"]
    assert rows[2][0] == "b" and rows[2][3] == "2"


def test_attack_zero_epsilon_outputs_input_rows(tmp_path, census_files):
    data, schema = census_files
    run_ok(["attack", "--data", str(data), "--schema", str(schema), "--n", "3",
            "--epsilon", "0", "--out", str(tmp_path), "--run-name", "a0"])
    out = tmp_path / "a0" / "adversarial.csv"
    loaded_schema = load_schema(schema)
    full = load_dataset(data, loaded_schema)
    adversarial = load_dataset(out, full.schema)
    positives = full.take(full.rows_of_class(1))
    assert adversarial.n_rows == positives.n_rows
    assert (adversarial.X == positives.X).all()
    deltas = read_csv(tmp_path / "a0" / "deltas.csv")
    assert deltas[0] == ["row", "feature", "original", "perturbed", "delta"]
    assert all(r[4] == "0" for r in deltas[1:])


def test_evaluate_writes_report(tmp_path, census_files):
    data, schema = census_files
    run_ok(["evaluate", "--data", str(data), "--schema", str(schema), "--kind", "logistic_regression",
            "--n", "6", "--epsilon", "1.0", "--method", "info_gain_ratio",
            "--out", str(tmp_path), "--run-name", "e1"])
    report = json.loads((tmp_path / "e1" / "report.json").read_text())
    assert report["model"] == "logistic_regression"
    assert report["success_rate"] > 0.5


def test_gridsearch_epsilon_grid_has_50_values(tmp_path, census_files):
    data, schema = census_files
    run_ok(["gridsearch", "--data", str(data), "--schema", str(schema),
            "--models", "logistic_regression", "--methods", "gini_impurity",
            "--n-values", "2", "--eps-min", "0.001", "--eps-max", "4.0", "--eps-steps", "50",
            "--workers", "1", "--out", str(tmp_path), "--run-name", "g1"])
    rows = read_csv(tmp_path / "g1" / "grid.csv")
    assert rows[0] == ["model", "method", "n", "epsilon", "baseline_recall", "attack_recall", "success_rate"]
    eps = [r[3] for r in rows[1:]]
    assert len(eps) == 50 and len(set(eps)) == 50
    assert eps[0] == "0.001" and eps[-1] == "4"


def test_gridsearch_n_min_and_n_max_write_only_that_range(tmp_path, census_files):
    data, schema = census_files
    common = ["gridsearch", "--data", str(data), "--schema", str(schema), "--models", "logistic_regression",
              "--eps-steps", "2", "--workers", "1", "--out", str(tmp_path)]
    run_ok([*common, "--n-min", "2", "--n-max", "3", "--run-name", "range"])
    run_ok([*common, "--n-values", "2,3", "--run-name", "values"])
    grid = read_csv(tmp_path / "range" / "grid.csv")
    n = grid[0].index("n")
    assert sorted({row[n] for row in grid[1:]}) == ["2", "3"] and len(grid) == 1 + 2 * 2
    assert grid == read_csv(tmp_path / "values" / "grid.csv")


def test_gridsearch_deterministic_csv_bytes(tmp_path, census_files):
    data, schema = census_files
    args = ["gridsearch", "--data", str(data), "--schema", str(schema),
            "--models", "logistic_regression,decision_tree", "--methods", "gini_impurity",
            "--n-values", "1,3", "--eps-min", "0.1", "--eps-max", "1.0", "--eps-steps", "3",
            "--seed", "5", "--out", str(tmp_path)]
    run_ok(args + ["--run-name", "d1", "--workers", "1"])
    run_ok(args + ["--run-name", "d2", "--workers", "2"])
    a = (tmp_path / "d1" / "grid.csv").read_bytes()
    b = (tmp_path / "d2" / "grid.csv").read_bytes()
    assert a == b


def test_curves_outputs_csvs_svgs_and_summary(tmp_path, census_files):
    data, schema = census_files
    run_ok(["gridsearch", "--data", str(data), "--schema", str(schema),
            "--models", "logistic_regression", "--methods", "gini_impurity",
            "--n-values", "1,3", "--eps-min", "0.1", "--eps-max", "1.2", "--eps-steps", "4",
            "--workers", "1", "--out", str(tmp_path), "--run-name", "gc"])
    run_ok(["curves", "--grid", str(tmp_path / "gc" / "grid.csv"),
            "--out", str(tmp_path), "--run-name", "cv"])
    out = tmp_path / "cv"
    csvs = sorted(p.name for p in out.glob("curve_*.csv"))
    svgs = sorted(p.name for p in out.glob("curve_*.svg"))
    assert len(csvs) == 3 and len(svgs) == 3  # one per axis for the one model
    for svg in out.glob("curve_*.svg"):
        ET.fromstring(svg.read_text(encoding="utf-8"))  # well-formed XML
    summary = read_csv(out / "summary.csv")
    assert summary[0] == ["model", "baseline_recall", "attack_recall", "success_rate", "n", "epsilon", "method"]
    assert summary[1][0] == "logistic_regression"


def test_chart_text_is_escaped_as_before():
    # the bytes xml.sax.saxutils.escape gave: &, < and > as entities, quotes kept
    text = "a&b <c> \"d\" 'e'"
    escaped = "a&amp;b &lt;c&gt; \"d\" 'e'"
    line = line_chart([(0.0, 0.5), (1.0, 0.25)], text, text, text)
    bar = bar_chart([(text, 0.5)], text, "x", "y")
    assert line.count(f">{escaped}</text>") == 3
    assert f">{escaped}</text>" in bar and f"<desc>{escaped},0.5</desc>" in bar
    for svg in (line, bar):
        ET.fromstring(svg)


def test_cli_import_loads_no_network_modules():
    code = ("import sys, tabevade.cli; "
            "print([m for m in ('urllib.request', 'http.client', 'ssl') if m in sys.modules])")
    env = {**os.environ, "PYTHONPATH": str(Path(tabevade.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_extract_writes_52_feature_columns(tmp_path):
    run_ok(["synth", "--dataset", "webpages", "--rows", "10", "--seed", "2",
            "--out", str(tmp_path), "--run-name", "pages"])
    pages_dir = tmp_path / "pages" / "pages"
    assert (pages_dir / "labels.csv").exists()
    run_ok(["extract", "--pages", str(pages_dir), "--out", str(tmp_path), "--run-name", "x1"])
    rows = read_csv(tmp_path / "x1" / "features.csv")
    assert rows[0][0] == "page"
    assert len(rows[0]) == 53  # page id + the 52 features
    assert len(rows) == 41  # 20 phishing + 20 benign pages


def test_extract_of_a_single_page_file_writes_one_row(tmp_path):
    run_ok(["synth", "--dataset", "webpages", "--seed", "4", "--out", str(tmp_path), "--run-name", "w"])
    pages = tmp_path / "w" / "pages"
    page = sorted(pages.glob("*.html"))[3]
    run_ok(["extract", "--pages", str(page), "--out", str(tmp_path), "--run-name", "one"])
    run_ok(["extract", "--pages", str(pages), "--out", str(tmp_path), "--run-name", "all"])
    one, every = read_csv(tmp_path / "one" / "features.csv"), read_csv(tmp_path / "all" / "features.csv")
    assert one == [every[0], next(row for row in every if row[0] == page.name)]


def test_train_hyper_without_an_equals_sign_exits_1_and_a_bare_word_stays_a_string(tmp_path, census_files,
                                                                                    capsys):
    data, schema = census_files
    argv = ["train", "--data", str(data), "--schema", str(schema), "--kind", "decision_tree", "--out", str(tmp_path)]
    assert run([*argv, "--hyper", "max_depth", "--run-name", "bad"]) == 1
    assert "error: --hyper expects key=value, got 'max_depth'" in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()
    run_ok([*argv, "--hyper", "max_features=sqrt", "--hyper", "max_depth=3", "--run-name", "ok"])
    model = json.loads((tmp_path / "ok" / "model.json").read_text(encoding="utf-8"))
    assert model["hyperparameters"]["max_features"] == "sqrt" and model["hyperparameters"]["max_depth"] == 3
    assert cli._parse_hyper(["a=1", "b=sqrt", "c=[1, 2]", "d=x=y", "e="]) == {"a": 1, "b": "sqrt", "c": [1, 2],
                                                                        "d": "x=y", "e": ""}


def test_forge_end_to_end(tmp_path):
    run_ok(["synth", "--dataset", "webpages", "--seed", "4",
            "--out", str(tmp_path), "--run-name", "w"])
    base = tmp_path / "w"
    run_ok(["forge", "--pages", str(base / "pages"), "--data", str(base / "data.csv"),
            "--schema", str(base / "schema.json"), "--kind", "logistic_regression",
            "--n", "9", "--epsilon", "6.0", "--out", str(tmp_path), "--run-name", "f1"])
    report = read_csv(tmp_path / "f1" / "forge_report.csv")
    assert report[0][:3] == ["page", "baseline_label", "attack_label"]
    assert len(report) == 41
    forged_pages = list((tmp_path / "f1" / "pages").glob("*.html"))
    assert len(forged_pages) == 40
    evaded = sum(int(r[5]) for r in report[1:])
    assert evaded >= 1


def test_attack_feature_mask_restricts_deltas(tmp_path, census_files):
    data, schema = census_files
    run_ok(["attack", "--data", str(data), "--schema", str(schema), "--n", "2",
            "--epsilon", "0.8", "--features", "age,education_years,hours_per_week",
            "--out", str(tmp_path), "--run-name", "am"])
    deltas = read_csv(tmp_path / "am" / "deltas.csv")
    touched = {r[1] for r in deltas[1:]}
    assert touched <= {"age", "education_years", "hours_per_week"}
    assert len(touched) == 2


def test_inputs_are_never_mutated(tmp_path, census_files):
    data, schema = census_files
    before = (data.read_bytes(), schema.read_bytes())
    run_ok(["rank", "--data", str(data), "--schema", str(schema), "--method", "gini_impurity",
            "--out", str(tmp_path), "--run-name", "im"])
    assert (data.read_bytes(), schema.read_bytes()) == before


def test_curves_on_a_torn_grid_reports_the_line(tmp_path, census_files, capsys):
    data, schema = census_files
    run_ok(["gridsearch", "--data", str(data), "--schema", str(schema),
            "--models", "logistic_regression", "--methods", "gini_impurity",
            "--n-values", "1", "--eps-min", "0.1", "--eps-max", "1.2", "--eps-steps", "3",
            "--workers", "1", "--out", str(tmp_path), "--run-name", "gc"])
    torn = tmp_path / "torn.csv"
    torn.write_bytes((tmp_path / "gc" / "grid.csv").read_bytes()[:-20])
    assert run(["curves", "--grid", str(torn), "--out", str(tmp_path), "--run-name", "cv"]) == 1
    assert "torn.csv, line 4: expected 7 cells" in capsys.readouterr().err


def test_a_directory_at_the_old_temp_name_does_not_break_a_run(tmp_path, census_files):
    data, schema = census_files
    (tmp_path / "r").mkdir()
    (tmp_path / "r" / "manifest.json.tmp").mkdir()
    run_ok(["rank", "--data", str(data), "--schema", str(schema), "--method", "gini_impurity",
            "--out", str(tmp_path), "--run-name", "r"])
    assert json.loads((tmp_path / "r" / "manifest.json").read_text())["method"] == "gini_impurity"


def test_gridsearch_resume_with_other_flags_exits_2(tmp_path, census_files, capsys):
    data, schema = census_files
    args = ["gridsearch", "--data", str(data), "--schema", str(schema),
            "--models", "logistic_regression", "--methods", "gini_impurity",
            "--n-values", "1", "--eps-min", "0.1", "--eps-max", "1.2", "--eps-steps", "3",
            "--workers", "1", "--out", str(tmp_path)]
    run_ok(args + ["--run-name", "first"])
    sink = tmp_path / "first" / "grid.csv"
    written = sink.read_bytes()
    assert run(args + ["--run-name", "again", "--resume-from", str(sink), "--seed", "3"]) == 2
    assert "(differing: seed" in capsys.readouterr().err
    assert run(args + ["--run-name", "split", "--resume-from", str(sink), "--train-fraction", "0.6"]) == 2
    assert sink.read_bytes() == written
    assert not (tmp_path / "again").exists() and not (tmp_path / "split").exists()
    run_ok(args + ["--run-name", "same", "--resume-from", str(sink)])
    assert (tmp_path / "same" / "grid.csv").read_bytes() == written


def test_gridsearch_resume_of_a_sink_from_another_version_exits_2(tmp_path, census_files, capsys):
    data, schema = census_files
    args = ["gridsearch", "--data", str(data), "--schema", str(schema),
            "--models", "logistic_regression", "--methods", "gini_impurity",
            "--n-values", "1", "--eps-min", "0.1", "--eps-max", "1.2", "--eps-steps", "3",
            "--workers", "1", "--out", str(tmp_path)]
    run_ok(args + ["--run-name", "first"])
    sink = tmp_path / "first" / "grid.csv"
    fingerprint = evaluation.fingerprint_path(sink)
    stored = json.loads(fingerprint.read_text(encoding="utf-8"))
    assert stored["version"] == tabevade.__version__
    fingerprint.write_text(json.dumps({**stored, "version": "0.1.0"}), encoding="utf-8")
    written = sink.read_bytes()
    capsys.readouterr()
    assert run(args + ["--run-name", "again", "--resume-from", str(sink)]) == 2
    assert "(differing: version)" in capsys.readouterr().err
    assert sink.read_bytes() == written


def test_gridsearch_resume_of_a_sink_whose_fingerprint_is_not_an_object_exits_2(tmp_path, census_files, capsys):
    data, schema = census_files
    args = ["gridsearch", "--data", str(data), "--schema", str(schema),
            "--models", "logistic_regression", "--methods", "gini_impurity",
            "--n-values", "1", "--eps-min", "0.1", "--eps-max", "1.2", "--eps-steps", "3",
            "--workers", "1", "--out", str(tmp_path)]
    run_ok(args + ["--run-name", "first"])
    sink = tmp_path / "first" / "grid.csv"
    evaluation.fingerprint_path(sink).write_text("[]\n", encoding="utf-8")  # valid JSON, not an object
    written = sink.read_bytes()
    capsys.readouterr()
    assert run(args + ["--run-name", "again", "--resume-from", str(sink)]) == 2
    assert "does not hold a JSON object" in capsys.readouterr().err
    assert sink.read_bytes() == written
    assert not (tmp_path / "again").exists()


def test_gridsearch_refuses_a_run_dir_that_holds_a_grid(tmp_path, census_files, capsys):
    data, schema = census_files
    args = ["gridsearch", "--data", str(data), "--schema", str(schema),
            "--models", "logistic_regression", "--methods", "gini_impurity",
            "--n-values", "1", "--eps-min", "0.1", "--eps-max", "1.2", "--eps-steps", "3",
            "--workers", "1", "--out", str(tmp_path), "--run-name", "g"]
    run_ok(args)
    run_dir = tmp_path / "g"
    before = {name: (run_dir / name).read_bytes() for name in ("grid.csv", "manifest.json")}
    for extra in ([], ["--seed", "3"], ["--n-values", "2"]):
        capsys.readouterr()
        assert run(args + extra) == 2, extra
        err = capsys.readouterr().err
        assert "--resume-from" in err and "--run-name" in err
        assert {name: (run_dir / name).read_bytes() for name in before} == before
    run_ok(args + ["--resume-from", str(run_dir / "grid.csv")])
    assert (run_dir / "grid.csv").read_bytes() == before["grid.csv"]


# a separate process holding an exclusive flock on argv[1] until its stdin closes, as a running grid does
LOCK_HOLDER = ("import fcntl, sys; handle = open(sys.argv[1], 'a'); fcntl.flock(handle, fcntl.LOCK_EX); "
               "print('held', flush=True); sys.stdin.read()")


def hold_lock(path: Path) -> subprocess.Popen:
    holder = subprocess.Popen([sys.executable, "-c", LOCK_HOLDER, str(path)], stdin=subprocess.PIPE,
                              stdout=subprocess.PIPE, text=True)
    assert holder.stdout.readline() == "held\n"
    return holder


def release(holder: subprocess.Popen) -> None:
    holder.stdin.close()
    assert holder.wait(timeout=30) == 0


def dir_bytes(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in path.iterdir()}


def test_gridsearch_on_a_sink_another_process_holds_exits_2(tmp_path, census_files, capsys):
    data, schema = census_files
    args = ["gridsearch", "--data", str(data), "--schema", str(schema),
            "--models", "logistic_regression", "--methods", "gini_impurity",
            "--n-values", "1", "--eps-min", "0.1", "--eps-max", "1.2", "--eps-steps", "3",
            "--workers", "1", "--out", str(tmp_path)]
    run_dir = tmp_path / "g"
    run_dir.mkdir()
    (run_dir / "manifest.json").write_text('{"seed": 0}\n')  # the manifest of the run holding the lock
    holder = hold_lock(run_dir / "grid.csv.lock")
    try:
        before = dir_bytes(run_dir)
        capsys.readouterr()
        assert run(args + ["--run-name", "g", "--seed", "3"]) == 2
        assert "another run is writing" in capsys.readouterr().err
        assert dir_bytes(run_dir) == before  # no grid, no fingerprint, the holder's manifest
    finally:
        release(holder)
    run_ok(args + ["--run-name", "g"])
    sink = run_dir / "grid.csv"
    before = dir_bytes(run_dir)
    holder = hold_lock(run_dir / "grid.csv.lock")
    try:
        assert run(args + ["--run-name", "again", "--resume-from", str(sink)]) == 2
        assert "another run is writing" in capsys.readouterr().err
        assert dir_bytes(run_dir) == before
        assert not (tmp_path / "again").exists()
    finally:
        release(holder)
    written = sink.read_bytes()
    run_ok(args + ["--run-name", "again", "--resume-from", str(sink)])
    assert sink.read_bytes() == written


def test_two_gridsearch_processes_on_one_run_dir_write_each_cell_once(tmp_path, census_files):
    data, schema = census_files
    argv = [sys.executable, "-m", "tabevade.cli", "gridsearch", "--data", str(data), "--schema", str(schema),
            "--models", "logistic_regression,random_forest", "--methods", "gini_impurity",
            "--n-values", "1,2", "--eps-min", "0.1", "--eps-max", "1.2", "--eps-steps", "3",
            "--workers", "1", "--out", str(tmp_path), "--run-name", "g"]
    env = {**os.environ, "PYTHONPATH": str(Path(tabevade.__file__).parents[1])}
    runs = [subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            for _ in range(2)]
    outcomes = sorted((proc.wait(timeout=120), proc.communicate()[1]) for proc in runs)
    # the second either found the lock held or, started late, the grid already there
    assert [code for code, _ in outcomes] == [0, 2], outcomes
    assert "another run is writing" in outcomes[1][1] or "already exists" in outcomes[1][1]
    grid = evaluation.GridResult.from_csv(tmp_path / "g" / "grid.csv")  # raises on a repeated cell
    assert len(grid.records) == 2 * 2 * 3


def test_curves_on_a_grid_with_a_repeated_cell_exits_1(tmp_path, census_files, capsys):
    data, schema = census_files
    run_ok(["gridsearch", "--data", str(data), "--schema", str(schema),
            "--models", "logistic_regression", "--methods", "gini_impurity",
            "--n-values", "1", "--eps-min", "0.1", "--eps-max", "1.2", "--eps-steps", "3",
            "--workers", "1", "--out", str(tmp_path), "--run-name", "gc"])
    header, *rows = (tmp_path / "gc" / "grid.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    doubled = tmp_path / "doubled.csv"
    doubled.write_text(header + "".join(rows + rows), encoding="utf-8")  # two runs' rows, as before the lock
    capsys.readouterr()
    assert run(["curves", "--grid", str(doubled), "--out", str(tmp_path), "--run-name", "cv"]) == 1
    assert "doubled.csv, lines 2 and 5: both hold the cell" in capsys.readouterr().err


def test_gridsearch_with_a_repeated_value_exits_1(tmp_path, census_files, capsys):
    data, schema = census_files
    code = run(["gridsearch", "--data", str(data), "--schema", str(schema),
                "--models", "logistic_regression", "--methods", "gini_impurity",
                "--n-values", "1,1", "--eps-min", "0.1", "--eps-max", "1.2", "--eps-steps", "3",
                "--workers", "1", "--out", str(tmp_path), "--run-name", "rep"])
    assert code == 1
    assert "n_values repeats a value" in capsys.readouterr().err
    assert not (tmp_path / "rep" / "grid.csv").exists()


def test_gridsearch_with_an_n_past_the_eligible_features_exits_1_before_any_work(
        tmp_path, census_files, count_calls, capsys):
    data, schema = census_files
    args = ["gridsearch", "--data", str(data), "--schema", str(schema),
            "--models", "logistic_regression", "--methods", "gini_impurity", "--eps-steps", "3",
            "--workers", "1", "--out", str(tmp_path / "runs"), "--run-name", "g"]
    calls = count_calls(evaluation, "fit", "rank_features")
    assert run(args + ["--n-values", "1,40"]) == 1
    assert "attack wants n=40 features but only 37 are eligible" in capsys.readouterr().err
    assert calls == {}
    assert not (tmp_path / "runs").exists()
    run_ok(args + ["--n-values", "1,37"])  # the refusal left nothing in the way of a rerun
    assert calls == {"fit": 1, "rank_features": 1}


def test_gridsearch_resume_from_a_missing_directory_exits_1(tmp_path, census_files, capsys):
    data, schema = census_files
    missing = tmp_path / "nowhere" / "grid.csv"
    code = run(["gridsearch", "--data", str(data), "--schema", str(schema),
                "--models", "logistic_regression", "--methods", "gini_impurity",
                "--n-values", "1", "--eps-steps", "3", "--workers", "1",
                "--resume-from", str(missing), "--out", str(tmp_path / "runs"), "--run-name", "r"])
    assert code == 1
    assert "No such file or directory" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "schema.json"]


def test_gridsearch_resume_from_a_missing_sink_in_an_existing_directory_exits_1(tmp_path, census_files, capsys):
    data, schema = census_files
    (tmp_path / "typo").mkdir()
    code = run(["gridsearch", "--data", str(data), "--schema", str(schema),
                "--models", "logistic_regression", "--methods", "gini_impurity",
                "--n-values", "1", "--eps-steps", "3", "--workers", "1",
                "--resume-from", str(tmp_path / "typo" / "gird.csv"),
                "--out", str(tmp_path / "runs"), "--run-name", "r"])
    assert code == 1
    assert "No such file or directory" in capsys.readouterr().err
    assert list((tmp_path / "typo").iterdir()) == []
    assert not (tmp_path / "runs").exists()


def test_curves_on_a_header_only_grid_exits_1_and_leaves_no_run_dir(tmp_path, capsys):
    grid = tmp_path / "grid.csv"
    grid.write_text(",".join(evaluation.GRID_COLUMNS) + "\n", encoding="utf-8")
    assert run(["curves", "--grid", str(grid), "--out", str(tmp_path / "runs"), "--run-name", "c"]) == 1
    assert "grid holds no records" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_gridsearch_with_fewer_than_one_worker_exits_1_and_leaves_no_run_dir(tmp_path, census_files, capsys, workers):
    data, schema = census_files
    code = run(["gridsearch", "--data", str(data), "--schema", str(schema),
                "--models", "logistic_regression", "--methods", "gini_impurity",
                "--n-values", "1", "--eps-min", "0.1", "--eps-max", "1.2", "--eps-steps", "3",
                "--workers", workers, "--out", str(tmp_path / "runs"), "--run-name", "w"])
    assert code == 1
    assert f"--workers must be at least 1, got {workers}" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("command, extra, message", [
    ("gridsearch", ["--eps-min", "nan"], "epsilon range ends must be finite numbers >= 0, got nan and 1.2"),
    ("gridsearch", ["--eps-max", "inf"], "epsilon range ends must be finite numbers >= 0, got 0.1 and inf"),
    ("attack", ["--n", "1", "--epsilon", "nan"], "epsilon must be a finite number >= 0, got nan"),
    ("evaluate", ["--kind", "decision_tree", "--n", "1", "--epsilon", "nan"], "epsilon must be a finite number >= 0"),
    ("evaluate", ["--kind", "decision_tree", "--n", "1", "--epsilon=-inf"], "epsilon must be a finite number >= 0"),
])
def test_a_non_finite_epsilon_exits_1_and_leaves_no_run_dir(tmp_path, census_files, capsys, command, extra, message):
    data, schema = census_files
    grid = ["--models", "logistic_regression", "--n-values", "1", "--eps-min", "0.1", "--eps-max", "1.2",
            "--eps-steps", "3", "--workers", "1"]
    argv = [command, "--data", str(data), "--schema", str(schema), "--out", str(tmp_path / "runs"),
            "--run-name", "bad", *(grid if command == "gridsearch" else []), *extra]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "runs").exists()


def test_gridsearch_with_a_decreasing_epsilon_range_exits_1_and_leaves_no_run_dir(tmp_path, census_files, capsys):
    data, schema = census_files
    argv = ["gridsearch", "--data", str(data), "--schema", str(schema), "--models", "logistic_regression",
            "--n-values", "1", "--eps-min", "2", "--eps-max", "1", "--eps-steps", "3", "--workers", "1",
            "--out", str(tmp_path / "runs"), "--run-name", "bad"]
    assert run(argv) == 1
    assert "error: epsilon range must be non-decreasing" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_gridsearch_verbose_reports_cells_on_stderr(tmp_path, census_files, capsys):
    data, schema = census_files
    args = ["gridsearch", "--data", str(data), "--schema", str(schema),
            "--models", "logistic_regression", "--methods", "gini_impurity",
            "--n-values", "1,2", "--eps-min", "0.1", "--eps-max", "3.0", "--eps-steps", "30",
            "--workers", "1", "--out", str(tmp_path)]
    run_ok(args + ["--run-name", "quiet"])
    assert capsys.readouterr().err == ""
    run_ok(args + ["--run-name", "loud", "--verbose"])
    assert capsys.readouterr().err.splitlines() == ["  50/60 cells", "  60/60 cells"]


@pytest.mark.parametrize("broken", ["b.html", "b.html.url"])
def test_extract_of_a_page_that_is_not_utf8_names_the_file(tmp_path, capsys, broken):
    pages = tmp_path / "pages"
    pages.mkdir()
    (pages / "a.html").write_text("<html><body><p>fine</p></body></html>", encoding="utf-8")
    (pages / "b.html").write_text("<html><body><p>fine</p></body></html>", encoding="utf-8")
    (pages / broken).write_bytes(b"http://caf\xff.example/ <p>caf\xff</p>")
    assert run(["extract", "--pages", str(pages), "--out", str(tmp_path), "--run-name", "x"]) == 1
    assert f"error: {pages / broken} is not UTF-8 text" in capsys.readouterr().err


def test_gridsearch_that_fails_in_a_fit_leaves_no_sink_and_reruns(tmp_path, census_files, monkeypatch, capsys):
    def broken_fit(kind, train, seed=0):
        raise FitError(f"{kind} failed")

    data, schema = census_files
    args = ["gridsearch", "--data", str(data), "--schema", str(schema),
            "--models", "logistic_regression,decision_tree", "--methods", "gini_impurity",
            "--n-values", "1,2", "--eps-min", "0.1", "--eps-max", "1.2", "--eps-steps", "3",
            "--workers", "1", "--out", str(tmp_path)]
    run_ok(args + ["--run-name", "done"])
    done = tmp_path / "done" / "grid.csv"
    with monkeypatch.context() as patch:
        patch.setattr(evaluation, "fit", broken_fit)
        assert run(args + ["--run-name", "g"]) == 1
        assert "logistic_regression failed" in capsys.readouterr().err
        assert not (tmp_path / "g" / "grid.csv").exists()
        assert not evaluation.fingerprint_path(tmp_path / "g" / "grid.csv").exists()
        # a stale resume is still refused before anything is fitted
        assert run(args + ["--run-name", "stale", "--resume-from", str(done), "--seed", "3"]) == 2
    run_ok(args + ["--run-name", "g"])
    assert (tmp_path / "g" / "grid.csv").read_bytes() == done.read_bytes()
    assert len(read_csv(tmp_path / "g" / "grid.csv")) == 1 + 2 * 2 * 3


def test_gridsearch_on_a_kind_whose_baseline_recall_is_0_leaves_no_sink_and_reruns(tmp_path, capsys):
    blobs = gaussian_blobs(400, seed=0, separation=0.0)
    save_dataset_csv(blobs.take(np.sort(np.concatenate([blobs.rows_of_class(1)[:30], blobs.rows_of_class(0)]))),
                     tmp_path / "data.csv")
    save_schema(blobs.schema, tmp_path / "schema.json")
    args = ["gridsearch", "--data", str(tmp_path / "data.csv"), "--schema", str(tmp_path / "schema.json"),
            "--methods", "gini_impurity", "--n-values", "1", "--eps-steps", "2", "--train-fraction", "0.7",
            "--workers", "1", "--out", str(tmp_path / "runs"), "--run-name", "z"]
    grid = tmp_path / "runs" / "z" / "grid.csv"
    for _ in range(2):  # the failed run leaves nothing that refuses the next into its --run-name
        capsys.readouterr()
        assert run(args + ["--models", "logistic_regression,decision_tree"]) == 1
        assert "error: success rate is undefined when the baseline recall is 0, as it is for logistic_regression" \
            in capsys.readouterr().err
        assert not grid.exists() and not evaluation.fingerprint_path(grid).exists()
    run_ok(args + ["--models", "decision_tree"])
    assert len(read_csv(grid)) == 1 + 2


@pytest.fixture(scope="module")
def web_corpus(tmp_path_factory):
    base = tmp_path_factory.mktemp("web")
    run_ok(["synth", "--dataset", "webpages", "--seed", "4", "--out", str(base), "--run-name", "w"])
    census = base / "census"
    census.mkdir()
    rows = census_like_rows(n_rows=300, seed=1)
    (census / "data.csv").write_text("\n".join(",".join(r) for r in rows) + "\n", encoding="utf-8")
    save_schema(census_like_schema(), census / "schema.json")
    run_ok(["train", "--data", str(census / "data.csv"), "--schema", str(census / "schema.json"),
            "--kind", "logistic_regression", "--out", str(base), "--run-name", "census_model"])
    return base


@pytest.mark.parametrize("case, extra, message", [
    ("census model", ["--model", "{base}/census_model/model.json"], "model expects 37 features, the data has 52"),
    ("n past the eligible", ["--n", "20"], "attack wants n=20 features but only 9 are eligible"),
    ("unaddable feature", ["--features", "url_len,href"], "restricted to addable features"),
    ("missing pages", ["--pages", "{base}/nowhere"], "No such file or directory"),
    ("non-finite epsilon", ["--epsilon", "nan"], "epsilon must be a finite number >= 0, got nan"),
    ("census data", ["--data", "{base}/census/data.csv", "--schema", "{base}/census/schema.json"],
     "problem-space attacks need a schema over the 52 page features (see `synth --dataset webpages`)"),
])
def test_refused_forge_exits_1_and_leaves_no_run_dir(tmp_path, web_corpus, capsys, case, extra, message):
    base = web_corpus / "w"
    argv = ["forge", "--pages", str(base / "pages"), "--data", str(base / "data.csv"),
            "--schema", str(base / "schema.json"), "--kind", "logistic_regression",
            "--n", "9", "--epsilon", "6.0", "--out", str(tmp_path / "runs"), "--run-name", "refused"]
    argv += [arg.format(base=web_corpus) for arg in extra]  # argparse keeps the last of a repeated option
    capsys.readouterr()
    assert run(argv) == 1, case
    assert message in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_forge_into_a_run_dir_that_holds_a_forge_exits_2_and_writes_nothing(tmp_path, web_corpus, capsys):
    base = web_corpus / "w"
    ten = tmp_path / "ten"
    ten.mkdir()
    for page in sorted((base / "pages").glob("*.html"))[:10]:
        shutil.copy(page, ten)
        shutil.copy(page.with_name(page.name + ".url"), ten)
    argv = ["forge", "--data", str(base / "data.csv"), "--schema", str(base / "schema.json"),
            "--n", "9", "--epsilon", "6.0", "--out", str(tmp_path), "--run-name", "shared"]
    run_ok(argv + ["--pages", str(base / "pages"), "--kind", "logistic_regression"])
    shared = tmp_path / "shared"

    def forged():
        return dir_bytes(shared / "pages"), {p.name: p.read_bytes() for p in shared.glob("*.*")}

    before = forged()
    assert len(before[0]) == 40 and set(before[1]) == {"forge_report.csv", "manifest.json"}
    again = argv + ["--pages", str(ten), "--kind", "decision_tree"]
    capsys.readouterr()
    assert run(again) == 2
    assert "pick another --run-name" in capsys.readouterr().err
    assert forged() == before
    (shared / "forge_report.csv").unlink()  # the pages of a forge cut short still refuse
    before = forged()
    assert run(again) == 2
    assert forged() == before


def test_a_forge_cut_short_by_a_bad_page_leaves_no_pages_and_reruns(tmp_path, web_corpus, capsys):
    base = web_corpus / "w"
    pages = tmp_path / "pages"
    shutil.copytree(base / "pages", pages)
    (pages / "zzz_bad.html").write_bytes(b"<html><body><p>caf\xff</p></body></html>")
    argv = ["forge", "--data", str(base / "data.csv"), "--schema", str(base / "schema.json"),
            "--kind", "logistic_regression", "--n", "9", "--epsilon", "6.0", "--out", str(tmp_path / "runs")]
    capsys.readouterr()
    assert run(argv + ["--pages", str(pages), "--run-name", "f1"]) == 1
    assert f"error: {pages / 'zzz_bad.html'} is not UTF-8 text" in capsys.readouterr().err
    assert [p.name for p in (tmp_path / "runs" / "f1").iterdir()] == ["manifest.json"]
    (pages / "zzz_bad.html").unlink()
    run_ok(argv + ["--pages", str(pages), "--run-name", "f1"])
    run_ok(argv + ["--pages", str(base / "pages"), "--run-name", "clean"])
    f1, clean = tmp_path / "runs" / "f1", tmp_path / "runs" / "clean"
    assert dir_bytes(f1 / "pages") == dir_bytes(clean / "pages") and len(dir_bytes(f1 / "pages")) == 40
    assert (f1 / "forge_report.csv").read_bytes() == (clean / "forge_report.csv").read_bytes()
    assert sorted(p.name for p in f1.iterdir()) == ["forge_report.csv", "manifest.json", "pages"]


def test_a_webpages_synth_cut_short_leaves_no_pages_and_reruns(tmp_path, monkeypatch, capsys):
    real = synth.demo_pages

    def with_a_surrogate(*args, **kwargs):
        corpus = real(*args, **kwargs)
        name, page, label = corpus[6]
        corpus[6] = (name, WebPage(page.url, page.html + "\ud800"), label)  # cannot be encoded as UTF-8
        return corpus

    argv = ["synth", "--dataset", "webpages", "--seed", "4", "--out", str(tmp_path)]
    monkeypatch.setattr(synth, "demo_pages", with_a_surrogate)
    capsys.readouterr()
    assert run([*argv, "--run-name", "web"]) == 1
    assert "surrogates not allowed" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["web"]
    assert [p.name for p in (tmp_path / "web").iterdir()] == ["manifest.json"]
    monkeypatch.setattr(synth, "demo_pages", real)
    run_ok([*argv, "--run-name", "web"])
    run_ok([*argv, "--run-name", "clean"])
    web, clean = tmp_path / "web", tmp_path / "clean"
    assert dir_bytes(web / "pages") == dir_bytes(clean / "pages") and len(dir_bytes(web / "pages")) == 81
    assert sorted(p.name for p in web.iterdir()) == ["data.csv", "manifest.json", "pages", "schema.json"]
    assert all((web / name).read_bytes() == (clean / name).read_bytes() for name in ("data.csv", "schema.json"))


def test_forge_into_the_run_dir_of_a_webpages_synth_exits_2_and_writes_nothing(tmp_path, capsys):
    run_ok(["synth", "--dataset", "webpages", "--seed", "4", "--out", str(tmp_path), "--run-name", "w"])
    w = tmp_path / "w"
    before = dir_bytes(w / "pages"), {p.name: p.read_bytes() for p in w.glob("*.*")}
    capsys.readouterr()
    argv = ["forge", "--data", str(w / "data.csv"), "--schema", str(w / "schema.json"), "--pages", str(w / "pages"),
            "--kind", "logistic_regression", "--n", "9", "--epsilon", "6.0", "--out", str(tmp_path), "--run-name", "w"]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "from an earlier run" in err and "pick another --run-name" in err
    assert (dir_bytes(w / "pages"), {p.name: p.read_bytes() for p in w.glob("*.*")}) == before
    assert set(before[1]) == {"data.csv", "schema.json", "manifest.json"}


@pytest.mark.parametrize("command", ["synth", "train", "rank", "attack", "evaluate", "gridsearch", "curves",
                                     "extract", "forge"])
def test_every_command_without_a_run_name_makes_one_timestamped_run_dir(tmp_path, census_files, web_corpus,
                                                                        command):
    data, schema = census_files
    census = ["--data", str(data), "--schema", str(schema)]
    web = web_corpus / "w"
    grid = tmp_path / "grid.csv"
    evaluation.GridResult(records=(evaluation.GridRecord("logistic_regression", "gini_impurity", 1, 0.5,
                                                         0.8, 0.4, 0.5),)).to_csv(grid)
    argv = {
        "synth": ["--dataset", "blobs", "--rows", "20"],
        "train": census + ["--kind", "logistic_regression"],
        "rank": census + ["--method", "gini_impurity"],
        "attack": census + ["--n", "1", "--epsilon", "0.5"],
        "evaluate": census + ["--kind", "logistic_regression", "--n", "1", "--epsilon", "0.5"],
        "gridsearch": census + ["--models", "logistic_regression", "--n-values", "1", "--eps-steps", "2",
                                "--workers", "1"],
        "curves": ["--grid", str(grid)],
        "extract": ["--pages", str(web / "pages")],
        "forge": ["--pages", str(web / "pages"), "--data", str(web / "data.csv"), "--schema", str(web / "schema.json"),
                  "--kind", "logistic_regression", "--n", "9", "--epsilon", "6.0"],
    }[command]
    out = tmp_path / "runs"
    run_ok([command, *argv, "--out", str(out)])
    [made] = out.iterdir()
    assert re.fullmatch(rf"{command}-\d{{8}}-\d{{6}}", made.name)
    assert json.loads((made / "manifest.json").read_text(encoding="utf-8"))["command"] == command


def tree_bytes(path: Path) -> dict[str, bytes]:
    return {p.relative_to(path).as_posix(): p.read_bytes() for p in path.rglob("*") if p.is_file()}


@pytest.mark.parametrize("command", ["synth", "train", "rank", "attack", "evaluate", "gridsearch", "curves",
                                     "extract", "forge"])
def test_a_second_run_into_one_run_name_exits_2_and_keeps_every_byte(tmp_path, census_files, web_corpus, capsys,
                                                                      command):
    data, schema = census_files
    census = ["--data", str(data), "--schema", str(schema)]
    web = web_corpus / "w"
    grid = tmp_path / "grid.csv"
    evaluation.GridResult(records=(evaluation.GridRecord("logistic_regression", "gini_impurity", 1, 0.5,
                                                         0.8, 0.4, 0.5),)).to_csv(grid)
    argv = {
        "synth": ["--dataset", "webpages"],
        "train": census + ["--kind", "logistic_regression"],
        "rank": census + ["--method", "gini_impurity"],
        "attack": census + ["--n", "1", "--epsilon", "0.5"],
        "evaluate": census + ["--kind", "logistic_regression", "--n", "1", "--epsilon", "0.5"],
        "gridsearch": census + ["--models", "logistic_regression", "--n-values", "1", "--eps-steps", "2",
                                "--workers", "1"],
        "curves": ["--grid", str(grid)],
        "extract": ["--pages", str(web / "pages")],
        "forge": ["--pages", str(web / "pages"), "--data", str(web / "data.csv"), "--schema", str(web / "schema.json"),
                  "--kind", "logistic_regression", "--n", "9", "--epsilon", "6.0"],
    }[command]
    argv = [command, *argv, "--out", str(tmp_path / "runs"), "--run-name", "r"]
    run_ok(argv)
    before = tree_bytes(tmp_path / "runs")
    capsys.readouterr()
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "from an earlier run" in err and "pick another --run-name" in err
    assert ("--resume-from" in err) == (command == "gridsearch")
    assert tree_bytes(tmp_path / "runs") == before


def test_gridsearch_resume_from_another_sink_into_a_run_dir_that_holds_a_grid_exits_2(tmp_path, census_files,
                                                                                       capsys):
    data, schema = census_files
    args = ["gridsearch", "--data", str(data), "--schema", str(schema),
            "--models", "logistic_regression", "--methods", "gini_impurity",
            "--n-values", "1", "--eps-min", "0.1", "--eps-max", "1.2", "--eps-steps", "3",
            "--workers", "1", "--out", str(tmp_path)]
    run_ok(args + ["--run-name", "other"])
    run_ok(args + ["--run-name", "g", "--seed", "3"])
    other = tmp_path / "other"
    (other / "grid.csv.lock").unlink()  # so a lock taken on the other sink would show
    before = dir_bytes(other), dir_bytes(tmp_path / "g")
    capsys.readouterr()
    # the other sink resumes cleanly, and its grid would have been copied over g's
    assert run(args + ["--run-name", "g", "--resume-from", str(other / "grid.csv")]) == 2
    err = capsys.readouterr().err
    assert f"--resume-from {tmp_path / 'g' / 'grid.csv'}" in err and "--run-name" in err
    assert (dir_bytes(other), dir_bytes(tmp_path / "g")) == before


@pytest.mark.parametrize("command, extra, message", [
    ("evaluate", ["--n", "1", "--epsilon", "nan"], "epsilon must be a finite number >= 0, got nan"),
    ("evaluate", ["--n", "0", "--epsilon", "0.5"], "n must be a positive integer"),
    ("forge", ["--n", "9", "--epsilon", "nan"], "epsilon must be a finite number >= 0, got nan"),
    ("forge", ["--n", "9", "--epsilon", "6.0", "--features", "nosuch"], "unknown feature 'nosuch'"),
])
def test_a_refused_attack_exits_1_before_any_model_is_fitted(tmp_path, census_files, web_corpus, monkeypatch, capsys,
                                                              command, extra, message):
    def no_fit(*args, **kwargs):
        raise AssertionError("fit called")

    monkeypatch.setattr(cli, "fit", no_fit)
    data, schema = census_files
    web = web_corpus / "w"
    inputs = {"evaluate": ["--data", str(data), "--schema", str(schema)],
              "forge": ["--pages", str(web / "pages"), "--data", str(web / "data.csv"),
                        "--schema", str(web / "schema.json")]}[command]
    capsys.readouterr()
    assert run([command, *inputs, *extra, "--out", str(tmp_path / "runs"), "--run-name", "bad"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("command, n, eligible", [("attack", 40, 37), ("evaluate", 40, 37), ("forge", 20, 9)])
def test_an_n_past_the_eligible_features_is_refused_before_any_ranking_or_fit(tmp_path, census_files, web_corpus,
                                                                              count_calls, capsys, command, n,
                                                                              eligible):
    data, schema = census_files
    web = web_corpus / "w"
    inputs = {"attack": ["--data", str(data), "--schema", str(schema)],
              "evaluate": ["--data", str(data), "--schema", str(schema), "--kind", "logistic_regression"],
              "forge": ["--pages", str(web / "pages"), "--data", str(web / "data.csv"),
                        "--schema", str(web / "schema.json"), "--kind", "logistic_regression"]}[command]
    ranked, fitted = count_calls(attack, "rank_features"), count_calls(cli, "fit", "load_model")
    argv = [command, *inputs, "--epsilon", "0.5", "--out", str(tmp_path / "runs"), "--run-name", "r"]
    capsys.readouterr()
    assert run([*argv, "--n", str(n)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"attack wants n={n} features but only {eligible} are eligible" in err
    assert (ranked, fitted) == ({}, {})
    assert not (tmp_path / "runs").exists()
    run_ok([*argv, "--n", str(eligible)])  # the spies see the work a plan that can be met does
    assert ranked == {"rank_features": 1}
    assert fitted == ({} if command == "attack" else {"fit": 1})


@pytest.mark.parametrize("dataset, rows", [("blobs", "-1"), ("census", "0")])
def test_synth_with_fewer_than_one_row_exits_1_and_leaves_no_run_dir(tmp_path, capsys, dataset, rows):
    assert run(["synth", "--dataset", dataset, "--rows", rows, "--out", str(tmp_path / "runs"), "--run-name", "s"]) == 1
    assert f"error: --rows must be at least 1, got {rows}" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


# sha256 of every CSV the runs below write, line endings included: CRLF in grid.csv and labels.csv, LF elsewhere
GOLDEN_CSV_SHA256 = {
    "attack/adversarial.csv": "ea7dd0726675b9650613efaf18a0e48b3f8af908af9e57e5a2e92473982e35c5",
    "attack/deltas.csv": "05cb113844fef7a07d576ddf275b25e266aad122eb8bf29ac2077d83b459d483",
    "curves/curve_decision_tree_epsilon.csv": "d09287183f9fab10eba65d6231e2cd763dc4cb129ad6a8d51151985c2a26ef65",
    "curves/curve_decision_tree_method.csv": "692ec0d4bb152e513e1628e2fb64d10a91ae49e554d22acc79558ba303f52701",
    "curves/curve_decision_tree_n.csv": "78bc2a9501a8d72605af42e49634954e9bcf646c87cdfd5cd3ae2eaf94ddfa94",
    "curves/curve_logistic_regression_epsilon.csv": "595dc889edc3734ecba0a51a89c648d7b4a186d34829080573710631695b5257",
    "curves/curve_logistic_regression_method.csv": "2ac8b222e36d208554879ed376bb2cb9fdf76b45bc86db1be20092b6adb0c279",
    "curves/curve_logistic_regression_n.csv": "f763e75f1722ff04c7124a4abadd08780306e6fe75d22beff38c17e3d8ce8ec5",
    "curves/summary.csv": "6f0d00db5cf9807b3a3a60f76507ec638a081df515164211b44f3cfb09ac6c84",
    "extract/features.csv": "142463bf9bfa750e5d4caac10bbd4c7028e63b07daa50ef12e6ed7e23e2e24ec",
    "forge/forge_report.csv": "730f3c60b014a39833106ec2d00a1fa41948df12d05711b64c6c623e5bba0286",
    "grid/grid.csv": "b041e594d19822b86f787772c02571d14c0778d68035f0e57e047779bf1b1353",
    "rank/rank.csv": "d1c82611f42b60cb56035fec165e28448f6c3d1662d1b6c60daf4c9495be1616",
    "resumed/grid.csv": "b041e594d19822b86f787772c02571d14c0778d68035f0e57e047779bf1b1353",
    "synth/data.csv": "236d391530d03edd7f1875c8e1129516174b52775068989df678387768e3e577",
    "web/data.csv": "b211cb742fde2a1105667d1e29bb406e51fb9fce53f7589fda0d569862fd431f",
    "web/pages/labels.csv": "499b5e27e254e2e6c7a390879ed43491634e57d292a03f143c9c24708d22e161",
}


def test_every_csv_output_keeps_its_bytes(tmp_path, census_files, web_corpus):
    data, schema = census_files
    census = ["--data", str(data), "--schema", str(schema)]
    web = web_corpus / "w"
    out = tmp_path / "runs"
    grid = ["gridsearch", *census, "--models", "logistic_regression,decision_tree", "--methods", "gini_impurity",
            "--n-values", "1,3", "--eps-min", "0.1", "--eps-max", "1.0", "--eps-steps", "3", "--workers", "1"]
    for name, argv in [
        ("synth", ["synth", "--dataset", "census", "--rows", "40", "--seed", "3"]),
        ("rank", ["rank", *census, "--method", "gini_impurity"]),
        ("attack", ["attack", *census, "--n", "3", "--epsilon", "0.8"]),
        ("grid", grid),
        ("resumed", [*grid, "--resume-from", str(out / "grid" / "grid.csv")]),  # GridResult.to_csv's copy
        ("curves", ["curves", "--grid", str(out / "grid" / "grid.csv")]),
        ("extract", ["extract", "--pages", str(web / "pages")]),
        ("forge", ["forge", "--pages", str(web / "pages"), "--data", str(web / "data.csv"),
                   "--schema", str(web / "schema.json"), "--kind", "logistic_regression", "--n", "9",
                   "--epsilon", "6.0"]),
    ]:
        run_ok([*argv, "--out", str(out), "--run-name", name])
    paths = {path.relative_to(out).as_posix(): path for path in out.rglob("*.csv")}
    paths.update({"web/data.csv": web / "data.csv", "web/pages/labels.csv": web / "pages" / "labels.csv"})
    written = {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in sorted(paths.items())}
    assert written == GOLDEN_CSV_SHA256
