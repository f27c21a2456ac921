"""The package loads its submodules on first use, and each launch loads only what it uses."""
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import tabevade
from tabevade.data import csv_text, save_schema
from tabevade.synth import census_like_rows, census_like_schema

# every name `tabevade` exported while it imported all of its submodules, by the submodule that defines it
EXPORTED = {
    "attack": ["AttackConfig", "AttackPlan", "DirectionVector", "build_plan", "compute_direction", "perturb",
               "perturb_batch", "select_features"],
    "data": ["Dataset", "FeatureSchema", "FeatureSpec", "ScalerState", "fit_scaler", "inverse_transform",
             "load_dataset", "load_schema", "save_schema", "split", "transform"],
    "errors": ["TabevadeError"],
    "evaluation": ["EvaluationReport", "GridRecord", "GridResult", "GridSpec", "epsilon_grid", "evaluate_attack",
                   "grid_search", "max_success_curve"],
    "metrics": ["auprc", "recall", "success_rate"],
    "models": ["MODEL_KINDS", "Model", "fit", "load_model", "predict", "predict_score", "save_model"],
    "ranking": ["RANKING_METHODS", "FeatureRanking", "ffs_rank", "gini_gain", "info_gain", "info_gain_ratio",
                "permutation_importance", "rank_features", "rfe_rank"],
    "webfeatures": ["ADDABLE_WEB_FEATURES", "WEB_FEATURE_NAMES", "WebFeatureVector", "WebPage",
                    "default_web_schema", "extract_features"],
    "webspace": ["InjectionPlan", "inject", "plan_injection", "problem_space_attack"],
}
SRC = str(Path(tabevade.__file__).parents[1])
TRACER_DIR = str(Path(__file__).parents[1] / "perfbench")


def run_child(code: str, *args: str):
    """Run ``code`` in a fresh interpreter that imports this checkout; the JSON value it prints last."""
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("module, name", [(module, name) for module, names in EXPORTED.items() for name in names])
def test_each_exported_name_is_its_submodules_object(module, name):
    assert getattr(tabevade, name) is getattr(importlib.import_module(f"tabevade.{module}"), name)
    namespace: dict = {}
    exec(f"from tabevade import {name}", namespace)
    assert namespace[name] is getattr(tabevade, name)


def test_all_and_dir_list_the_exports():
    names = {name for names in EXPORTED.values() for name in names}
    assert sorted(tabevade.__all__) == sorted(names)
    assert names <= set(dir(tabevade)) and "__version__" in dir(tabevade)


def test_pyproject_version_is_the_package_version():
    # a regex, not tomllib: Python 3.10 has none
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    project = text.split("[project]", 1)[1].split("\n[", 1)[0]
    assert re.findall(r'^version = "([^"]+)"$', project, re.MULTILINE) == [tabevade.__version__]


def test_submodules_resolve_as_attributes_and_unknown_names_raise():
    assert run_child("import json, tabevade; print(json.dumps([tabevade.synth.__name__, tabevade.models.__name__]))") \
        == ["tabevade.synth", "tabevade.models"]
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        tabevade.no_such_name
    with pytest.raises(ImportError):
        exec("from tabevade import no_such_name", {})


def test_a_load_after_import_tabevade_leaves_the_other_layers_unloaded(tmp_path):
    data, schema = tmp_path / "data.csv", tmp_path / "schema.json"
    data.write_text(csv_text(census_like_rows(n_rows=50, seed=2)), encoding="utf-8")
    save_schema(census_like_schema(), schema)
    code = ("import json, sys, tabevade; ds = tabevade.load_dataset(sys.argv[1], tabevade.load_schema(sys.argv[2]));"
            "print(json.dumps([ds.n_rows, sorted(sys.modules)]))")
    rows, loaded = run_child(code, str(data), str(schema))
    assert rows == 50
    assert {"tabevade", "tabevade.data", "tabevade.errors"} <= set(loaded)
    unloaded = {"tabevade.evaluation", "tabevade.models", "tabevade.webfeatures", "tabevade.pageparse",
                "concurrent.futures"}
    assert unloaded.isdisjoint(loaded)


def test_import_tabevade_cli_loads_every_module_the_tracer_wraps():
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); import tracer, tabevade.cli;"
            "wanted = {m for m, *_ in tracer.FUNCTIONS} | {m for m, _ in tracer.MODEL_CLASSES.values()};"
            "unloaded = sorted(wanted - set(sys.modules)); recorder = tracer.Recorder(); recorder.install();"
            "print(json.dumps([unloaded, recorder.missing]))")
    assert run_child(code, TRACER_DIR) == [[], []]


def test_gridsearch_on_one_worker_loads_no_process_pool(tmp_path):
    data, schema = tmp_path / "data.csv", tmp_path / "schema.json"
    data.write_text(csv_text(census_like_rows(n_rows=120, seed=1)), encoding="utf-8")
    save_schema(census_like_schema(), schema)
    code = ("import json, sys; from tabevade.cli import run;"
            "code = run(sys.argv[1:]); print(json.dumps([code, 'concurrent.futures' in sys.modules]))")
    argv = ["gridsearch", "--data", str(data), "--schema", str(schema), "--models", "logistic_regression",
            "--methods", "gini_impurity", "--n-values", "1", "--eps-steps", "2", "--workers", "1",
            "--out", str(tmp_path), "--run-name", "g"]
    assert run_child(code, *argv) == [0, False]
