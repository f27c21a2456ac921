"""Saved models must match a fixture byte for byte.

``golden_models.json`` holds the sha256 of the ``save_model`` file of every
model kind, each fitted at a fixed seed on a fixed ``census_like`` table.
Where ``test_golden_predictions.py`` checks what the trees predict, this
checks everything a fit learns: every threshold, leaf value, importance and
weight, so a faster fit must reproduce the old one exactly.  Logistic
regression and the MLP go through BLAS matrix products, so their hashes
belong to the numpy/BLAS build that wrote the fixture as well as to the code.

Regenerate the fixture only for a deliberate model change, by running this
file as a script: ``PYTHONPATH=src python tests/test_golden_models.py``.
"""
from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from tabevade.models import MODEL_KINDS, fit, load_model, predict_score, save_model
from tabevade.synth import census_like

FIXTURE = Path(__file__).with_name("golden_models.json")
# the fixture's MLP as version 0.3.0 saved it, with the minibatches of 32 that were its default then
MLP_0_3_0 = "80ac1ca4136dd0f15737d57c321c08482cf7e1447c0b270d76586f4044a0a15d"
CASES = {
    "logistic_regression": {"epochs": 100},
    "decision_tree": {},
    "random_forest": {"n_trees": 10},
    "gradient_boosted_trees": {"n_trees": 20},
    "mlp": {"epochs": 10},
}


def golden_hashes(directory: Path) -> dict[str, str]:
    train = census_like(n_rows=400, seed=11)
    out = {}
    for kind, hyperparameters in CASES.items():
        path = directory / f"{kind}.json"
        save_model(fit(kind, train, hyperparameters=hyperparameters, seed=5), path)
        out[kind] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def test_saved_models_match_golden_fixture(tmp_path):
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert sorted(CASES) == sorted(MODEL_KINDS) == sorted(expected)
    actual = golden_hashes(tmp_path)
    for kind in MODEL_KINDS:
        assert actual[kind] == expected[kind], kind


def test_an_mlp_on_the_old_default_batch_is_the_0_3_0_model(tmp_path):
    train = census_like(n_rows=400, seed=11)
    model = fit("mlp", train, hyperparameters={**CASES["mlp"], "batch_size": 32}, seed=5)
    path = tmp_path / "mlp.json"
    save_model(model, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == MLP_0_3_0
    loaded = load_model(path)
    assert loaded.hyperparameters["batch_size"] == loaded.impl.batch_size == 32
    assert predict_score(loaded, train.X).tobytes() == predict_score(model, train.X).tobytes()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        FIXTURE.write_text(json.dumps(golden_hashes(Path(scratch)), indent=1) + "\n", encoding="utf-8")
    sys.stdout.write(f"wrote {FIXTURE}\n")
