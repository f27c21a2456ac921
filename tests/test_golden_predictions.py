"""Tree-model scores must match a saved fixture bit for bit.

``golden_predictions.json`` holds the scores of a decision tree, a random
forest and a boosted ensemble, each fitted at a fixed seed on a fixed
``census_like`` table, over 50 probe rows, as ``float.hex`` strings.  The
comparison is exact, so a drift in split tie-breaks or in the order leaf
values are summed fails here even when every score stays close.

Regenerate the fixture only for a deliberate model change, by running this
file as a script: ``PYTHONPATH=src python tests/test_golden_predictions.py``.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from tabevade.models import fit, predict_score
from tabevade.synth import census_like

FIXTURE = Path(__file__).with_name("golden_predictions.json")
CASES = {
    "decision_tree": {},
    "random_forest": {"n_trees": 20},
    "gradient_boosted_trees": {"n_trees": 30},
}


def probe_rows(train: np.ndarray) -> np.ndarray:
    """25 training rows, where thresholds split exactly, plus 25 unseen rows."""
    unseen = census_like(n_rows=25, seed=12).X
    return np.vstack([train[:25], unseen])


def golden_scores() -> dict[str, list[str]]:
    train = census_like(n_rows=400, seed=11)
    probe = probe_rows(train.X)
    out = {}
    for kind, hyperparameters in CASES.items():
        model = fit(kind, train, hyperparameters=hyperparameters, seed=5)
        out[kind] = [float(s).hex() for s in predict_score(model, probe)]
    return out


def test_tree_scores_match_golden_fixture():
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    actual = golden_scores()
    for kind in CASES:
        assert len(actual[kind]) == 50
        assert actual[kind] == expected[kind], kind


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(golden_scores(), indent=1) + "\n", encoding="utf-8")
    sys.stdout.write(f"wrote {FIXTURE}\n")
