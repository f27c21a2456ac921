"""Feature rankings must match a saved fixture bit for bit.

``golden_rankings.json`` holds, for every ranking method, the order and the
per-feature scores (as ``float.hex`` strings) that ``rank_features`` gives
at a fixed seed on the training side of a fixed ``census_like`` split.  The
comparison is exact, so a change in a split-score formula, in a model-based
method's estimator or holdout split, or in a tie-break fails here even when
every score stays close.

Regenerate the fixture only for a deliberate ranking change, by running this
file as a script: ``PYTHONPATH=src python tests/test_golden_rankings.py``.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

from tabevade.data import split
from tabevade.ranking import RANKING_METHODS, rank_features
from tabevade.synth import census_like

FIXTURE = Path(__file__).with_name("golden_rankings.json")


def golden_rankings() -> dict[str, dict[str, list]]:
    train, _ = split(census_like(n_rows=400, seed=13), 0.8, 3)
    out = {}
    for method in RANKING_METHODS:
        ranking = rank_features(train, method, seed=2)
        out[method] = {"order": list(ranking.order), "scores": [float(s).hex() for s in ranking.scores]}
    return out


def test_rankings_match_golden_fixture():
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert sorted(expected) == sorted(RANKING_METHODS)
    actual = golden_rankings()
    for method in RANKING_METHODS:
        assert actual[method] == expected[method], method


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(golden_rankings(), indent=1) + "\n", encoding="utf-8")
    sys.stdout.write(f"wrote {FIXTURE}\n")
