"""Every rendered counter must match the checked-in metrics golden.

``golden_metrics.json`` (regenerated only via ``make_golden.py``) pins the
per-cone events, the report counters, the checker and store counters and
the job-result payload of serial runs under each gate model, plus a
cold/warm pair against one persistent cache.  Moving where a counter is
kept must reproduce every one of them.
"""

from __future__ import annotations

import json

import pytest

from tests.engine.make_golden import (
    CIRCUITS,
    GATE_MODELS,
    GOLDEN_PATH,
    capture,
)

GOLDEN = json.loads(GOLDEN_PATH.read_text())


def _roundtrip(run: dict) -> dict:
    """The run as the golden stores it (tuples become lists)."""
    return json.loads(json.dumps(run))


@pytest.mark.parametrize("model", GATE_MODELS)
@pytest.mark.parametrize("name", CIRCUITS)
def test_serial_run_matches_golden(name, model):
    assert _roundtrip(capture(name, model)) == GOLDEN[f"{name}/{model}"]


def test_cold_and_warm_cache_runs_match_golden(tmp_path):
    cold = _roundtrip(capture("comp", cache_dir=str(tmp_path)))
    warm = _roundtrip(capture("comp", cache_dir=str(tmp_path)))
    assert cold == GOLDEN["comp/ltg/cache-cold"]
    assert warm == GOLDEN["comp/ltg/cache-warm"]
