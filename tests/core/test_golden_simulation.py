"""Golden pins of the threshold-network simulations behind the don't-care
analysis and the defect experiments.

``golden_simulation.json`` records, per network, the interval facts, every
field of the :class:`~repro.analysis.dontcare.DontCareResult` (the
observable masks and care sets as digests) and seeded
:func:`~repro.core.defects.run_defect_trial` triples ``(failed,
wrong_vectors, total_vectors)`` at two variation levels.  The networks
are the analysis stressor, ``parmix`` under each gate model (ψ=9, sharing
off) and the Table-I subset (ψ=3).  Regenerate only when one of these
results changes on purpose::

    PYTHONPATH=src python -m tests.core.make_golden
"""

from __future__ import annotations

import hashlib
import json
import random
from functools import cache
from pathlib import Path

import pytest

from repro.analysis.dontcare import dontcare_analysis
from repro.analysis.interval import interval_analysis
from repro.analysis.redundancy import threshold_to_boolean
from repro.benchgen.extended import build_extended_benchmark
from repro.core.defects import run_defect_trial
from repro.core.synthesis import SynthesisOptions, synthesize
from repro.engine.store import ResultStore
from repro.network.scripts import prepare_tels
from tests.analysis.conftest import build_stressor

GOLDEN_PATH = Path(__file__).with_name("golden_simulation.json")
PARMIX_MODELS = ("ltg", "multi-threshold", "flash")
TABLE1_SUBSET = ("cm152a", "cm85a", "cmb", "comp")
LABELS = (
    "stressor",
    *(f"parmix-{model}" for model in PARMIX_MODELS),
    *TABLE1_SUBSET,
)
DEFECT_LEVELS = (0.5, 2.0)
DEFECT_TRIALS = 3
DEFECT_SEED = 20261019


def golden_case(label: str):
    """``(source, synthesized)`` for one pinned network."""
    if label == "stressor":
        network = build_stressor()
        return threshold_to_boolean(network), network
    if label.startswith("parmix-"):
        source = build_extended_benchmark("parmix")
        options = SynthesisOptions(
            psi=9,
            gate_model=label.removeprefix("parmix-"),
            preserve_sharing=False,
        )
        return source, synthesize(
            prepare_tels(source), options, store=ResultStore()
        )
    source = build_extended_benchmark(label)
    return source, synthesize(prepare_tels(source), SynthesisOptions(psi=3))


def _digest(mapping: dict[str, int]) -> str:
    text = json.dumps({k: f"{v:x}" for k, v in sorted(mapping.items())})
    return hashlib.sha256(text.encode()).hexdigest()[:24]


@cache
def golden_row(label: str) -> dict:
    """Interval, don't-care and defect-trial results on one network."""
    source, network = golden_case(label)
    interval = interval_analysis(network)
    dc = dontcare_analysis(network, interval=interval)
    defects = {}
    for v in DEFECT_LEVELS:
        rng = random.Random(DEFECT_SEED)
        defects[str(v)] = [
            [r.failed, r.wrong_vectors, r.total_vectors]
            for r in (
                run_defect_trial(source, network, v, rng, vectors=256)
                for _ in range(DEFECT_TRIALS)
            )
        ]
    return {
        "network": label,
        "gates": network.num_gates,
        "interval": {
            "stats": [
                interval.stats.signals,
                interval.stats.visits,
                interval.stats.updates,
            ],
            "constant_gates": dict(sorted(interval.constant_gates.items())),
            "stuck_outputs": dict(sorted(interval.stuck_outputs.items())),
        },
        "dontcare": {
            "exact": dc.exact,
            "width": dc.width,
            "unobservable_gates": list(dc.unobservable_gates),
            "care": _digest(dc.care),
            "care_observable": _digest(dc.care_observable),
            "observable": _digest(
                {name: mask.to_int() for name, mask in dc.observable.items()}
            ),
            "resimulations": dc.resimulations,
        },
        "defects": defects,
    }


@cache
def _golden() -> dict:
    rows = json.loads(GOLDEN_PATH.read_text())
    return {row["network"]: row for row in rows}


def test_golden_covers_every_label():
    assert sorted(_golden()) == sorted(LABELS)


@pytest.mark.parametrize("label", LABELS)
def test_dontcare_matches_golden(label):
    row, want = golden_row(label), _golden()[label]
    assert row["gates"] == want["gates"]
    assert row["interval"] == want["interval"]
    assert row["dontcare"] == want["dontcare"]


@pytest.mark.parametrize("label", LABELS)
def test_defect_trials_match_golden(label):
    assert golden_row(label)["defects"] == _golden()[label]["defects"]
