"""The forward fixpoint: one topological interval sweep over the network."""

from __future__ import annotations

from repro.analysis.domains import UNKNOWN, ZERO
from repro.analysis.interval import interval_analysis

from tests.analysis.conftest import build_clean


def test_forward_fixpoint_single_sweep_on_dag(clean):
    result = interval_analysis(clean)
    # The topological sweep visits every gate exactly once on a DAG.
    assert result.stats.visits == 2
    assert result.stats.updates == 2
    assert result.values["or1"] == UNKNOWN


def test_forward_fixpoint_propagates_pinned_inputs():
    clean = build_clean()
    result = interval_analysis(
        clean, input_values={"a": ZERO, "b": UNKNOWN, "c": ZERO}
    )
    # a=0 kills the AND, c=0 then kills the OR: both proven constant 0.
    assert result.values["and1"] == ZERO
    assert result.values["or1"] == ZERO


def test_forward_fixpoint_counts_signals(clean):
    result = interval_analysis(clean)
    assert result.stats.signals == 5  # 3 inputs + 2 gates
