"""Ablation — multi-level TELS vs the two-level (LSAT-style) comparator.

The paper's Section II positions TELS against 1960s-era two-level threshold
synthesis (it cites LSAT [11]).  This ablation makes the comparison
concrete: on shallow circuits the two-level flow is competitive (sometimes
minimal), while circuits with reconvergent depth either explode during
flattening or cost far more gates — the structural argument for multi-level
synthesis.
"""

from __future__ import annotations

import pytest

from repro.benchgen.extended import build_extended_benchmark
from repro.core.area import network_stats
from repro.core.synthesis import SynthesisOptions, synthesize
from repro.core.verify import verify_threshold_network
from repro.errors import SynthesisError
from repro.network.scripts import prepare_tels
from tests.core.twolevel import TwoLevelOptions, synthesize_two_level

# Circuits shallow enough to flatten (two-level's home turf) plus deeper
# ones where flattening should fail or lose.
SHALLOW = ["majority", "cm138a", "decod", "z4ml", "cm152a"]
DEEP = ["cm85a", "cordic", "x2", "alu2"]


@pytest.fixture(scope="module")
def comparison():
    rows = []
    for name in SHALLOW + DEEP:
        source = build_extended_benchmark(name)
        tels = synthesize(prepare_tels(source), SynthesisOptions(psi=8))
        assert verify_threshold_network(source, tels, vectors=256)
        try:
            two = synthesize_two_level(
                source, TwoLevelOptions(max_cubes=512)
            )
            assert verify_threshold_network(source, two, vectors=256)
            two_stats = network_stats(two)
        except SynthesisError:
            two_stats = None
        rows.append((name, network_stats(tels), two_stats))
    return rows


def test_print_comparison(comparison):
    print()
    print("TELS (psi=8) vs two-level LSAT-style synthesis")
    print(f"{'benchmark':10s} {'TELS g(l)':>12s} {'two-level g(l)':>16s}")
    for name, tels, two in comparison:
        two_text = f"{two.gates:6d} ({two.levels})" if two else "  flattening ∞"
        print(f"{name:10s} {tels.gates:7d} ({tels.levels:2d}) {two_text:>16s}")


def test_two_level_depth_bound(comparison):
    for name, _, two in comparison:
        if two is not None:
            assert two.levels <= 2, name


def test_two_level_feasible_on_shallow(comparison):
    by_name = {name: two for name, _, two in comparison}
    for name in SHALLOW:
        assert by_name[name] is not None, name


def test_multilevel_never_much_worse(comparison):
    """TELS gate count stays within a small factor of two-level even on
    two-level's best circuits (and wins where flattening explodes)."""
    for name, tels, two in comparison:
        if two is not None:
            assert tels.gates <= max(2 * two.gates, two.gates + 8), name


def test_benchmark_two_level(benchmark):
    source = build_extended_benchmark("cm152a")
    benchmark(
        lambda: synthesize_two_level(source, TwoLevelOptions(max_cubes=512))
    )
