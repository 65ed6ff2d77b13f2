"""Tests for the experiment harnesses (fast subsets of E1-E4)."""

import pytest

from repro.experiments.fig10 import format_fig10, run_fig10
from repro.experiments.fig11 import format_fig11, run_fig11
from repro.experiments.fig12 import format_fig12, run_fig12
from repro.experiments.flows import run_flows
from repro.experiments.table1 import PAPER_TABLE1, format_table1, run_table1

FAST = ["cm152a", "cmb", "tcon"]


class TestFlows:
    def test_flow_result_cached(self):
        a = run_flows("cmb", psi=3)
        b = run_flows("cmb", psi=3)
        assert a is b

    def test_best_network_selection(self):
        flow = run_flows("tcon", psi=3)
        assert flow.best.num_gates == min(
            flow.tels_stats.gates, flow.one_to_one_stats.gates
        )

    def test_gate_reduction_sign(self):
        flow = run_flows("cm152a", psi=3)
        assert flow.gate_reduction_percent > 0


class TestConstantGates:
    """term1 has constant nodes: their zero-fanin gates must meet raised
    tolerances too, or the flow's lint post-pass rejects the network."""

    @pytest.mark.parametrize("delta_on,delta_off", [(1, 1), (2, 1), (0, 3)])
    def test_term1_flows_meet_tolerances(self, delta_on, delta_off):
        flow = run_flows("term1", delta_on=delta_on, delta_off=delta_off)
        constants = 0
        for network in (flow.tels, flow.one_to_one):
            for gate in network.gates():
                on_margin, off_margin = gate.margins()
                assert on_margin is None or on_margin >= delta_on, gate
                assert off_margin is None or off_margin >= delta_off, gate
                constants += gate.fanin == 0
        assert constants > 0


class TestTable1:
    def test_rows_and_formatting(self):
        rows = run_table1(FAST, psi=3)
        assert [r.name for r in rows] == FAST
        text = format_table1(rows)
        for name in FAST:
            assert name in text
        assert "TOTAL" in text

    def test_paper_reference_present_for_all_benchmarks(self):
        assert set(PAPER_TABLE1) == {
            "cm152a",
            "cordic",
            "cm85a",
            "comp",
            "cmb",
            "term1",
            "pm1",
            "x1",
            "i10",
            "tcon",
        }

    def test_paper_reduction_well_known_values(self):
        rows = run_table1(["cm152a"], psi=3)
        # Paper: 28 -> 13 gates = 53.6% reduction.
        assert abs(rows[0].paper_reduction_percent - 53.57) < 0.1


class TestFig10:
    def test_sweep_shape(self):
        points = run_fig10("cmb", fanins=(3, 4, 5))
        assert [p.psi for p in points] == [3, 4, 5]
        # One-to-one gate count must not increase when fanin is relaxed.
        gates = [p.one_to_one_gates for p in points]
        assert gates[0] >= gates[-1]
        assert "psi" in format_fig10(points, "cmb")


class TestFig11:
    def test_failure_rates_bounded_and_monotone_in_delta(self):
        points = run_fig11(
            names=FAST,
            delta_ons=(0, 2),
            multipliers=(0.4, 1.2),
            trials=2,
            vectors=64,
        )
        assert all(0.0 <= p.failure_rate_percent <= 100.0 for p in points)
        by_key = {(p.delta_on, p.v): p.failure_rate_percent for p in points}
        # More tolerance, same variation: no more failures (statistically
        # this holds at these sample sizes because delta dominates).
        assert by_key[(2, 1.2)] <= by_key[(0, 1.2)]
        text = format_fig11(points)
        assert "failure rate" in text


class TestFig12:
    def test_area_failure_tradeoff(self):
        points = run_fig12(
            names=FAST, delta_ons=(0, 2), v=0.8, trials=2, vectors=64
        )
        assert points[0].area_increase_percent == 0.0
        assert points[1].total_area >= points[0].total_area
        assert points[1].failure_rate_percent <= points[0].failure_rate_percent
        assert "delta_on" in format_fig12(points)
