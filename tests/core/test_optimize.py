"""Tests for post-synthesis peephole optimization."""

import pytest

from tests.core.peephole import peephole_optimize
from repro.core.synthesis import SynthesisOptions, synthesize
from repro.core.threshold import (
    ThresholdGate,
    ThresholdNetwork,
    WeightThresholdVector,
    make_and_vector,
    make_or_vector,
)
from repro.core.verify import verify_threshold_network
from tests.conftest import random_network


def _equiv(a: ThresholdNetwork, b: ThresholdNetwork) -> bool:
    assert a.inputs == b.inputs and a.outputs == b.outputs
    n = len(a.inputs)
    for p in range(1 << n):
        assignment = {name: (p >> i) & 1 for i, name in enumerate(a.inputs)}
        if a.evaluate(assignment) != b.evaluate(assignment):
            return False
    return True


def _copy(net: ThresholdNetwork) -> ThresholdNetwork:
    clone = ThresholdNetwork(net.name)
    for name in net.inputs:
        clone.add_input(name)
    for gate in net.gates():
        clone.add_gate(gate)
    for out in net.outputs:
        clone.add_output(out)
    return clone


class TestBufferFolding:
    def test_internal_buffer_removed(self):
        net = ThresholdNetwork()
        net.add_input("a")
        net.add_input("b")
        net.add_gate(ThresholdGate("buf", ("a",), WeightThresholdVector((1,), 1)))
        net.add_gate(ThresholdGate("f", ("buf", "b"), make_and_vector(2)))
        net.add_output("f")
        reference = _copy(net)
        removed = peephole_optimize(net)
        assert removed >= 1
        assert not net.has_gate("buf")
        assert _equiv(reference, net)

    def test_po_buffer_kept(self):
        net = ThresholdNetwork()
        net.add_input("a")
        net.add_gate(ThresholdGate("f", ("a",), WeightThresholdVector((1,), 1)))
        net.add_output("f")
        peephole_optimize(net)
        assert net.has_gate("f")

    def test_buffer_into_duplicate_input_skipped(self):
        net = ThresholdNetwork()
        net.add_input("a")
        net.add_gate(ThresholdGate("buf", ("a",), WeightThresholdVector((1,), 1)))
        net.add_gate(
            ThresholdGate("f", ("buf", "a"), WeightThresholdVector((1, 1), 2))
        )
        net.add_output("f")
        reference = _copy(net)
        peephole_optimize(net)
        assert _equiv(reference, net)


class TestConstantPropagation:
    def test_always_true_gate_folds(self):
        net = ThresholdNetwork()
        net.add_input("a")
        # k fires for every assignment (threshold 0).
        net.add_gate(ThresholdGate("k", ("a",), WeightThresholdVector((1,), 0)))
        net.add_gate(ThresholdGate("f", ("k", "a"), make_and_vector(2)))
        net.add_output("f")
        reference = _copy(net)
        peephole_optimize(net)
        assert _equiv(reference, net)
        assert not net.has_gate("k")

    def test_never_true_gate_folds(self):
        net = ThresholdNetwork()
        net.add_input("a")
        net.add_gate(ThresholdGate("z", ("a",), WeightThresholdVector((1,), 5)))
        net.add_gate(ThresholdGate("f", ("z", "a"), make_or_vector(2)))
        net.add_output("f")
        reference = _copy(net)
        peephole_optimize(net)
        assert _equiv(reference, net)
        assert not net.has_gate("z")


class TestTheorem2Absorption:
    def test_or_absorbs_single_fanout_child(self):
        net = ThresholdNetwork()
        for name in ("a", "b", "c"):
            net.add_input(name)
        net.add_gate(ThresholdGate("m", ("a", "b"), make_and_vector(2)))
        net.add_gate(ThresholdGate("f", ("m", "c"), make_or_vector(2)))
        net.add_output("f")
        reference = _copy(net)
        removed = peephole_optimize(net, psi=3)
        assert removed >= 1
        assert not net.has_gate("m")
        gate = net.gate("f")
        assert set(gate.inputs) == {"a", "b", "c"}
        assert _equiv(reference, net)

    def test_respects_psi(self):
        net = ThresholdNetwork()
        for name in ("a", "b", "c", "d"):
            net.add_input(name)
        net.add_gate(ThresholdGate("m", ("a", "b", "c"), make_and_vector(3)))
        net.add_gate(ThresholdGate("f", ("m", "d"), make_or_vector(2)))
        net.add_output("f")
        peephole_optimize(net, psi=3)  # merged fanin would be 4 > 3
        assert net.has_gate("m")

    def test_disabled_without_psi(self):
        net = ThresholdNetwork()
        for name in ("a", "b", "c"):
            net.add_input(name)
        net.add_gate(ThresholdGate("m", ("a", "b"), make_and_vector(2)))
        net.add_gate(ThresholdGate("f", ("m", "c"), make_or_vector(2)))
        net.add_output("f")
        peephole_optimize(net)  # psi=0: absorption off
        assert net.has_gate("m")


class TestIdempotence:
    @pytest.mark.parametrize("delta_on", [0, 1])
    def test_second_pass_is_a_no_op_on_paper_examples(self, delta_on):
        from repro.benchgen.paper_examples import (
            fig5_network,
            motivational_network,
        )

        for source in (motivational_network(), fig5_network()):
            th = synthesize(
                source, SynthesisOptions(psi=3, delta_on=delta_on)
            )
            peephole_optimize(th, psi=3, delta_on=delta_on)
            snapshot = {g.name: g for g in th.gates()}
            assert peephole_optimize(th, psi=3, delta_on=delta_on) == 0
            assert {g.name: g for g in th.gates()} == snapshot

    def test_idempotent_on_random_synthesized_networks(self):
        for seed in range(4):
            source = random_network(seed + 1500)
            th = synthesize(source, SynthesisOptions(psi=4, seed=seed))
            peephole_optimize(th, psi=4)
            assert peephole_optimize(th, psi=4) == 0


class TestDefectTolerancePreservation:
    @pytest.mark.parametrize("delta_on,delta_off", [(0, 1), (1, 1), (1, 2)])
    def test_margins_still_meet_gate_labels(self, delta_on, delta_off):
        """Peephole rewrites must not shrink any gate below the tolerances
        it is labeled with (Eq. 1) — Theorem-2 absorption and constant
        folding both rebuild vectors, so this is worth checking per gate."""
        from repro.benchgen.paper_examples import (
            fig5_network,
            motivational_network,
        )

        for source in (motivational_network(), fig5_network()):
            th = synthesize(
                source,
                SynthesisOptions(
                    psi=3, delta_on=delta_on, delta_off=delta_off
                ),
            )
            peephole_optimize(th, psi=3, delta_on=delta_on)
            assert verify_threshold_network(source, th)
            for gate in th.gates():
                on_margin, off_margin = gate.margins()
                if on_margin is not None:
                    assert on_margin >= gate.delta_on, gate.name
                if off_margin is not None:
                    assert off_margin >= gate.delta_off, gate.name


class TestOnSynthesizedNetworks:
    @pytest.mark.parametrize("seed", range(6))
    def test_equivalence_preserved(self, seed):
        source = random_network(seed + 1400)
        th = synthesize(source, SynthesisOptions(psi=3, seed=seed))
        peephole_optimize(th, psi=3)
        assert th.max_fanin() <= 3
        assert verify_threshold_network(source, th), seed

    def test_never_increases_gate_count(self):
        source = random_network(1450)
        th = synthesize(source, SynthesisOptions(psi=4))
        before = th.num_gates
        peephole_optimize(th, psi=4)
        assert th.num_gates <= before
