"""Unit tests for threshold gates and networks."""

import random

import pytest

from repro.boolean.bitset import BitVec
from repro.boolean.function import BooleanFunction
from repro.core.threshold import (
    ThresholdGate,
    ThresholdNetwork,
    WeightThresholdVector,
    gate_table,
    make_and_vector,
    make_or_vector,
)
from repro.errors import NetworkError
from repro.network.simulate import (
    random_pi_vectors,
    simulate_threshold_vectors,
)


class TestVector:
    def test_evaluation_fires_at_threshold(self):
        v = WeightThresholdVector((1, 1), 2)
        assert v.evaluate([1, 1])
        assert not v.evaluate([1, 0])

    def test_negative_weights(self):
        v = WeightThresholdVector((1, -1), 1)  # a b'
        assert v.evaluate([1, 0])
        assert not v.evaluate([1, 1])
        assert not v.evaluate([0, 0])

    def test_area_eq14(self):
        # Sum of |w_i| plus |T|.
        assert WeightThresholdVector((2, -1, -1), 1).area == 5
        assert WeightThresholdVector((1, 1), 2).area == 4

    def test_positive_threshold(self):
        v = WeightThresholdVector((2, -1, -1), 1)
        assert v.to_positive_threshold() == 3

    def test_str(self):
        assert str(WeightThresholdVector((2, 1), 3)) == "<2, 1; 3>"

    def test_or_and_helpers(self):
        assert make_or_vector(3) == WeightThresholdVector((1, 1, 1), 1)
        assert make_and_vector(3) == WeightThresholdVector((1, 1, 1), 3)


class TestGate:
    def test_arity_mismatch_rejected(self):
        with pytest.raises(NetworkError):
            ThresholdGate("g", ("a",), WeightThresholdVector((1, 1), 1))

    def test_duplicate_inputs_rejected(self):
        with pytest.raises(NetworkError):
            ThresholdGate("g", ("a", "a"), WeightThresholdVector((1, 1), 1))

    def test_evaluate_by_name(self):
        g = ThresholdGate("g", ("a", "b"), WeightThresholdVector((1, 1), 2))
        assert g.evaluate({"a": 1, "b": 1})
        assert not g.evaluate({"a": 1, "b": 0})

    def test_local_function(self):
        g = ThresholdGate("g", ("a", "b"), WeightThresholdVector((2, -1), 1))
        func = g.local_function()
        assert func.equivalent(BooleanFunction.parse("a"))
        g2 = ThresholdGate("g", ("a", "b"), WeightThresholdVector((1, -1), 1))
        assert g2.local_function().equivalent(BooleanFunction.parse("a b'"))

    def test_implements(self):
        g = ThresholdGate("g", ("a", "b"), WeightThresholdVector((1, 1), 1))
        assert g.implements(BooleanFunction.parse("a + b"))
        assert not g.implements(BooleanFunction.parse("a b"))

    def test_margins(self):
        g = ThresholdGate("g", ("a", "b"), WeightThresholdVector((1, 1), 2))
        on, off = g.margins()
        assert on == 0  # a=b=1 sums exactly to T
        assert off == 1  # best false vector sums to 1 = T-1

    def test_margins_with_delta_on(self):
        g = ThresholdGate("g", ("a", "b"), WeightThresholdVector((2, 2), 2))
        on, off = g.margins()
        assert on == 0 and off == 2


def or_network():
    net = ThresholdNetwork("orn")
    net.add_input("a")
    net.add_input("b")
    net.add_input("c")
    net.add_gate(ThresholdGate("m", ("a", "b"), make_and_vector(2)))
    net.add_gate(ThresholdGate("f", ("m", "c"), make_or_vector(2)))
    net.add_output("f")
    return net


class TestNetwork:
    def test_evaluate(self):
        net = or_network()
        assert net.evaluate({"a": 1, "b": 1, "c": 0}) == {"f": True}
        assert net.evaluate({"a": 0, "b": 1, "c": 0}) == {"f": False}

    def test_levels_depth(self):
        net = or_network()
        assert net.depth() == 2
        assert net.levels()["m"] == 1

    def test_area(self):
        net = or_network()
        assert net.area() == (1 + 1 + 2) + (1 + 1 + 1)

    def test_max_fanin(self):
        assert or_network().max_fanin() == 2

    def test_duplicate_signal_rejected(self):
        net = or_network()
        with pytest.raises(NetworkError):
            net.add_input("m")
        with pytest.raises(NetworkError):
            net.add_gate(
                ThresholdGate("a", (), WeightThresholdVector((), 1))
            )

    def test_cycle_detected(self):
        net = ThresholdNetwork()
        net.add_gate(ThresholdGate("p", ("q",), WeightThresholdVector((1,), 1)))
        net.add_gate(ThresholdGate("q", ("p",), WeightThresholdVector((1,), 1)))
        with pytest.raises(NetworkError):
            net.topological_order()

    def test_cleanup(self):
        net = or_network()
        net.add_gate(ThresholdGate("dead", ("a",), make_or_vector(1)))
        assert net.cleanup() == 1
        assert not net.has_gate("dead")

    def test_missing_output_detected(self):
        net = ThresholdNetwork()
        net.add_output("ghost")
        with pytest.raises(NetworkError):
            net.check()

    def test_gate_table_order(self):
        rows = list(gate_table(or_network()))
        names = [r[0] for r in rows]
        assert names.index("m") < names.index("f")


class TestMatrixSimulation:
    """Many input vectors at once, on the packed simulator."""

    def test_matches_scalar_evaluation(self):
        net = or_network()
        vecs = random_pi_vectors(net, 50, random.Random(0))
        out = simulate_threshold_vectors(net, vecs, 50)["f"]
        for k in range(50):
            assignment = {name: vecs[name].test(k) for name in net.inputs}
            assert out.test(k) == net.evaluate(assignment)["f"]

    def test_weight_noise_can_flip_output(self):
        net = ThresholdNetwork()
        net.add_input("a")
        net.add_gate(
            ThresholdGate("f", ("a",), WeightThresholdVector((1,), 1))
        )
        net.add_output("f")
        vecs = {"a": BitVec.ones(1)}
        clean = simulate_threshold_vectors(net, vecs, 1)["f"]
        assert clean.test(0)
        noisy = simulate_threshold_vectors(net, vecs, 1, {"f": [1 - 0.6]})
        assert not noisy["f"].test(0)

    def test_zero_input_gate(self):
        net = ThresholdNetwork()
        net.add_input("a")
        net.add_gate(ThresholdGate("k", (), WeightThresholdVector((), 0)))
        net.add_output("k")
        out = simulate_threshold_vectors(net, {"a": BitVec.zeros(4)}, 4)
        assert out["k"].is_ones()
