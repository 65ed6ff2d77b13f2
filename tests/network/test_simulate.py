"""Unit tests for bit-parallel simulation and equivalence checking."""

import random

from repro.boolean.bitset import BitVec
from repro.boolean.function import BooleanFunction
from repro.network.network import BooleanNetwork
from repro.network.simulate import (
    equivalent_networks,
    eval_function_vectors,
    exhaustive_pi_vectors,
    output_signatures,
    random_pi_vectors,
    simulate_vectors,
)
from tests.conftest import random_network


def tiny_net():
    net = BooleanNetwork("t")
    net.add_input("a")
    net.add_input("b")
    net.add_node("f", BooleanFunction.parse("a b'"))
    net.add_output("f")
    return net


class TestWordEvaluation:
    """Evaluation over packed BitVec words: bit k is vector k."""

    def test_eval_function_words(self):
        f = BooleanFunction.parse("a b'")
        vecs = {"a": BitVec.from_int(0b1100, 4), "b": BitVec.from_int(0b1010, 4)}
        assert eval_function_vectors(f, vecs, 4).to_int() == 0b0100

    def test_simulate_words_matches_pointwise(self):
        net = random_network(5)
        rng = random.Random(0)
        width = 64
        vecs = random_pi_vectors(net, width, rng)
        sim = simulate_vectors(net, vecs, width)
        for k in (0, 13, 63):
            assignment = {name: vecs[name].test(k) for name in net.inputs}
            truth = net.evaluate_all(assignment)
            for out in net.outputs:
                assert sim[out].test(k) == truth[out]


class TestExhaustiveWords:
    def test_patterns_enumerate_all_points(self):
        net = tiny_net()
        vecs, width = exhaustive_pi_vectors(net)
        assert width == 4
        seen = set()
        for k in range(width):
            point = tuple(vecs[name].test(k) for name in net.inputs)
            seen.add(point)
        assert len(seen) == 4

    def test_exhaustive_simulation_equals_truth_table(self):
        net = tiny_net()
        vecs, width = exhaustive_pi_vectors(net)
        sim = simulate_vectors(net, vecs, width)
        for k in range(width):
            a = vecs["a"].test(k)
            b = vecs["b"].test(k)
            assert sim["f"].test(k) == (a and not b)


class TestEquivalence:
    def test_identical_networks_equivalent(self):
        net = random_network(9)
        assert equivalent_networks(net, net.copy())

    def test_detects_single_node_difference(self):
        net = tiny_net()
        other = tiny_net()
        other.set_function("f", BooleanFunction.parse("a b"))
        assert not equivalent_networks(net, other)

    def test_different_interfaces_not_equivalent(self):
        net = tiny_net()
        other = BooleanNetwork("u")
        other.add_input("a")
        other.add_node("f", BooleanFunction.parse("a"))
        other.add_output("f")
        assert not equivalent_networks(net, other)

    def test_random_fallback_for_wide_networks(self):
        net = random_network(11, npi=20, nnodes=10)
        assert equivalent_networks(net, net.copy(), vectors=128)

    def test_signatures_deterministic(self):
        net = random_network(13)
        assert output_signatures(net) == output_signatures(net)
