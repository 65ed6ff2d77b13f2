"""Tests for the LSAT-style two-level threshold synthesis comparator."""

import pytest

from repro.boolean.function import BooleanFunction
from repro.core.verify import verify_threshold_network
from repro.errors import SynthesisError
from repro.network.network import BooleanNetwork
from tests.conftest import random_network
from tests.core.twolevel import TwoLevelOptions, synthesize_two_level


def single_output(expression: str) -> BooleanNetwork:
    f = BooleanFunction.parse(expression)
    net = BooleanNetwork("t")
    for v in f.variables:
        net.add_input(v)
    net.add_node("f", f)
    net.add_output("f")
    return net


class TestBasics:
    def test_threshold_output_is_one_gate(self):
        net = single_output("a b + a c + b c")
        th = synthesize_two_level(net)
        assert th.num_gates == 1
        assert verify_threshold_network(net, th)

    def test_nonthreshold_output_splits(self):
        net = single_output("a b + c d")
        th = synthesize_two_level(net)
        assert th.num_gates == 3  # two parts + OR root
        assert th.depth() == 2
        assert verify_threshold_network(net, th)

    def test_binate_output(self):
        net = single_output("a b' + a' b")
        th = synthesize_two_level(net)
        assert verify_threshold_network(net, th)
        assert th.depth() <= 2

    def test_constant_output(self):
        net = BooleanNetwork()
        net.add_input("a")
        net.add_node("k", BooleanFunction.constant(True))
        net.add_output("k")
        th = synthesize_two_level(net)
        assert th.evaluate({"a": 0})["k"] is True

    def test_po_aliasing_pi(self):
        net = BooleanNetwork()
        net.add_input("a")
        net.add_output("a")
        th = synthesize_two_level(net)
        assert th.evaluate({"a": 1})["a"] is True


class TestDepthProperty:
    def test_depth_at_most_two_without_fanin_bound(self):
        for seed in range(6):
            net = random_network(seed + 1900, npi=6, nnodes=6)
            th = synthesize_two_level(net)
            assert th.depth() <= 2, seed
            assert verify_threshold_network(net, th), seed

    def test_fanin_bound_builds_or_tree(self):
        net = single_output(
            "a b + c d + e g + h i + j k + l m"
        )
        th = synthesize_two_level(net, TwoLevelOptions(max_fanin=3))
        assert th.max_fanin() <= 3
        assert verify_threshold_network(net, th)


class TestLimits:
    def test_cube_explosion_rejected(self):
        # A deep XOR chain flattens exponentially.
        net = BooleanNetwork()
        prev = net.add_input("x0")
        for i in range(1, 12):
            x = net.add_input(f"x{i}")
            prev = net.add_node(
                f"n{i}",
                BooleanFunction.parse(f"{prev} {x}' + {prev}' {x}"),
            )
        net.add_output(prev)
        with pytest.raises(SynthesisError):
            synthesize_two_level(net, TwoLevelOptions(max_cubes=64))

    def test_multi_output_sharing_is_lost(self):
        """Two-level synthesis duplicates shared logic — the structural
        weakness that motivates TELS's multi-level approach."""
        from repro.core.synthesis import SynthesisOptions, synthesize

        net = BooleanNetwork()
        for name in ("a", "b", "c", "d", "e", "h"):
            net.add_input(name)
        # shared = ab + cd is non-threshold, so each flattened output needs
        # its own split parts; TELS keeps one shared realization.
        net.add_node("shared", BooleanFunction.parse("a b + c d"))
        net.add_node("f", BooleanFunction.parse("shared e"))
        net.add_node("g", BooleanFunction.parse("shared h"))
        net.add_output("f")
        net.add_output("g")
        two = synthesize_two_level(net)
        multi = synthesize(net, SynthesisOptions(psi=4))
        assert verify_threshold_network(net, two)
        assert verify_threshold_network(net, multi)
        assert multi.num_gates < two.num_gates
