"""Unit tests for functional validation of threshold networks."""

import random

import pytest

from repro.boolean.function import BooleanFunction
from repro.core.synthesis import SynthesisOptions, synthesize
from repro.core.threshold import (
    ThresholdGate,
    ThresholdNetwork,
    WeightThresholdVector,
)
from repro.core.defects import (
    DefectTrialResult,
    perturb_weights,
    run_defect_trial,
)
from repro.core.verify import first_mismatch, verify_threshold_network
from repro.errors import NetworkError
from repro.io.blif import parse_blif
from repro.network.network import BooleanNetwork
from repro.network.simulate import (
    equivalent_threshold_networks,
    random_pi_vectors,
)
from tests.conftest import random_network


def source_and():
    net = BooleanNetwork()
    net.add_input("a")
    net.add_input("b")
    net.add_node("f", BooleanFunction.parse("a b"))
    net.add_output("f")
    return net


def broken_or():
    th = ThresholdNetwork()
    th.add_input("a")
    th.add_input("b")
    th.add_gate(
        ThresholdGate("f", ("a", "b"), WeightThresholdVector((1, 1), 1))
    )
    th.add_output("f")
    return th


class TestVerify:
    def test_accepts_correct_synthesis(self):
        net = source_and()
        th = synthesize(net, SynthesisOptions())
        assert verify_threshold_network(net, th)

    def test_rejects_wrong_gate(self):
        assert not verify_threshold_network(source_and(), broken_or())

    def test_rejects_interface_mismatch(self):
        net = source_and()
        other = ThresholdNetwork()
        other.add_input("a")
        other.add_gate(
            ThresholdGate("f", ("a",), WeightThresholdVector((1,), 1))
        )
        other.add_output("f")
        assert not verify_threshold_network(net, other)

    def test_randomized_path_for_wide_networks(self):
        net = random_network(1300, npi=18, nnodes=10)
        th = synthesize(net, SynthesisOptions(psi=3))
        assert verify_threshold_network(net, th, vectors=256)

    def test_first_mismatch_found(self):
        mismatch = first_mismatch(source_and(), broken_or())
        assert mismatch is not None
        want = source_and().evaluate(mismatch)
        got = broken_or().evaluate(mismatch)
        assert want != got

    def test_first_mismatch_none_when_equal(self):
        net = source_and()
        th = synthesize(net, SynthesisOptions())
        assert first_mismatch(net, th) is None

    @pytest.mark.parametrize(
        "source_inputs,inputs,output,expected",
        [
            ("a b", ("a", "b", "z"), "y", ["inputs only in the network: z"]),
            ("a b z", ("a", "b"), "y", ["inputs only in the source: z"]),
            (
                "a b",
                ("a", "b"),
                "w",
                [
                    "outputs only in the source: y",
                    "outputs only in the network: w",
                ],
            ),
        ],
        ids=["network-input", "source-input", "renamed-output"],
    )
    def test_first_mismatch_names_an_interface_mismatch(
        self, source_inputs, inputs, output, expected
    ):
        # The three interface cases of TLM105, straight through
        # first_mismatch: no input vector can witness them.
        source = parse_blif(
            f".model s\n.inputs {source_inputs}\n.outputs y\n"
            ".names a b y\n11 1\n.end\n"
        )
        th = ThresholdNetwork("t")
        for name in inputs:
            th.add_input(name)
        th.add_gate(
            ThresholdGate(output, ("a", "b"), WeightThresholdVector((1, 1), 2))
        )
        th.add_output(output)
        with pytest.raises(NetworkError, match="differ in interface") as exc:
            first_mismatch(source, th)
        for text in expected:
            assert text in str(exc.value)


def wide_gate_pair(threshold: int = 1):
    """A fanin-17 gate ``w = <1 x16, -1; T>(x0..x16)`` read by
    ``f = w AND y``, and the SOP network it implements at ``T = 1``:
    ``x16' (x0 + ... + x15) + x16 (two of x0..x15)``."""
    xs = [f"x{i}" for i in range(17)]
    th = ThresholdNetwork("wide17")
    source = BooleanNetwork("wide17")
    for name in (*xs, "y"):
        th.add_input(name)
        source.add_input(name)
    vector = WeightThresholdVector((1,) * 16 + (-1,), threshold)
    th.add_gate(ThresholdGate("w", tuple(xs), vector))
    th.add_gate(
        ThresholdGate("f", ("w", "y"), WeightThresholdVector((1, 1), 2))
    )
    cubes = [f"x16' {x}" for x in xs[:16]] + [
        f"x16 {a} {b}" for i, a in enumerate(xs[:16]) for b in xs[i + 1 : 16]
    ]
    source.add_node("w", BooleanFunction.parse(" + ".join(cubes)))
    source.add_node("f", BooleanFunction.parse("w y"))
    for out in ("w", "f"):
        th.add_output(out)
        source.add_output(out)
    return source, th


def noisy_outputs(th, noise, point):
    """Per-point reference of a disturbed network: each gate fires on
    the sum of its disturbed weights over its 1-valued fanins."""
    values = dict(point)
    for name in th.topological_order():
        gate = th.gate(name)
        total = 0
        for w, n, fanin in zip(gate.weights, noise[name], gate.inputs):
            if values[fanin]:
                total += float(w) + float(n)
        values[name] = gate.vector.fires(total)
    return {o: values[o] for o in th.outputs}


class TestWideGate:
    """A gate wider than any packed truth table, checked against the
    per-point ``ThresholdNetwork.evaluate``."""

    VECTORS = 512

    def points(self, source, seed=0):
        rng = random.Random(seed)
        vecs = random_pi_vectors(source, self.VECTORS, rng)
        return [
            {name: vecs[name].test(k) for name in source.inputs}
            for k in range(self.VECTORS)
        ]

    def test_verify_agrees_with_evaluate(self):
        source, th = wide_gate_pair()
        points = self.points(source)
        for point in points[:64]:
            assert th.evaluate(point) == source.evaluate(point)
        assert verify_threshold_network(source, th, vectors=self.VECTORS)
        _, broken = wide_gate_pair(threshold=2)
        assert any(
            broken.evaluate(p) != source.evaluate(p) for p in points
        )
        assert not verify_threshold_network(
            source, broken, vectors=self.VECTORS
        )
        witness = first_mismatch(source, broken, vectors=self.VECTORS)
        assert broken.evaluate(witness) != source.evaluate(witness)

    def test_equivalence_agrees_with_evaluate(self):
        source, th = wide_gate_pair()
        _, same = wide_gate_pair()
        _, broken = wide_gate_pair(threshold=2)
        assert equivalent_threshold_networks(th, same, vectors=self.VECTORS)
        assert not equivalent_threshold_networks(
            th, broken, vectors=self.VECTORS
        )
        assert any(
            th.evaluate(p) != broken.evaluate(p) for p in self.points(source)
        )

    def test_defect_trial_agrees_with_per_point_sums(self):
        source, th = wide_gate_pair()
        clean = run_defect_trial(
            source, th, 0.0, random.Random(3), vectors=self.VECTORS
        )
        assert clean == DefectTrialResult(False, 0, 2 * self.VECTORS)
        for seed in range(3):
            result = run_defect_trial(
                source, th, 0.9, random.Random(seed), vectors=self.VECTORS
            )
            # Replay the trial's draws: its vectors, then its noise.
            rng = random.Random(seed)
            vecs = random_pi_vectors(source, self.VECTORS, rng)
            noise = perturb_weights(th, 0.9, rng)
            wrong = 0
            for k in range(self.VECTORS):
                point = {name: vecs[name].test(k) for name in source.inputs}
                want = th.evaluate(point)
                got = noisy_outputs(th, noise, point)
                wrong += sum(got[o] != want[o] for o in th.outputs)
            assert result.wrong_vectors == wrong
            assert result.failed == (wrong > 0)
