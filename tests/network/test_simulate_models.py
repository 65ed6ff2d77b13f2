"""Differential test: packed threshold simulation vs per-gate ``fires()``.

:func:`repro.network.simulate.simulate_threshold_vectors` evaluates every
gate through its vector's *truth table* on the packed BitVec substrate.
The ground truth is the gate's own firing rule: weighted sum of the fanin
values, then ``vector.fires(total)``.  Hypothesis draws random DAGs of
gates admitted by each registered gate model and checks that the two
evaluation paths agree bit-for-bit on every signal, for every input
combination — any divergence is a bug in the truth-table construction,
the packed kernels, or the firing semantics themselves.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.threshold import (
    MultiThresholdVector,
    ThresholdGate,
    ThresholdNetwork,
    WeightThresholdVector,
)
from repro.gates import get_model, model_names
from repro.network.simulate import (
    exhaustive_pi_vectors,
    simulate_threshold_vectors,
)

MAX_INPUTS = 4
MAX_GATES = 6
MAX_FANIN = 3
MAX_WEIGHT = 3  # within the flash grid (levels=8) for every model

nonzero_weights = st.integers(-MAX_WEIGHT, MAX_WEIGHT).filter(lambda w: w != 0)


@st.composite
def gate_vectors(draw, weights: tuple[int, ...], model: str):
    """A weight-threshold (or multi-threshold) vector over ``weights``.

    Thresholds are drawn from the reachable weighted-sum range (padded by
    one on each side so constant-true and constant-false gates appear).
    ``multi-threshold`` draws a strictly increasing threshold list half
    the time; the other models always use a single threshold.
    """
    lo = sum(min(w, 0) for w in weights)
    hi = sum(max(w, 0) for w in weights)
    if model == "multi-threshold" and draw(st.booleans()):
        size = draw(st.integers(1, min(3, hi - lo + 2)))
        thresholds = draw(
            st.sets(
                st.integers(lo, hi + 1), min_size=size, max_size=size
            )
        )
        return MultiThresholdVector(weights, tuple(sorted(thresholds)))
    return WeightThresholdVector(weights, draw(st.integers(lo, hi + 1)))


@st.composite
def threshold_networks(draw, model: str) -> ThresholdNetwork:
    """A random gate DAG whose vectors the given gate model admits."""
    backend = get_model(model)
    network = ThresholdNetwork("hypothesis")
    signals: list[str] = []
    for i in range(draw(st.integers(1, MAX_INPUTS))):
        signals.append(network.add_input(f"x{i}"))
    num_gates = draw(st.integers(1, MAX_GATES))
    for g in range(num_gates):
        fanin = draw(st.integers(1, min(MAX_FANIN, len(signals))))
        inputs = tuple(
            draw(
                st.lists(
                    st.sampled_from(signals),
                    min_size=fanin,
                    max_size=fanin,
                    unique=True,
                )
            )
        )
        weights = tuple(
            draw(nonzero_weights) for _ in range(fanin)
        )
        vector = draw(gate_vectors(weights, model))
        if not backend.admits_vector(vector):
            vector = WeightThresholdVector(weights, max(weights))
        name = f"g{g}"
        network.add_gate(ThresholdGate(name, inputs, vector))
        signals.append(name)
    # Every gate observable: the last gate plus a sample become outputs.
    network.add_output(f"g{num_gates - 1}")
    for extra in draw(
        st.lists(
            st.sampled_from([f"g{i}" for i in range(num_gates)]),
            unique=True,
            max_size=3,
        )
    ):
        if extra != f"g{num_gates - 1}":
            network.add_output(extra)
    return network


def reference_simulate(
    network: ThresholdNetwork, assignment: dict[str, int]
) -> dict[str, int]:
    """Per-gate ground truth: weighted sum, then ``vector.fires``."""
    values = dict(assignment)
    for name in network.topological_order():
        gate = network.gate(name)
        total = sum(
            w * values[f]
            for w, f in zip(gate.vector.weights, gate.inputs)
        )
        values[name] = int(gate.vector.fires(total))
    return values


@pytest.mark.parametrize("model", sorted(model_names()))
def test_models_are_registered(model):
    assert get_model(model).name == model


class TestPackedMatchesFires:
    """One differential property per registered gate model."""

    def check(self, network: ThresholdNetwork) -> None:
        vecs, width = exhaustive_pi_vectors(network)
        packed = simulate_threshold_vectors(network, vecs, width)
        inputs = list(network.inputs)
        for k in range(width):
            assignment = {
                name: (k >> i) & 1 for i, name in enumerate(inputs)
            }
            reference = reference_simulate(network, assignment)
            for name in network.topological_order():
                assert packed[name].test(k) == bool(reference[name]), (
                    f"gate {name!r} diverges on vector {k}: "
                    f"packed={packed[name].test(k)} "
                    f"fires={reference[name]}"
                )

    @settings(max_examples=60, deadline=None)
    @given(network=threshold_networks("ltg"))
    def test_ltg(self, network):
        self.check(network)

    @settings(max_examples=60, deadline=None)
    @given(network=threshold_networks("multi-threshold"))
    def test_multi_threshold(self, network):
        self.check(network)

    @settings(max_examples=60, deadline=None)
    @given(network=threshold_networks("flash"))
    def test_flash(self, network):
        self.check(network)
