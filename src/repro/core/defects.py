"""Parametric weight-variation Monte Carlo (Section VI-C, Figs. 11-12).

The disturbed weight is ``w' = w + v * U(-0.5, 0.5)`` where ``v`` is the
variation multiplier.  A circuit *fails* when any simulated input vector
produces a wrong output value under the disturbed weights; the suite failure
rate is the fraction of benchmark circuits that fail (the paper's Fig. 11
definition).  Thresholds are left undisturbed, matching the paper's "
variations in the input weights".
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from repro.core.threshold import ThresholdNetwork
from repro.network.network import BooleanNetwork
from repro.network.simulate import (
    check_pi_vectors,
    simulate_threshold_vectors,
    simulate_vectors,
)


@dataclass(frozen=True)
class DefectTrialResult:
    """Outcome of one disturbed-weight simulation of one circuit."""

    failed: bool
    wrong_vectors: int
    total_vectors: int


def _noise_generator(
    rng: random.Random | np.random.Generator | int,
) -> np.random.Generator:
    """Adapt any accepted RNG flavour to a NumPy generator.

    A ``random.Random`` is bridged by drawing 64 bits from it, so repeated
    calls against one Python RNG keep producing fresh (but reproducible)
    instances — the behaviour the per-trial loops rely on.
    """
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, random.Random):
        return np.random.default_rng(rng.getrandbits(64))
    return np.random.default_rng(rng)


def perturb_weights(
    network: ThresholdNetwork,
    v: float,
    rng: random.Random | np.random.Generator | int,
) -> dict[str, np.ndarray]:
    """One disturbed-weight instance: per-gate additive noise arrays.

    The noise for every weight of the network is drawn in one vectorized
    ``Generator.random`` call and sliced per gate, replacing the former
    per-weight Python loop; suites with thousands of gates perturb in
    microseconds.  The raw sample stream differs from the historical
    per-call ``random.Random`` implementation — only the distribution
    (``v * U(-0.5, 0.5)`` per weight) is contractual, which the
    compatibility tests pin statistically.
    """
    gen = _noise_generator(rng)
    gates = list(network.gates())
    counts = [len(gate.inputs) for gate in gates]
    sample = v * (gen.random(sum(counts)) - 0.5)
    noise: dict[str, np.ndarray] = {}
    offset = 0
    for gate, count in zip(gates, counts):
        noise[gate.name] = sample[offset : offset + count]
        offset += count
    return noise


def run_defect_trial(
    source: BooleanNetwork,
    synthesized: ThresholdNetwork,
    v: float,
    rng: random.Random,
    vectors: int = 1024,
) -> DefectTrialResult:
    """Disturb every weight once and simulate the whole vector set."""
    vecs, width = check_pi_vectors(source, vectors, rng)
    golden = simulate_vectors(source, vecs, width)
    noise = perturb_weights(synthesized, v, rng)
    disturbed = {
        gate.name: [w + float(n) for w, n in zip(gate.weights, noise[gate.name])]
        for gate in synthesized.gates()
    }
    got = simulate_threshold_vectors(
        synthesized, vecs, width, weights=disturbed
    )
    wrong = sum((got[name] ^ golden[name]).count() for name in source.outputs)
    return DefectTrialResult(wrong > 0, wrong, width * len(source.outputs))


def circuit_failure_probability(
    source: BooleanNetwork,
    synthesized: ThresholdNetwork,
    v: float,
    trials: int = 20,
    seed: int = 0,
    vectors: int = 1024,
) -> float:
    """Fraction of disturbed-weight instances under which the circuit fails."""
    rng = random.Random(seed)
    failures = sum(
        run_defect_trial(source, synthesized, v, rng, vectors).failed
        for _ in range(trials)
    )
    return failures / trials


def suite_failure_rate(
    circuits: list[tuple[BooleanNetwork, ThresholdNetwork]],
    v: float,
    trials: int = 5,
    seed: int = 0,
    vectors: int = 1024,
) -> float:
    """Paper's failure-rate metric: % of benchmarks that fail simulation.

    Each benchmark is disturbed ``trials`` times; it counts as failed when
    any disturbed instance produces any wrong output vector.
    """
    failed = 0
    for index, (source, synthesized) in enumerate(circuits):
        rng = random.Random(seed * 7919 + index)
        if any(
            run_defect_trial(source, synthesized, v, rng, vectors).failed
            for _ in range(trials)
        ):
            failed += 1
    if not circuits:
        return 0.0
    return 100.0 * failed / len(circuits)
