"""Bit-parallel simulation and equivalence checking of Boolean networks.

Signals are :class:`~repro.boolean.bitset.BitVec` bit-vectors: bit *k* of
every signal is simulation vector *k*.  The packed substrate makes a single
pass over a network evaluate thousands of vectors at once — the workhorse
behind functional validation of synthesized threshold networks (Section VI
of the paper: "all the synthesized networks were simulated for functional
correctness").
"""

from __future__ import annotations

import random
from collections.abc import Mapping

from repro.boolean import bitset
from repro.boolean.bitset import BitVec
from repro.boolean.function import BooleanFunction
from repro.core.threshold import ThresholdNetwork
from repro.network.network import BooleanNetwork

EXHAUSTIVE_LIMIT = 14  # 2**14 = 16384 vectors: cheap, exact


# ----------------------------------------------------------------------
# BitVec core
# ----------------------------------------------------------------------
def eval_function_vectors(
    function: BooleanFunction, vecs: Mapping[str, BitVec], width: int
) -> BitVec:
    """Evaluate an SOP function over packed fanin bit-vectors."""
    fanins = [vecs[name] for name in function.variables]
    return bitset.eval_cover_vecs(function.cover, fanins, width)


def simulate_vectors(
    network: BooleanNetwork, pi_vecs: Mapping[str, BitVec], width: int
) -> dict[str, BitVec]:
    """Simulate every signal over ``width`` parallel vectors."""
    vecs: dict[str, BitVec] = {}
    for name in network.inputs:
        vecs[name] = pi_vecs[name]
    for node in network.topological_order():
        vecs[node] = eval_function_vectors(network.function(node), vecs, width)
    return vecs


def random_pi_vectors(
    network: BooleanNetwork, width: int, rng: random.Random
) -> dict[str, BitVec]:
    """Independent uniform random bit-vectors for every primary input."""
    return {name: BitVec.random(width, rng) for name in network.inputs}


def exhaustive_pi_vectors(
    network: BooleanNetwork,
) -> tuple[dict[str, BitVec], int]:
    """PI vectors enumerating *all* input combinations (small #PI only).

    Returns the vectors and the width ``2**num_inputs``: bit *k* of input
    *i* is bit *i* of the integer *k*, so the simulation sweeps the full
    truth table in one pass.  Input *i*'s vector is exactly the packed
    variable column of the truth-table substrate.
    """
    n = len(network.inputs)
    vecs = {
        name: bitset.variable_column(i, n)
        for i, name in enumerate(network.inputs)
    }
    return vecs, 1 << n


# ----------------------------------------------------------------------
# Threshold networks
# ----------------------------------------------------------------------
def simulate_threshold_vectors(
    network: ThresholdNetwork,
    pi_vecs: Mapping[str, BitVec],
    width: int,
    forced: Mapping[str, BitVec | int] | None = None,
) -> dict[str, BitVec]:
    """Packed simulation of a threshold network.

    Each gate evaluates through its vector's truth table (so the model
    semantics — single-threshold, multi-threshold parity, ... — are
    exactly the gate's own firing rule).  ``forced`` pins named signals
    to a bit-vector (or a constant 0/1) *instead of* their computed
    value — the fault-injection hook the observability analysis uses to
    ask "does anything downstream notice if this gate flips?".
    """
    pins: dict[str, BitVec] = {}
    for name, value in (forced or {}).items():
        if isinstance(value, BitVec):
            pins[name] = value
        else:
            pins[name] = (
                BitVec.ones(width) if value else BitVec.zeros(width)
            )
    vecs: dict[str, BitVec] = {}
    for name in network.inputs:
        vecs[name] = pins.get(name, pi_vecs[name])
    for name in network.topological_order():
        if name in pins:
            vecs[name] = pins[name]
            continue
        gate = network.gate(name)
        if gate.fanin == 0:
            vecs[name] = (
                BitVec.ones(width)
                if gate.vector.fires(0)
                else BitVec.zeros(width)
            )
            continue
        vecs[name] = eval_function_vectors(gate.local_function(), vecs, width)
    return vecs


def exhaustive_threshold_pi_vectors(
    network: ThresholdNetwork,
) -> tuple[dict[str, BitVec], int]:
    """All-combinations PI vectors for a threshold network (small #PI)."""
    n = len(network.inputs)
    vecs = {
        name: bitset.variable_column(i, n)
        for i, name in enumerate(network.inputs)
    }
    return vecs, 1 << n


def equivalent_threshold_networks(
    a: ThresholdNetwork,
    b: ThresholdNetwork,
    vectors: int = 4096,
    seed: int = 0,
    exhaustive_limit: int = EXHAUSTIVE_LIMIT,
) -> bool:
    """Check that two threshold networks agree on all primary outputs.

    Exact (exhaustive) when the input count is at most
    ``exhaustive_limit``; otherwise a strong randomized check over
    ``vectors`` random vectors.
    """
    if set(a.inputs) != set(b.inputs):
        return False
    if list(a.outputs) != list(b.outputs):
        return False
    if len(a.inputs) <= exhaustive_limit:
        vecs, width = exhaustive_threshold_pi_vectors(a)
    else:
        rng = random.Random(seed)
        width = vectors
        vecs = {name: BitVec.random(width, rng) for name in a.inputs}
    va = simulate_threshold_vectors(a, vecs, width)
    vb = simulate_threshold_vectors(b, vecs, width)
    return all(va[o] == vb[o] for o in a.outputs)


# ----------------------------------------------------------------------
# Equivalence / signatures
# ----------------------------------------------------------------------
def equivalent_networks(
    a: BooleanNetwork,
    b: BooleanNetwork,
    vectors: int = 4096,
    seed: int = 0,
    exhaustive_limit: int = EXHAUSTIVE_LIMIT,
) -> bool:
    """Check that two networks agree on all primary outputs.

    Uses exhaustive simulation when the input count is at most
    ``exhaustive_limit`` (then the answer is exact), otherwise ``vectors``
    random vectors (a strong randomized check).
    """
    if set(a.inputs) != set(b.inputs):
        return False
    if list(a.outputs) != list(b.outputs):
        return False
    if len(a.inputs) <= exhaustive_limit:
        vecs, width = exhaustive_pi_vectors(a)
    else:
        rng = random.Random(seed)
        width = vectors
        vecs = random_pi_vectors(a, width, rng)
    va = simulate_vectors(a, vecs, width)
    vb = simulate_vectors(b, vecs, width)
    return all(va[o] == vb[o] for o in a.outputs)


def output_signatures(
    network: BooleanNetwork, vectors: int = 1024, seed: int = 0
) -> dict[str, int]:
    """Random-simulation signatures of the primary outputs (for hashing)."""
    rng = random.Random(seed)
    vecs = random_pi_vectors(network, vectors, rng)
    sim = simulate_vectors(network, vecs, vectors)
    return {o: sim[o].to_int() for o in network.outputs}
