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
from collections.abc import Mapping, Sequence

from repro.boolean import bitset
from repro.boolean.bitset import BitVec
from repro.boolean.function import BooleanFunction
from repro.core.threshold import ThresholdGate, ThresholdNetwork
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
    network: BooleanNetwork | ThresholdNetwork, width: int, rng: random.Random
) -> dict[str, BitVec]:
    """Independent uniform random bit-vectors for every primary input."""
    return {name: BitVec.random(width, rng) for name in network.inputs}


def exhaustive_pi_vectors(
    network: BooleanNetwork | ThresholdNetwork,
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


def check_pi_vectors(
    network: BooleanNetwork | ThresholdNetwork,
    vectors: int,
    rng: random.Random,
    exhaustive_limit: int = EXHAUSTIVE_LIMIT,
) -> tuple[dict[str, BitVec], int]:
    """The PI vectors of one simulation check, and their width.

    Every input combination when the network has at most
    ``exhaustive_limit`` inputs (the check is then exact); otherwise
    ``vectors`` random vectors drawn from ``rng``.
    """
    if len(network.inputs) <= exhaustive_limit:
        return exhaustive_pi_vectors(network)
    return random_pi_vectors(network, vectors, rng), vectors


# ----------------------------------------------------------------------
# Threshold networks
# ----------------------------------------------------------------------
def eval_gate_vectors(
    gate: ThresholdGate,
    vecs: Mapping[str, BitVec],
    width: int,
    weights: Sequence[float] | None = None,
) -> BitVec:
    """Evaluate one threshold gate over packed fanin bit-vectors.

    The gate's vector builds its packed truth table, so every gate
    model's firing rule (multi-threshold parity included) holds by
    construction; ``weights`` stands in for the gate's own.  A gate wider
    than :data:`~repro.boolean.bitset.MAX_TABLE_VARS` gets no table: it
    fires vector by vector through ``vector.fires``, with the weights of
    each vector's 1-valued fanins added in fanin order, the order
    :func:`~repro.boolean.bitset.weighted_sums` adds them in.
    """
    fanins = [vecs[name] for name in gate.inputs]
    if gate.fanin <= bitset.MAX_TABLE_VARS:
        table = gate.vector.table(weights)
        return bitset.eval_table_vecs(table, fanins, width)
    if weights is None:
        weights = gate.weights
    columns = [vec.to_bits() for vec in fanins]
    fired: list[bool] = []
    for point in zip(*columns):
        total: float = 0
        for w, bit in zip(weights, point):
            if bit:
                total += w
        fired.append(gate.vector.fires(total))
    return BitVec.from_bits(fired)


def simulate_threshold_vectors(
    network: ThresholdNetwork,
    pi_vecs: Mapping[str, BitVec],
    width: int,
    weights: Mapping[str, Sequence[float]] | None = None,
) -> dict[str, BitVec]:
    """Packed simulation of a threshold network: every signal over
    ``width`` parallel vectors, each gate through :func:`eval_gate_vectors`.

    ``weights`` maps gate names to weights that stand in for their own,
    one disturbed instance of the network (the Section VI-C experiment).
    """
    disturbed = weights or {}
    vecs = {name: pi_vecs[name] for name in network.inputs}
    for name in network.topological_order():
        vecs[name] = eval_gate_vectors(
            network.gate(name), vecs, width, disturbed.get(name)
        )
    return vecs


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
    vecs, width = check_pi_vectors(
        a, vectors, random.Random(seed), exhaustive_limit
    )
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
    vecs, width = check_pi_vectors(
        a, vectors, random.Random(seed), exhaustive_limit
    )
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
