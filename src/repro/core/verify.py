"""Functional validation of synthesized threshold networks (Section VI).

The paper simulates every synthesized network against its source for
functional correctness; this module does the same.  Small-input networks are
checked exhaustively (exact equivalence); larger ones with a batch of random
vectors (a strong randomized check).  Both sides run on the packed BitVec
simulators of :mod:`repro.network.simulate`.
"""

from __future__ import annotations

import random

from repro.boolean.bitset import BitVec
from repro.core.threshold import ThresholdNetwork
from repro.errors import NetworkError
from repro.network.network import BooleanNetwork
from repro.network.simulate import (
    check_pi_vectors,
    simulate_threshold_vectors,
    simulate_vectors,
)


def interface_differences(
    source: BooleanNetwork, synthesized: ThresholdNetwork
) -> list[str]:
    """The primary inputs and outputs only one of the two networks has,
    one phrase per kind and side; empty when the interfaces agree."""
    found = []
    for kind, theirs, ours in (
        ("inputs", source.inputs, synthesized.inputs),
        ("outputs", source.outputs, synthesized.outputs),
    ):
        for where, names in (
            ("source", set(theirs) - set(ours)),
            ("network", set(ours) - set(theirs)),
        ):
            if names:
                found.append(
                    f"{kind} only in the {where}: {', '.join(sorted(names))}"
                )
    return found


def verify_threshold_network(
    source: BooleanNetwork,
    synthesized: ThresholdNetwork,
    vectors: int = 2048,
    seed: int = 0,
) -> bool:
    """Check that ``synthesized`` matches ``source`` on all primary outputs.

    Exhaustive when the network has at most
    :data:`~repro.network.simulate.EXHAUSTIVE_LIMIT` inputs, randomized
    otherwise.
    """
    if interface_differences(source, synthesized):
        return False
    vecs, width = check_pi_vectors(source, vectors, random.Random(seed))
    golden = simulate_vectors(source, vecs, width)
    got = simulate_threshold_vectors(synthesized, vecs, width)
    return all(got[name] == golden[name] for name in source.outputs)


def first_mismatch(
    source: BooleanNetwork,
    synthesized: ThresholdNetwork,
    vectors: int = 2048,
    seed: int = 0,
) -> dict[str, bool] | None:
    """Return a PI assignment on which the two disagree, or None.

    Debugging helper: exhaustive for small input counts, random otherwise.
    Both sides are simulated bit-parallel; only the first disagreeing
    vector is unpacked into a point assignment.  Networks whose inputs or
    outputs differ have no such assignment: that raises
    :class:`~repro.errors.NetworkError` naming the differences.
    """
    interface = interface_differences(source, synthesized)
    if interface:
        raise NetworkError(
            f"network {synthesized.name!r} and its source differ in "
            f"interface: {'; '.join(interface)}"
        )
    vecs, width = check_pi_vectors(source, vectors, random.Random(seed))
    golden = simulate_vectors(source, vecs, width)
    got = simulate_threshold_vectors(synthesized, vecs, width)
    bad = BitVec.zeros(width)
    for name in source.outputs:
        bad = bad | (got[name] ^ golden[name])
    k = bad.first_set()
    if k is None:
        return None
    return {name: vecs[name].test(k) for name in source.inputs}
