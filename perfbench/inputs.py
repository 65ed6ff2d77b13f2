"""Seeded input generation for the TELS benchmark workloads.

Every workload draws its circuits from ``--seed``; the program under test
only ever receives the generated networks (or their BLIF text).

Seed 0 reproduces the large corpus of ``repro.benchgen.mcnc`` exactly:
bulk circuit ``k`` is ``random_logic_network`` seed ``9000 + k`` on the
corpus size schedule, and the four stressors use rotations ``k = 0..3``,
so numbers line up with the ``large_corpus`` history in
``BENCH_synth.json``.

Any other seed *relabels* the same circuits: fresh signal names and a
fresh order of inputs and outputs, fresh stressor rotations (which keep
each stressor's parity width), a fresh daemon submission order and a fresh
order of the distributed circuits.  The
program sees different names and orders, so some tie-breaks differ, but
the amount of work stays the same.  Drawing fresh random circuits instead
moved the work of a bulk pass by up to 17% between seeds (compile time per
circuit slot varies by 58%); shuffling node order as well moved gate
counts by 1-2% and a wide pass by ~6%.  Either would swamp a regression
bound, so ``parmix`` is not relabeled at all.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.benchgen.circuits import CircuitBuilder
from repro.benchgen.extended import build_extended_benchmark
from repro.benchgen.mcnc import build_benchmark
from repro.benchgen.random_logic import random_logic_network
from repro.network.network import BooleanNetwork

#: Bulk random-logic circuits per pass (the corpus' bulk tier).
BULK_CIRCUITS = 36

#: Bulk circuits farmed out by the distributed workload.
DISTRIBUTED_CIRCUITS = 12

#: Table-I stand-ins in the daemon mix (i10 alone would dominate a round).
DAEMON_TABLE1 = (
    "cm152a", "cordic", "cm85a", "comp", "cmb", "term1", "pm1", "x1", "tcon",
)

#: Bulk circuit slots added to each daemon round.
DAEMON_BULK = tuple(range(0, 36, 4))


@dataclass(frozen=True)
class Circuit:
    """One generated source network and how the workload synthesizes it."""

    name: str
    network: BooleanNetwork
    options: dict


def relabel(network: BooleanNetwork, seed: int) -> BooleanNetwork:
    """The same logic under fresh names and a fresh input and output order."""
    if seed == 0:
        return network
    rng = random.Random(f"{seed}:{network.name}")
    signals = list(network.inputs) + list(network.node_names)
    ids = rng.sample(range(10 * len(signals)), len(signals))
    names = {
        old: ("i" if network.is_input(old) else "n") + str(new)
        for old, new in zip(signals, ids)
    }
    out = BooleanNetwork(f"{network.name}_s{seed}")
    inputs, outputs = list(network.inputs), list(network.outputs)
    rng.shuffle(inputs)
    rng.shuffle(outputs)
    for old in inputs:
        out.add_input(names[old])
    for old in network.node_names:
        out.add_node(names[old], network.function(old).renamed(names))
    for old in outputs:
        out.add_output(names[old])
    out.check()
    return out


def bulk_circuit(seed: int, k: int) -> BooleanNetwork:
    """Bulk circuit ``k`` of the corpus, relabeled by ``seed``."""
    network = random_logic_network(
        f"corpus_r{k:02d}",
        num_inputs=12 + (k * 5) % 21,
        num_outputs=4 + (k * 3) % 9,
        num_nodes=60 + (k * 13) % 81,
        seed=9000 + k,
        max_fanin=3 + k % 2,
        max_cubes=3,
        locality=12 + k % 7,
    )
    return relabel(network, seed)


def stressor_circuit(name: str, k: int) -> BooleanNetwork:
    """The corpus stressor recipe at rotation ``k``.

    A 9-support 2-of-9 threshold cone (forces the ILP at psi >= 9), a
    rotated ``x_a x_b + x_c x_d`` cone (refuted by the 2-monotonicity
    screen) and a parity tree over ``4 + k % 3`` inputs.
    """
    cb = CircuitBuilder(name)
    xs = cb.inputs("x", 9)
    ys = cb.inputs("y", 4 + k % 3)
    pairs = [
        cb.and_([xs[i], xs[j]])
        for i in range(len(xs))
        for j in range(i + 1, len(xs))
    ]
    cb.output(cb.or_(pairs), "wide")
    a, b, c, d = ((k + off) % 9 for off in range(4))
    cb.output(
        cb.or_([cb.and_([xs[a], xs[b]]), cb.and_([xs[c], xs[d]])]), "psel"
    )
    cb.output(cb.parity_tree(ys), "par")
    return cb.done()


def stressor_rotations(seed: int) -> list[int]:
    """Rotation per stressor slot; ``k % 3`` (the parity width) is kept."""
    if seed == 0:
        return [0, 1, 2, 3]
    rng = random.Random(f"stressors:{seed}")
    return [slot + 3 * rng.randrange(3) for slot in range(4)]


def bulk_inputs(seed: int) -> list[Circuit]:
    options = {"psi": 3}
    return [
        Circuit(f"r{k:02d}", bulk_circuit(seed, k), options)
        for k in range(BULK_CIRCUITS)
    ]


def wide_inputs(seed: int) -> list[Circuit]:
    """Four stressors at psi=9 plus parmix under every gate model."""
    circuits = [
        Circuit(
            f"s{slot}",
            stressor_circuit(f"corpus_s{slot}", k),
            {"psi": 9, "preserve_sharing": False},
        )
        for slot, k in enumerate(stressor_rotations(seed))
    ]
    parmix = build_extended_benchmark("parmix")
    for model in ("ltg", "multi-threshold", "flash"):
        circuits.append(
            Circuit(
                f"parmix-{model}",
                parmix,
                {
                    "psi": 9,
                    "preserve_sharing": False,
                    "gate_model": model,
                    "analyze": True,
                },
            )
        )
    return circuits


def daemon_inputs(seed: int) -> list[Circuit]:
    """One round of the daemon mix (submitted in :func:`daemon_order`)."""
    circuits = [
        Circuit(n, relabel(build_benchmark(n), seed), {})
        for n in DAEMON_TABLE1
    ]
    circuits += [
        Circuit(f"r{k:02d}", bulk_circuit(seed, k), {}) for k in DAEMON_BULK
    ]
    return circuits


def daemon_order(seed: int, size: int):
    """Endless submission order: every round of the mix freshly shuffled.

    Two jobs share the daemon at a time, so a job's latency depends on the
    job it runs beside; reshuffling each round varies the pairings.
    """
    rng = random.Random(f"daemon:{seed}")
    while True:
        order = list(range(size))
        rng.shuffle(order)
        yield from order


def distributed_inputs(seed: int) -> list[Circuit]:
    """The first 12 bulk circuits, under their corpus names, in seed order.

    Not relabeled: cone names order the broker's queue, so relabeling
    changed how cones batch onto the two workers and moved the median
    circuit time by 24% between seeds, against 8% between runs of a seed.
    """
    circuits = bulk_inputs(0)[:DISTRIBUTED_CIRCUITS]
    random.Random(f"distributed:{seed}").shuffle(circuits)
    return circuits
