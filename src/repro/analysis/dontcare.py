"""Observability / controllability don't-care analysis.

Two complementary questions about every gate:

* **observability** — on which input vectors does the rest of the network
  actually *notice* the gate's value?  Computed exactly by fault
  injection on the packed substrate: simulate once, then per gate flip
  its signal and resimulate its transitive fanout cone; the OR over
  primary outputs of ``base XOR flipped`` is the gate's observability
  mask.  A gate whose mask is all-zero is dead weight even though it is
  structurally connected.
* **controllability** — which of a gate's ``2^fanin`` local input
  combinations are *reachable*?  Read directly off the exhaustive base
  simulation: every simulation vector contributes the minterm formed by
  its fanin bits, found by ANDing the packed fanin signals.  Unreachable
  minterms are satisfiability don't-cares the redundancy analysis may
  exploit.

Both are exact only while the network is exhaustively simulable
(``#PI <= max_table_vars``, default :data:`~repro.boolean.bitset.MAX_TABLE_VARS`).
Beyond that the analysis degrades soundly: observability masks are
dropped (unknown, not "unobservable"), and controllability falls back to
the interval abstraction — only minterms consistent with interval-proven
constant fanins are kept.  ``exact`` records which regime produced the
result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.interval import IntervalResult
from repro.boolean.bitset import MAX_TABLE_VARS, BitVec
from repro.core.threshold import ThresholdNetwork
from repro.network.simulate import (
    eval_gate_vectors,
    exhaustive_pi_vectors,
    simulate_threshold_vectors,
)


@dataclass
class DontCareResult:
    """Converged don't-care facts for one network."""

    #: True when computed by exhaustive packed simulation.
    exact: bool = False
    #: Simulation width backing the masks (0 in abstract mode).
    width: int = 0
    #: Per-gate observability mask over the simulation vectors.
    observable: dict[str, BitVec] = field(default_factory=dict)
    #: Gates proven unobservable on *every* input vector.
    unobservable_gates: tuple[str, ...] = ()
    #: Per-gate reachable local-minterm mask (bit ``m`` of the int is
    #: minterm ``m`` over the gate's fanins).
    care: dict[str, int] = field(default_factory=dict)
    #: Reachable minterms restricted to vectors where the gate is
    #: observable (exact mode only; equals ``care`` otherwise).
    care_observable: dict[str, int] = field(default_factory=dict)
    #: Fault-injection resimulations performed.
    resimulations: int = 0


def _fanout_cones(network: ThresholdNetwork) -> dict[str, set[str]]:
    """Transitive fanout (gate names only, self excluded) per signal."""
    readers: dict[str, list[str]] = {}
    order = network.topological_order()
    for name in order:
        for fanin in network.gate(name).inputs:
            readers.setdefault(fanin, []).append(name)
    cones: dict[str, set[str]] = {}
    for name in reversed(order):
        cone: set[str] = set()
        for reader in readers.get(name, ()):
            cone.add(reader)
            cone.update(cones[reader])
        cones[name] = cone
    return cones


def _reached_minterms(
    fanins: list[BitVec], observable: BitVec
) -> tuple[int, int]:
    """Masks of the local minterms some vector reaches, and of those some
    vector reaches where ``observable`` is set.

    Splits the vectors on each fanin in turn, one AND per branch, and
    drops empty branches, so only reached minterm prefixes cost work.
    """
    care = care_observable = 0
    pending = [(BitVec.ones(observable.width).words, 0, 0)]
    while pending:
        hits, var, minterm = pending.pop()
        if var == len(fanins):
            care |= 1 << minterm
            if hits & observable.words:
                care_observable |= 1 << minterm
            continue
        x = fanins[var].words
        if hits & x:
            pending.append((hits & x, var + 1, minterm | 1 << var))
        if hits & ~x:
            pending.append((hits & ~x, var + 1, minterm))
    return care, care_observable


def _abstract_care(
    network: ThresholdNetwork, interval: IntervalResult | None
) -> dict[str, int]:
    """Controllability under the interval abstraction only.

    Keeps every minterm consistent with interval-proven constant fanins;
    with no interval facts this is the full cube (sound: a superset of
    the truly reachable minterms is always a valid care set).
    """
    values = interval.values if interval is not None else {}
    care: dict[str, int] = {}
    for gate in network.gates():
        full = (1 << (1 << gate.fanin)) - 1
        mask = 0
        pinned = [
            (i, v.value)
            for i, f in enumerate(gate.inputs)
            if (v := values.get(f)) is not None and v.value is not None
        ]
        if not pinned:
            care[gate.name] = full
            continue
        for m in range(1 << gate.fanin):
            if all((m >> i) & 1 == v for i, v in pinned):
                mask |= 1 << m
        care[gate.name] = mask
    return care


def dontcare_analysis(
    network: ThresholdNetwork,
    max_table_vars: int = MAX_TABLE_VARS,
    interval: IntervalResult | None = None,
) -> DontCareResult:
    """Run the observability/controllability analysis over ``network``."""
    n = len(network.inputs)
    if n == 0 or n > max_table_vars:
        care = _abstract_care(network, interval)
        return DontCareResult(
            exact=False, care=care, care_observable=dict(care)
        )

    vecs, width = exhaustive_pi_vectors(network)
    base = simulate_threshold_vectors(network, vecs, width)
    order = network.topological_order()
    cones = _fanout_cones(network)
    outputs = tuple(network.outputs)

    result = DontCareResult(exact=True, width=width)
    unobservable: list[str] = []
    for name in order:
        gate = network.gate(name)
        # Fault-inject: flip this gate on every vector, resimulate only
        # its fanout cone, and see which vectors reach an output.
        cone = cones[name]
        sim: dict[str, BitVec] = dict(base)
        sim[name] = base[name].invert()
        for member in order:
            if member in cone:
                sim[member] = eval_gate_vectors(
                    network.gate(member), sim, width
                )
        result.resimulations += 1
        observable = BitVec.zeros(width)
        for out in outputs:
            observable = observable | (sim[out] ^ base[out])
        result.observable[name] = observable
        if observable.is_zero():
            unobservable.append(name)
        result.care[name], result.care_observable[name] = _reached_minterms(
            [base[fanin] for fanin in gate.inputs], observable
        )
    result.unobservable_gates = tuple(unobservable)
    return result
