"""Post-synthesis peephole optimization of threshold networks.

TELS's recursive construction can leave trivially improvable structure
behind: buffer gates created for primary outputs of split parts, constant
gates feeding logic, and single-fanout gates that a Theorem-2 input of their
reader could absorb.  This pass cleans those up without touching the
synthesis algorithms themselves; every rewrite preserves functional
equivalence (the tests verify by simulation).

No flow runs it: forced on after synthesis of the 36 bulk and 9 Table-I
circuits at psi = 3 it removed 11 of 1,704 gates.  It lives here, next to
``test_optimize.py``, only until those tests are retired with it.
"""

from __future__ import annotations

from repro.core.theorems import theorem2_extend
from repro.core.threshold import (
    ThresholdGate,
    ThresholdNetwork,
    WeightThresholdVector,
)


def peephole_optimize(
    network: ThresholdNetwork, psi: int = 0, delta_on: int = 0
) -> int:
    """Apply all peephole rewrites to a fixpoint; returns gates removed.

    Args:
        network: threshold network to optimize in place.
        psi: fanin restriction for rewrites that grow a gate's fanin
            (0 disables those rewrites).
        delta_on: ON tolerance used when re-deriving Theorem-2 weights.
    """
    removed = 0
    changed = True
    while changed:
        changed = False
        removed_now = (
            _fold_buffers(network)
            + _propagate_constants(network)
            + (_absorb_single_or_inputs(network, psi, delta_on) if psi else 0)
        )
        removed_now += network.cleanup()
        if removed_now:
            removed += removed_now
            changed = True
    network.check()
    return removed


def _gate_is_buffer(gate: ThresholdGate) -> bool:
    return (
        isinstance(gate.vector, WeightThresholdVector)
        and gate.fanin == 1
        and gate.vector.weights == (1,)
        and gate.vector.threshold == 1
    )


def _gate_is_constant(gate: ThresholdGate) -> tuple[bool, bool]:
    """(is_constant, value): true when no input assignment changes output."""
    if not isinstance(gate.vector, WeightThresholdVector):
        # Multi-threshold gates are opaque to the single-threshold
        # peephole algebra; leave them untouched.
        return False, False
    if gate.fanin == 0:
        return True, gate.vector.threshold <= 0
    lo = sum(w for w in gate.vector.weights if w < 0)
    hi = sum(w for w in gate.vector.weights if w > 0)
    if lo >= gate.vector.threshold:
        return True, True
    if hi < gate.vector.threshold:
        return True, False
    return False, False


def _readers(network: ThresholdNetwork) -> dict[str, list[str]]:
    readers: dict[str, list[str]] = {}
    for gate in network.gates():
        for fanin in gate.inputs:
            readers.setdefault(fanin, []).append(gate.name)
    return readers


def _replace_gate(network: ThresholdNetwork, gate: ThresholdGate) -> None:
    network._gates[gate.name] = gate  # module-internal rewiring


def _rewire_input(
    network: ThresholdNetwork, reader: str, old: str, new: str
) -> bool:
    gate = network.gate(reader)
    if new in gate.inputs:
        return False  # would create a duplicate input; skip
    inputs = tuple(new if name == old else name for name in gate.inputs)
    _replace_gate(
        network,
        ThresholdGate(
            gate.name, inputs, gate.vector, gate.delta_on, gate.delta_off
        ),
    )
    return True


def _fold_buffers(network: ThresholdNetwork) -> int:
    """Bypass buffer gates that do not drive primary outputs."""
    removed = 0
    for name in list(network.topological_order()):
        gate = network.gate(name)
        if not _gate_is_buffer(gate) or network.is_input(name):
            continue
        if name in network.outputs:
            continue
        source = gate.inputs[0]
        ok = all(
            _rewire_input(network, reader, name, source)
            for reader in _readers(network).get(name, [])
        )
        if ok:
            removed += 1
    return removed


def _propagate_constants(network: ThresholdNetwork) -> int:
    """Fold constant gates into their readers' weight sums."""
    folded = 0
    for name in list(network.topological_order()):
        gate = network.gate(name)
        is_const, value = _gate_is_constant(gate)
        if not is_const or gate.fanin == 0:
            continue
        # Rebuild as an explicit zero-input constant; readers then treat it
        # through the generic constant-input fold below.
        _replace_gate(
            network,
            ThresholdGate(
                name,
                (),
                WeightThresholdVector((), 0 if value else 1),
                gate.delta_on,
                gate.delta_off,
            ),
        )
        folded += 1
    # Fold zero-input constant gates into readers.
    for name in list(network.topological_order()):
        gate = network.gate(name)
        if gate.fanin != 0 or name in network.outputs:
            continue
        value = gate.vector.threshold <= 0
        for reader in _readers(network).get(name, []):
            rgate = network.gate(reader)
            if not isinstance(rgate.vector, WeightThresholdVector):
                continue  # cannot fold into a multi-threshold reader
            idx = rgate.inputs.index(name)
            weights = list(rgate.vector.weights)
            threshold = rgate.vector.threshold
            if value:
                threshold -= weights[idx]
            inputs = tuple(
                n for i, n in enumerate(rgate.inputs) if i != idx
            )
            weights = [w for i, w in enumerate(weights) if i != idx]
            _replace_gate(
                network,
                ThresholdGate(
                    reader,
                    inputs,
                    WeightThresholdVector(tuple(weights), threshold),
                    rgate.delta_on,
                    rgate.delta_off,
                ),
            )
            folded += 1
    return folded


def _absorb_single_or_inputs(
    network: ThresholdNetwork, psi: int, delta_on: int
) -> int:
    """Merge a single-fanout gate into a pure-OR reader via Theorem 2.

    If reader R is an OR gate (all weights 1, T=1) and one of its inputs is
    gate G read only by R, R can instead take G's inputs directly with G's
    weights and absorb the *other* OR inputs through Theorem-2 weights —
    eliminating G — provided the merged fanin fits ψ.
    """
    removed = 0
    readers = _readers(network)
    for name in list(network.topological_order()):
        if not network.has_gate(name):
            continue
        gate = network.gate(name)
        is_or = (
            isinstance(gate.vector, WeightThresholdVector)
            and gate.fanin >= 2
            and all(w == 1 for w in gate.vector.weights)
            and gate.vector.threshold == 1
        )
        if not is_or:
            continue
        for child_name in gate.inputs:
            if not network.has_gate(child_name):
                continue
            if child_name in network.outputs:
                continue
            if len(readers.get(child_name, [])) != 1:
                continue
            child = network.gate(child_name)
            if not isinstance(child.vector, WeightThresholdVector):
                continue  # Theorem 2 extends single-threshold vectors only
            others = [n for n in gate.inputs if n != child_name]
            merged_inputs = tuple(child.inputs) + tuple(others)
            if len(set(merged_inputs)) != len(merged_inputs):
                continue
            if len(merged_inputs) > psi:
                continue
            extended = theorem2_extend(child.vector, len(others), delta_on)
            _replace_gate(
                network,
                ThresholdGate(
                    name,
                    merged_inputs,
                    extended,
                    gate.delta_on,
                    gate.delta_off,
                ),
            )
            del network._gates[child_name]
            removed += 1
            readers = _readers(network)
            break
    return removed
