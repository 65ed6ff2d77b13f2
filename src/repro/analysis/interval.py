"""Weighted-sum interval analysis over threshold networks.

The forward pass abstracts every signal to a :class:`BoolInterval` and
every gate to the interval of weighted input sums those values allow.  A
gate whose sum interval contains no crossable threshold is a **proven
constant** — the single-threshold case reduces to ``lo >= T`` (constant
1) or ``hi < T`` (constant 0); a multi-threshold gate is constant when
no ``T_j`` lies in ``(lo, hi]``, its value the crossing parity at
``lo``.  Constants propagate: a proven-constant gate feeds ``{0}`` or
``{1}`` into its readers, which may in turn collapse *their* sum
intervals.  A threshold network is acyclic, so one sweep in topological
order sees every gate's fanins final before the gate: that sweep is the
fixpoint.

Primary outputs driven by a constant signal are **stuck outputs** —
either a deliberate constant cone or a symptom worth surfacing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Mapping

from repro.analysis.domains import (
    UNKNOWN,
    BoolInterval,
    SumInterval,
    weighted_sum_interval,
)
from repro.core.threshold import (
    MultiThresholdVector,
    ThresholdGate,
    ThresholdNetwork,
)


def _fires_interval(gate: ThresholdGate, sums: SumInterval) -> BoolInterval:
    vector = gate.vector
    if isinstance(vector, MultiThresholdVector):
        if any(sums.contains_threshold(t) for t in vector.thresholds):
            return UNKNOWN
        crossed = sum(1 for t in vector.thresholds if sums.lo >= t)
        return BoolInterval.constant(crossed % 2 == 1)
    if sums.contains_threshold(vector.threshold):
        return UNKNOWN
    return BoolInterval.constant(sums.lo >= vector.threshold)


@dataclass
class FixpointStats:
    """The work of one interval sweep: every signal, and one visit and one
    update per gate (the analysis report's ``fixpoint`` block)."""

    signals: int = 0
    visits: int = 0
    updates: int = 0


@dataclass
class IntervalResult:
    """Converged interval facts for one network."""

    #: Abstract value of every signal (inputs and gates).
    values: dict[str, BoolInterval] = field(default_factory=dict)
    #: Reachable weighted-sum bounds per gate.
    sums: dict[str, SumInterval] = field(default_factory=dict)
    #: Gates proven constant, with their value.
    constant_gates: dict[str, int] = field(default_factory=dict)
    #: Primary outputs proven constant, with their value.
    stuck_outputs: dict[str, int] = field(default_factory=dict)
    stats: FixpointStats = field(default_factory=FixpointStats)


def interval_analysis(
    network: ThresholdNetwork,
    input_values: Mapping[str, BoolInterval] | None = None,
) -> IntervalResult:
    """Run the forward interval analysis over ``network`` in one sweep.

    ``input_values`` optionally pins primary inputs to constants (an
    environment constraint); unnamed inputs default to unknown.
    """
    pins = dict(input_values or {})
    result = IntervalResult()
    values = result.values
    for pi in network.inputs:
        values[pi] = pins.get(pi, UNKNOWN)
    order = network.topological_order()
    for name in order:
        gate = network.gate(name)
        fanins = tuple(values[f] for f in gate.inputs)
        sums = result.sums[name] = weighted_sum_interval(
            gate.vector.weights, fanins
        )
        values[name] = _fires_interval(gate, sums)
        if values[name].value is not None:
            result.constant_gates[name] = values[name].value
    for out in network.outputs:
        value = values.get(out, UNKNOWN).value
        if value is not None:
            result.stuck_outputs[out] = value
    result.stats = FixpointStats(
        signals=len(values), visits=len(order), updates=len(order)
    )
    return result
