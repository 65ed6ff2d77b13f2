"""Redundant-fanin and redundant-gate detection with verified removal.

Candidates come from three sources, in decreasing strength:

* **constant gates** — interval-proven constants (fanin > 0; zero-fanin
  constants are deliberate synthesis artifacts, not redundancy);
* **unobservable gates** — connected but provably invisible at every
  primary output (exact don't-care mode only);
* **redundant fanins** — connection ``i`` of gate ``g`` such that
  dropping weight ``w_i`` (threshold unchanged) leaves the gate's truth
  table unchanged on every reachable-and-observable local minterm:
  ``table[m] == table[m & ~bit_i]`` for all care minterms ``m``.

Candidate generation is a *filter*, not a proof: every candidate is
re-verified by a packed equivalence check of the rewritten network
against the original before it is reported (``verify_removals``) or
applied (``apply_removals``).  Applied findings are accumulated greedily
and the cumulative rewrite is re-verified against the original after
each acceptance, so the final network is equivalence-checked end to end
— zero false positives by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace

from repro.analysis.dontcare import DontCareResult
from repro.analysis.interval import IntervalResult
from repro.boolean.bitset import MAX_TABLE_VARS
from repro.core.threshold import (
    MultiThresholdVector,
    ThresholdGate,
    ThresholdNetwork,
    WeightThresholdVector,
    make_constant_vector,
)
from repro.network.network import BooleanNetwork
from repro.network.simulate import equivalent_threshold_networks

@dataclass(frozen=True)
class RemovalFinding:
    """One removal candidate, possibly verified."""

    kind: str  # "constant-gate" | "unobservable-gate" | "redundant-fanin"
    gate: str
    fanin: str | None = None
    value: int | None = None
    verified: bool = False

    @property
    def message(self) -> str:
        if self.kind == "constant-gate":
            return (
                f"gate {self.gate!r} is provably constant {self.value}; "
                "its logic cone is removable"
            )
        if self.kind == "unobservable-gate":
            return (
                f"gate {self.gate!r} is unobservable at every primary "
                "output; it is removable"
            )
        return (
            f"fanin {self.fanin!r} of gate {self.gate!r} is redundant; "
            "its connection is removable"
        )

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "gate": self.gate,
            "fanin": self.fanin,
            "value": self.value,
            "verified": self.verified,
        }


def _drop_fanin(gate: ThresholdGate, fanin: str) -> ThresholdGate:
    """The gate with one input connection removed, threshold unchanged."""
    idx = gate.inputs.index(fanin)
    weights = gate.vector.weights[:idx] + gate.vector.weights[idx + 1 :]
    vector: WeightThresholdVector | MultiThresholdVector
    if isinstance(gate.vector, MultiThresholdVector):
        vector = MultiThresholdVector(weights, gate.vector.thresholds)
    else:
        vector = WeightThresholdVector(weights, gate.vector.threshold)
    return dc_replace(
        gate,
        inputs=gate.inputs[:idx] + gate.inputs[idx + 1 :],
        vector=vector,
    )


def _constant_gate(gate: ThresholdGate, value: int) -> ThresholdGate:
    """The gate as a zero-fanin constant that keeps its tolerances."""
    return dc_replace(
        gate,
        inputs=(),
        vector=make_constant_vector(
            bool(value), 0, gate.delta_on, gate.delta_off
        ),
    )


def _replacement(
    network: ThresholdNetwork,
    current: dict[str, ThresholdGate],
    finding: RemovalFinding,
) -> ThresholdGate | None:
    """The replacement gate a finding implies, or None if inapplicable."""
    gate = current.get(finding.gate) or network.gate(finding.gate)
    if finding.kind == "constant-gate":
        return _constant_gate(gate, finding.value or 0)
    if finding.kind == "unobservable-gate":
        return _constant_gate(gate, 0)
    if finding.fanin not in gate.inputs:
        return None  # already dropped or gate already replaced wholesale
    return _drop_fanin(gate, finding.fanin)


def rebuild_with(
    network: ThresholdNetwork,
    replacements: dict[str, ThresholdGate],
    cleanup: bool = True,
) -> ThresholdNetwork:
    """A copy of ``network`` with some gates swapped out."""
    out = ThresholdNetwork(network.name)
    for pi in network.inputs:
        out.add_input(pi)
    for name in network.topological_order():
        out.add_gate(replacements.get(name, network.gate(name)))
    for po in network.outputs:
        out.add_output(po)
    out.gate_lines = dict(network.gate_lines)
    if cleanup:
        out.cleanup()
    return out


def find_candidates(
    network: ThresholdNetwork,
    interval: IntervalResult,
    dontcare: DontCareResult,
    max_table_vars: int = MAX_TABLE_VARS,
) -> list[RemovalFinding]:
    """Unverified removal candidates, strongest kind first per gate."""
    findings: list[RemovalFinding] = []
    claimed: set[str] = set()
    for name, value in sorted(interval.constant_gates.items()):
        if network.gate(name).fanin == 0:
            continue
        findings.append(
            RemovalFinding(kind="constant-gate", gate=name, value=value)
        )
        claimed.add(name)
    for name in dontcare.unobservable_gates:
        if name in claimed:
            continue
        findings.append(RemovalFinding(kind="unobservable-gate", gate=name))
        claimed.add(name)
    for name in network.topological_order():
        if name in claimed:
            continue
        gate = network.gate(name)
        if not 0 < gate.fanin <= max_table_vars:
            continue
        table = gate.vector.table().to_int()
        points = 1 << gate.fanin
        care = dontcare.care_observable.get(name, (1 << points) - 1)
        for i, fanin in enumerate(gate.inputs):
            bit = 1 << i
            if all(
                not (care >> m) & 1
                or (table >> m) & 1 == (table >> (m & ~bit)) & 1
                for m in range(points)
                if m & bit
            ):
                findings.append(
                    RemovalFinding(
                        kind="redundant-fanin", gate=name, fanin=fanin
                    )
                )
    return findings


def verify_removals(
    network: ThresholdNetwork,
    candidates: list[RemovalFinding],
    vectors: int = 4096,
    seed: int = 0,
) -> list[RemovalFinding]:
    """Each candidate equivalence-checked *individually* against the source.

    Returns the same findings with ``verified`` set; unverifiable
    candidates are kept (marked unverified) so callers can see — and CI
    can fail on — filter/check disagreements.
    """
    out: list[RemovalFinding] = []
    for finding in candidates:
        replacement = _replacement(network, {}, finding)
        if replacement is None:
            out.append(finding)
            continue
        rewritten = rebuild_with(network, {finding.gate: replacement})
        ok = equivalent_threshold_networks(
            network, rewritten, vectors=vectors, seed=seed
        )
        out.append(dc_replace(finding, verified=ok))
    return out


def apply_removals(
    network: ThresholdNetwork,
    findings: list[RemovalFinding],
    vectors: int = 4096,
    seed: int = 0,
) -> tuple[ThresholdNetwork, list[RemovalFinding]]:
    """Greedily apply findings, re-verifying the cumulative rewrite.

    After each tentative acceptance the *whole* rewritten network is
    equivalence-checked against the original; a failure reverts that
    finding.  Returns the final network (the original object if nothing
    applied) and the list of findings actually applied.
    """
    accepted: dict[str, ThresholdGate] = {}
    applied: list[RemovalFinding] = []
    for finding in findings:
        replacement = _replacement(network, accepted, finding)
        if replacement is None:
            continue
        trial = dict(accepted)
        trial[finding.gate] = replacement
        rewritten = rebuild_with(network, trial)
        if equivalent_threshold_networks(
            network, rewritten, vectors=vectors, seed=seed
        ):
            accepted = trial
            applied.append(dc_replace(finding, verified=True))
    if not accepted:
        return network, []
    return rebuild_with(network, accepted), applied


def threshold_to_boolean(network: ThresholdNetwork) -> BooleanNetwork:
    """A Boolean-network mirror of a threshold network (golden reference).

    Every gate becomes an SOP node carrying the gate's own truth table,
    so the mirror is equivalent by construction — the packed golden
    compare ``tels analyze --apply`` runs against it checks the rewritten
    threshold network, not the conversion.
    """
    out = BooleanNetwork(network.name)
    for pi in network.inputs:
        out.add_input(pi)
    for name in network.topological_order():
        out.add_node(name, network.gate(name).local_function())
    for po in network.outputs:
        out.add_output(po)
    return out
