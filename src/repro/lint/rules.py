"""The lint rule registry: structural and semantic checks over networks.

Every rule is a :class:`LintRule` — an id, a severity, a category, and a
check function over a :class:`LintContext` — registered at import time via
the :func:`rule` decorator so emitters, the CLI ``--rules`` filter, and the
SARIF rule table all enumerate one catalog (see ``docs/LINT.md``).

Rule families:

* ``TLS0xx`` **structural** — DAG shape: cycles, dangling fanins, undriven
  outputs, unreachable gates, fanin over the ψ restriction, duplicate gate
  bodies the cache tier should have deduplicated;
* ``TLM1xx`` **semantic** — gate meaning: the weight–threshold vector must
  realize its claimed defect tolerances (Eq. 1), weight signs must agree
  with the gate function's unateness, and the threshold must sit inside
  the bounds implied by the weights (outside that box the gate is
  constant);
* ``TLP2xx`` **parse** — carriers for structured ``.thblif`` parse errors
  (raised by :mod:`repro.io.thblif`, surfaced as diagnostics by the CLI).

Every rule checks a whole network; the gate-local ones loop over
``ctx.gates`` themselves.  One :func:`repro.lint.runner.run_lint` pass
serves the CLI, the engine post-pass and the experiment harnesses alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable, Iterable, Iterator
from typing import TYPE_CHECKING

from repro.boolean import bitset
from repro.core.threshold import (
    MultiThresholdVector,
    ThresholdGate,
    ThresholdNetwork,
    WeightThresholdVector,
)
from repro.lint.diagnostics import Diagnostic, LintOptions, Severity

if TYPE_CHECKING:
    from repro.analysis.report import AnalysisResult

#: Signature of every registered rule's check function.
RuleCheck = Callable[["LintContext"], Iterable[Diagnostic]]


@dataclass
class LintContext:
    """Everything a rule may consult, computed once per run."""

    network: ThresholdNetwork
    options: LintOptions
    source: object | None = None  # BooleanNetwork, for equivalence rules
    file: str | None = None
    _gates: list[ThresholdGate] | None = field(default=None, repr=False)
    #: Cached whole-network AnalysisResult shared by the TLA3xx rules.
    _analysis: AnalysisResult | None = field(default=None, repr=False)

    @property
    def gates(self) -> list[ThresholdGate]:
        if self._gates is None:
            self._gates = list(self.network.gates())
        return self._gates

    @property
    def defined(self) -> set[str]:
        """Every signal something may legally read."""
        return set(self.network.inputs) | {g.name for g in self.gates}

    def line_of(self, gate: str | None) -> int | None:
        if gate is None:
            return None
        return self.options.gate_lines.get(gate)

    def diag(
        self,
        rule: "LintRule",
        message: str,
        gate: str | None = None,
        net: str | None = None,
        hint: str | None = None,
    ) -> Diagnostic:
        return Diagnostic(
            rule_id=rule.rule_id,
            severity=rule.severity,
            message=message,
            category=rule.category,
            gate=gate,
            net=net,
            hint=hint,
            file=self.file,
            line=self.line_of(gate),
        )


@dataclass(frozen=True)
class LintRule:
    """One registered check."""

    rule_id: str
    name: str
    severity: Severity
    category: str
    description: str
    check: Callable[["LintContext"], Iterable[Diagnostic]]
    needs_source: bool = False


#: Registry in registration order (stable: module import order).
RULE_REGISTRY: dict[str, LintRule] = {}


def rule(
    rule_id: str,
    name: str,
    severity: Severity,
    category: str,
    description: str,
    needs_source: bool = False,
) -> Callable[[RuleCheck], RuleCheck]:
    """Register a check function as a lint rule."""

    def decorate(fn: RuleCheck) -> RuleCheck:
        if rule_id in RULE_REGISTRY:
            raise ValueError(f"duplicate lint rule id {rule_id!r}")
        RULE_REGISTRY[rule_id] = LintRule(
            rule_id=rule_id,
            name=name,
            severity=severity,
            category=category,
            description=description,
            check=fn,
            needs_source=needs_source,
        )
        return fn

    return decorate


def registered_rules() -> tuple[LintRule, ...]:
    return tuple(RULE_REGISTRY.values())


def get_rule(rule_id: str) -> LintRule:
    return RULE_REGISTRY[rule_id]


# ----------------------------------------------------------------------
# Structural rules (TLS0xx)
# ----------------------------------------------------------------------
@rule(
    "TLS001",
    "combinational-cycle",
    Severity.ERROR,
    "structure",
    "The gate graph must be acyclic; a cycle has no combinational meaning.",
)
def check_cycles(ctx: LintContext) -> Iterator[Diagnostic]:
    indegree: dict[str, int] = {}
    readers: dict[str, list[str]] = {}
    gate_names = {g.name for g in ctx.gates}
    for gate in ctx.gates:
        indegree.setdefault(gate.name, 0)
        for fanin in gate.inputs:
            if fanin in gate_names:
                indegree[gate.name] += 1
                readers.setdefault(fanin, []).append(gate.name)
    ready = [n for n, d in indegree.items() if d == 0]
    seen = 0
    while ready:
        name = ready.pop()
        seen += 1
        for reader in readers.get(name, ()):
            indegree[reader] -= 1
            if indegree[reader] == 0:
                ready.append(reader)
    if seen == len(indegree):
        return
    cyclic = sorted(n for n, d in indegree.items() if d > 0)
    yield ctx.diag(
        RULE_REGISTRY["TLS001"],
        f"combinational cycle through {len(cyclic)} gate(s): "
        + ", ".join(cyclic[:5])
        + ("…" if len(cyclic) > 5 else ""),
        gate=cyclic[0],
        hint="break the loop by re-synthesizing the cone rooted at one "
        "of the listed gates",
    )


@rule(
    "TLS002",
    "dangling-fanin",
    Severity.ERROR,
    "structure",
    "Every gate input must name a primary input or another gate.",
)
def check_dangling_fanins(ctx: LintContext) -> Iterator[Diagnostic]:
    defined = ctx.defined
    for gate in ctx.gates:
        for fanin in gate.inputs:
            if fanin not in defined:
                yield ctx.diag(
                    RULE_REGISTRY["TLS002"],
                    f"gate {gate.name!r} reads undefined signal {fanin!r}",
                    gate=gate.name,
                    net=fanin,
                    hint="declare the signal as a primary input or add the "
                    "gate that drives it",
                )


@rule(
    "TLS003",
    "undriven-output",
    Severity.ERROR,
    "structure",
    "Every primary output must be a primary input or a gate output.",
)
def check_undriven_outputs(ctx: LintContext) -> Iterator[Diagnostic]:
    defined = ctx.defined
    for out in ctx.network.outputs:
        if out not in defined:
            yield ctx.diag(
                RULE_REGISTRY["TLS003"],
                f"primary output {out!r} is driven by nothing",
                net=out,
                hint="add the gate driving the output or drop it from "
                ".outputs",
            )


@rule(
    "TLS004",
    "unreachable-gate",
    Severity.WARNING,
    "structure",
    "Gates outside every primary-output cone are dead area.",
)
def check_unreachable_gates(ctx: LintContext) -> Iterator[Diagnostic]:
    gates = {g.name: g for g in ctx.gates}
    live: set[str] = set()
    stack = [o for o in ctx.network.outputs if o in gates]
    while stack:
        name = stack.pop()
        if name in live:
            continue
        live.add(name)
        for fanin in gates[name].inputs:
            if fanin in gates:
                stack.append(fanin)
    for gate in ctx.gates:
        if gate.name not in live:
            yield ctx.diag(
                RULE_REGISTRY["TLS004"],
                f"gate {gate.name!r} feeds no primary output",
                gate=gate.name,
                hint="run ThresholdNetwork.cleanup() (the engine does this "
                "before emitting)",
            )


@rule(
    "TLS005",
    "fanin-overflow",
    Severity.ERROR,
    "structure",
    "No gate may exceed the fanin restriction ψ it was synthesized under.",
)
def check_fanin_overflow(ctx: LintContext) -> Iterator[Diagnostic]:
    psi = ctx.options.psi
    if psi is None:
        return
    spec = RULE_REGISTRY["TLS005"]
    for gate in ctx.gates:
        if gate.fanin > psi:
            yield ctx.diag(
                spec,
                f"gate {gate.name!r} has fanin {gate.fanin} > psi={psi}",
                gate=gate.name,
                hint="re-synthesize the cone with the intended fanin "
                "restriction",
            )


@rule(
    "TLS006",
    "duplicate-gate-body",
    Severity.NOTE,
    "structure",
    "Two gates computing the same function of the same fanins could be "
    "shared.  Note-level: independent cones legitimately re-emit equal "
    "bodies (the cache dedupes their ILP solves, not the gate instances), "
    "but each duplicate is a gate of recoverable area.",
)
def check_duplicate_bodies(ctx: LintContext) -> Iterator[Diagnostic]:
    seen: dict[tuple, str] = {}
    for gate in ctx.gates:
        # Key on the whole (frozen) vector: multi-threshold gates agreeing
        # on weights and first threshold may still differ in later ones.
        body = (gate.inputs, gate.vector)
        first = seen.get(body)
        if first is None:
            seen[body] = gate.name
            continue
        yield ctx.diag(
            RULE_REGISTRY["TLS006"],
            f"gate {gate.name!r} duplicates the body of {first!r} "
            f"(same fanins, same vector)",
            gate=gate.name,
            hint=f"rewire readers of {gate.name!r} onto {first!r} and drop "
            "the duplicate",
        )


@rule(
    "TLS007",
    "unused-input",
    Severity.NOTE,
    "structure",
    "A primary input no gate reads (and that is not itself an output).",
)
def check_unused_inputs(ctx: LintContext) -> Iterator[Diagnostic]:
    read: set[str] = set()
    for gate in ctx.gates:
        read.update(gate.inputs)
    for pi in ctx.network.inputs:
        if pi not in read and pi not in ctx.network.outputs:
            yield ctx.diag(
                RULE_REGISTRY["TLS007"],
                f"primary input {pi!r} is never read",
                net=pi,
            )


@rule(
    "TLS008",
    "duplicate-fanin",
    Severity.ERROR,
    "structure",
    "A gate listing the same signal twice double-counts its weight.",
)
def check_duplicate_fanins(ctx: LintContext) -> Iterator[Diagnostic]:
    for gate in ctx.gates:
        seen: set[str] = set()
        for fanin in gate.inputs:
            if fanin in seen:
                yield ctx.diag(
                    RULE_REGISTRY["TLS008"],
                    f"gate {gate.name!r} lists fanin {fanin!r} twice",
                    gate=gate.name,
                    net=fanin,
                    hint="merge the two connections into one input with the "
                    "summed weight",
                )
            seen.add(fanin)


# ----------------------------------------------------------------------
# Semantic rules (TLM1xx) — gate meaning, one gate at a time
# ----------------------------------------------------------------------
@rule(
    "TLM101",
    "margin-violation",
    Severity.ERROR,
    "semantic",
    "Every gate's recomputed worst-case ON/OFF margins must cover the "
    "delta_on/delta_off tolerances it was solved with (Eq. 1).",
)
def check_margins(ctx: LintContext) -> Iterator[Diagnostic]:
    """Recompute worst-case ON/OFF margins against the claimed tolerances.

    The Eq. (1) contract: every true input vector's weighted sum reaches
    ``T + delta_on`` and every false one stays at or below
    ``T - delta_off``.  The recompute goes through the gate's vector
    (``gate.margins()``) rather than assuming the single-threshold
    ``sum(w·x) >= T`` form — multi-threshold gates measure against the
    *nearest enclosing* thresholds.  Enumeration is ``2**fanin`` points,
    so gates wider than ``max_enumeration_fanin`` are skipped (they cannot
    come out of the synthesizer, whose ψ is small).
    """
    spec = RULE_REGISTRY["TLM101"]
    for gate in ctx.gates:
        if gate.fanin > ctx.options.max_enumeration_fanin:
            continue
        on_margin, off_margin = gate.margins()
        if on_margin is not None and on_margin < gate.delta_on:
            yield ctx.diag(
                spec,
                f"gate {gate.name!r} claims delta_on={gate.delta_on} but its "
                f"tightest ON vector clears T by only {on_margin}",
                gate=gate.name,
                hint="re-solve the gate's ILP with the claimed tolerances or "
                "lower the recorded delta_on",
            )
        if off_margin is not None and off_margin < gate.delta_off:
            yield ctx.diag(
                spec,
                f"gate {gate.name!r} claims delta_off={gate.delta_off} but "
                f"its tightest OFF vector sits only {off_margin} below T",
                gate=gate.name,
                hint="re-solve the gate's ILP with the claimed tolerances or "
                "lower the recorded delta_off",
            )


@rule(
    "TLM102",
    "weight-sign-consistency",
    Severity.WARNING,
    "semantic",
    "Every weighted input must be able to change the gate's output: a "
    "zero weight, or a nonzero one the gate function does not depend on, "
    "is wasted area.  (A single-threshold gate's weight signs always "
    "match its unateness, so only dependence needs checking.)",
)
def check_weight_signs(ctx: LintContext) -> Iterator[Diagnostic]:
    """Flag gate inputs the gate function does not depend on.

    A zero weight is a dead input outright.  A nonzero weight is dead when
    the gate's packed truth table does not depend on the input
    (:func:`~repro.boolean.bitset.table_support`): no input point's sum
    crosses the threshold with it.  Signs need no check of their own:
    ``[sum(w·x) >= T]`` is monotone along ``sign(w_i)``, so an LTG is
    positive unate in each positive-weight input and negative unate in
    each negative one by construction.

    Only the zero-weight check applies to multi-threshold gates: crossing
    a higher threshold can turn the output back *off*, so their functions
    are legitimately binate in positive-weight inputs (that is the whole
    point of the backend — absorbing parity cones into one gate).
    """
    spec = RULE_REGISTRY["TLM102"]
    cap = ctx.options.max_enumeration_fanin
    for gate in ctx.gates:
        for name, weight in zip(gate.inputs, gate.weights):
            if weight == 0:
                yield ctx.diag(
                    spec,
                    f"gate {gate.name!r} input {name!r} has weight 0 "
                    f"(dead input)",
                    gate=gate.name,
                    hint="drop the input from the gate; the function "
                    "cannot depend on it",
                )
        if not (
            0 < gate.fanin <= cap
            and isinstance(gate.vector, WeightThresholdVector)
        ):
            continue
        support = bitset.table_support(gate.vector.table(), gate.fanin)
        for i, (name, weight) in enumerate(zip(gate.inputs, gate.weights)):
            if weight != 0 and not (support >> i) & 1:
                yield ctx.diag(
                    spec,
                    f"gate {gate.name!r} input {name!r} has weight {weight} "
                    f"but the gate function does not depend on it",
                    gate=gate.name,
                    hint="the weight is redundant area; re-solve the gate "
                    "without this input",
                )


@rule(
    "TLM103",
    "threshold-out-of-bounds",
    Severity.WARNING,
    "semantic",
    "The threshold must lie within the bounds implied by the weights "
    "(otherwise the bound box is empty and the gate is constant).",
)
def check_threshold_bounds(ctx: LintContext) -> Iterator[Diagnostic]:
    """The threshold must sit inside the bounds the weights imply.

    In the positive-unate form the reachable weighted sums span
    ``[0, sum(|w|)]``, so a meaningful gate needs
    ``1 <= T_pos <= sum(|w|)``; outside that box no reachable sum lies
    on the other side of the threshold, so the gate is constant.
    Zero-fanin gates are exempt: the synthesizer legitimately emits them
    for constant nodes.

    Multi-threshold gates have no positive-unate normal form; for them
    the equivalent check is that at least one threshold is *crossable* —
    it lies strictly above the minimum reachable sum and at or below the
    maximum.  If none is, the output never changes and the gate is
    constant.
    """
    spec = RULE_REGISTRY["TLM103"]
    for gate in ctx.gates:
        if gate.fanin == 0:
            continue
        if isinstance(gate.vector, MultiThresholdVector):
            lo = sum(w for w in gate.weights if w < 0)
            hi = sum(w for w in gate.weights if w > 0)
            if not any(lo < t <= hi for t in gate.vector.thresholds):
                yield ctx.diag(
                    spec,
                    f"gate {gate.name!r}: no threshold in "
                    f"{gate.vector.thresholds} lies within the reachable "
                    f"sum range ({lo}, {hi}]: the gate is constant",
                    gate=gate.name,
                    hint="replace the gate with a constant gate and drop "
                    "the uncrossable thresholds",
                )
            continue
        t_pos = gate.vector.to_positive_threshold()
        weight_sum = sum(abs(w) for w in gate.weights)
        if t_pos <= 0:
            yield ctx.diag(
                spec,
                f"gate {gate.name!r} threshold {gate.threshold} is at or "
                f"below the minimum reachable sum: the gate is constant 1",
                gate=gate.name,
                hint="replace the gate with a constant-1 gate (no inputs, "
                "T=0)",
            )
        elif t_pos > weight_sum:
            yield ctx.diag(
                spec,
                f"gate {gate.name!r} threshold {gate.threshold} exceeds the "
                f"maximum reachable sum {weight_sum}: the gate is constant 0",
                gate=gate.name,
                hint="replace the gate with a constant-0 gate (no inputs, "
                "T>0)",
            )


@rule(
    "TLM104",
    "implausible-tolerances",
    Severity.NOTE,
    "semantic",
    "Recorded defect tolerances must be plausible (non-negative; a "
    "delta_off of 0 is vacuous for integer weights).",
)
def check_delta_sanity(ctx: LintContext) -> Iterator[Diagnostic]:
    spec = RULE_REGISTRY["TLM104"]
    for gate in ctx.gates:
        if gate.delta_on < 0 or gate.delta_off < 0:
            yield ctx.diag(
                spec,
                f"gate {gate.name!r} records negative defect tolerances "
                f"(delta_on={gate.delta_on}, delta_off={gate.delta_off})",
                gate=gate.name,
            )
        elif gate.fanin > 0 and gate.delta_off == 0:
            yield ctx.diag(
                spec,
                f"gate {gate.name!r} claims delta_off=0, which tolerates no "
                f"OFF-side perturbation at all",
                gate=gate.name,
                hint="integer weighted sums always sit >= 1 below T when "
                "off; record delta_off=1 for an honest margin",
            )


@rule(
    "TLM105",
    "functional-mismatch",
    Severity.ERROR,
    "semantic",
    "The synthesized network must agree with its source Boolean network "
    "on every primary output (bit-parallel core/verify simulation; the "
    "counterexample is the first disagreeing packed vector).",
    needs_source=True,
)
def check_functional_equivalence(ctx: LintContext) -> Iterator[Diagnostic]:
    if ctx.source is None:
        return
    from repro.core.verify import (
        first_mismatch,
        interface_differences,
        verify_threshold_network,
    )

    interface = interface_differences(ctx.source, ctx.network)
    if interface:
        # No input vector can witness this: the two do not even read and
        # drive the same signals.
        yield ctx.diag(
            RULE_REGISTRY["TLM105"],
            f"network {ctx.network.name!r} and its source differ in "
            f"interface: {'; '.join(interface)}",
            hint="synthesize from this source, or lint against the "
            "source the network was synthesized from",
        )
        return
    if verify_threshold_network(ctx.source, ctx.network):
        return
    witness = first_mismatch(ctx.source, ctx.network)
    detail = ""
    if witness is not None:
        bits = ", ".join(
            f"{k}={int(v)}" for k, v in sorted(witness.items())
        )
        detail = f" (counterexample: {bits})"
    yield ctx.diag(
        RULE_REGISTRY["TLM105"],
        f"network {ctx.network.name!r} disagrees with its source on at "
        f"least one input vector{detail}",
        hint="one of the structural or per-gate semantic findings above "
        "usually pinpoints the broken cone",
    )


@rule(
    "TLM106",
    "flash-grid-violation",
    Severity.ERROR,
    "semantic",
    "Under the flash gate model, every weight magnitude must lie on the "
    "device's programmable grid and every margin must cover the "
    "drift-derived floor; only runs when the lint options name the flash "
    "model.",
)
def check_flash_grid(ctx: LintContext) -> Iterator[Diagnostic]:
    """Flash calibration audit: weights on the device grid, δ over drift.

    A flash-calibrated network only programs weight magnitudes the device
    exposes (``|w| <= levels``), and must hold margins at least the
    drift-derived floor ``ceil(drift * max|w|)`` — otherwise threshold
    drift over the retention window can flip the gate.  Multi-threshold
    vectors cannot be programmed on a single-threshold flash cell at all.
    """
    if ctx.options.gate_model != "flash":
        return
    from repro.gates import get_model

    model = get_model("flash")
    spec = RULE_REGISTRY["TLM106"]
    for gate in ctx.gates:
        if gate.fanin == 0:
            continue
        if not isinstance(gate.vector, WeightThresholdVector):
            yield ctx.diag(
                spec,
                f"gate {gate.name!r} is a multi-threshold gate, which a "
                f"single-threshold flash cell cannot realize",
                gate=gate.name,
                hint="re-synthesize the network with --gate-model flash",
            )
            continue
        off_grid = [
            (name, w)
            for name, w in zip(gate.inputs, gate.weights)
            if abs(w) > model.levels
        ]
        for name, weight in off_grid:
            yield ctx.diag(
                spec,
                f"gate {gate.name!r} input {name!r} weight {weight} is off "
                f"the device grid (|w| > {model.levels} programmable levels)",
                gate=gate.name,
                hint="re-solve the gate with the flash model's weight box",
            )
        if off_grid or gate.fanin > ctx.options.max_enumeration_fanin:
            continue
        required = model.required_margin(gate.weights)
        if required == 0:
            continue
        on_margin, off_margin = gate.margins()
        for side, margin in (("ON", on_margin), ("OFF", off_margin)):
            if margin is not None and margin < required:
                yield ctx.diag(
                    spec,
                    f"gate {gate.name!r} {side} margin {margin} is below the "
                    f"drift floor {required} "
                    f"(ceil({model.drift} * max|w|))",
                    gate=gate.name,
                    hint="re-solve with larger tolerances or smaller "
                    "weights; the flash backend's re-quantization loop "
                    "does this automatically",
                )


# ----------------------------------------------------------------------
# Analysis rules (TLA3xx) — findings of the whole-network dataflow
# analyses (repro.analysis).  They only fire under LintOptions.analysis
# (the fixpoint plus packed verification is far heavier than the
# structural rules) and share one cached AnalysisResult per run.
# ----------------------------------------------------------------------
def _network_analysis(ctx: LintContext) -> AnalysisResult | None:
    """The run's shared AnalysisResult, or None when analysis is off."""
    if not ctx.options.analysis:
        return None
    if ctx._analysis is None:
        from repro.analysis import AnalysisOptions, analyze_threshold_network

        ctx._analysis = analyze_threshold_network(
            ctx.network,
            AnalysisOptions(
                gate_model=ctx.options.gate_model,
                max_enumeration_fanin=ctx.options.max_enumeration_fanin,
            ),
        )
    return ctx._analysis


@rule(
    "TLA301",
    "interval-constant-gate",
    Severity.WARNING,
    "analysis",
    "Interval analysis proves the gate's weighted-sum range never crosses "
    "a threshold: the gate (and any output it drives) is constant, so its "
    "logic cone is wasted area.",
)
def check_interval_constants(ctx: LintContext) -> Iterator[Diagnostic]:
    analysis = _network_analysis(ctx)
    if analysis is None:
        return
    spec = RULE_REGISTRY["TLA301"]
    for name, value in sorted(analysis.interval.constant_gates.items()):
        if ctx.network.gate(name).fanin == 0:
            continue  # deliberate constant emitted by the synthesizer
        yield ctx.diag(
            spec,
            f"gate {name!r} is provably constant {value} "
            f"(sum interval {analysis.interval.sums[name]})",
            gate=name,
            hint="run `tels analyze --apply` to remove the constant cone",
        )
    for out, value in sorted(analysis.interval.stuck_outputs.items()):
        yield ctx.diag(
            spec,
            f"primary output {out!r} is stuck at {value}",
            net=out,
        )


@rule(
    "TLA302",
    "redundant-fanin",
    Severity.WARNING,
    "analysis",
    "Don't-care analysis found a gate input whose removal (weight dropped, "
    "threshold unchanged) provably preserves every primary output; each "
    "finding is re-verified by a packed equivalence check before being "
    "reported.",
)
def check_redundant_fanins(ctx: LintContext) -> Iterator[Diagnostic]:
    analysis = _network_analysis(ctx)
    if analysis is None:
        return
    spec = RULE_REGISTRY["TLA302"]
    for finding in analysis.findings:
        if finding.kind != "redundant-fanin":
            continue
        if finding.verified:
            yield ctx.diag(
                spec,
                finding.message + " (verified by packed equivalence)",
                gate=finding.gate,
                net=finding.fanin,
                hint="run `tels analyze --apply` to drop the connection",
            )
        else:
            yield ctx.diag(
                spec,
                "unverified removal candidate: " + finding.message,
                gate=finding.gate,
                net=finding.fanin,
                hint="the equivalence check could not confirm the "
                "don't-care filter; do NOT apply this suggestion",
            )


@rule(
    "TLA303",
    "unobservable-gate",
    Severity.WARNING,
    "analysis",
    "Observability analysis proves no primary output ever notices the "
    "gate's value, even though it is structurally connected; verified by "
    "packed equivalence before being reported.",
)
def check_unobservable_gates(ctx: LintContext) -> Iterator[Diagnostic]:
    analysis = _network_analysis(ctx)
    if analysis is None:
        return
    spec = RULE_REGISTRY["TLA303"]
    for finding in analysis.findings:
        if finding.kind != "unobservable-gate":
            continue
        message = finding.message
        if not finding.verified:
            message = "unverified removal candidate: " + message
        yield ctx.diag(
            spec,
            message
            + (" (verified by packed equivalence)" if finding.verified else ""),
            gate=finding.gate,
        )


@rule(
    "TLA304",
    "margin-slack-deficit",
    Severity.NOTE,
    "analysis",
    "The robustness certificate's network-wide margin slack is negative: "
    "at least one gate sits below its required tolerance floor, so the "
    "gate model's assumed device drift can flip an output.  Zero slack "
    "(tolerances met exactly) is normal for tight synthesis and does not "
    "fire this rule.",
)
def check_margin_slack(ctx: LintContext) -> Iterator[Diagnostic]:
    analysis = _network_analysis(ctx)
    if analysis is None:
        return
    cert = analysis.certificate
    if cert.min_slack is None or cert.min_slack >= 0:
        return
    bound = cert.perturbation_bound
    yield ctx.diag(
        RULE_REGISTRY["TLA304"],
        f"network margin slack is {cert.min_slack} at gate "
        f"{cert.weakest_gate!r} (provable per-weight perturbation bound "
        f"{bound:.4f})",
        gate=cert.weakest_gate,
        hint="re-synthesize with larger delta_on/delta_off to buy margin",
    )


# ----------------------------------------------------------------------
# Parse rules (TLP2xx) — catalog entries for diagnostics the CLI builds
# from structured parse errors; they have no network-level check to run.
# ----------------------------------------------------------------------
@rule(
    "TLP201",
    "parse-error",
    Severity.ERROR,
    "parse",
    "The .thblif file is malformed (bad directive, weight count, or "
    "truncated framing); reported with the offending line number.",
)
def check_parse(ctx: LintContext) -> Iterator[Diagnostic]:
    return iter(())


def parse_diagnostic(
    message: str, file: str | None, line: int | None
) -> Diagnostic:
    """Wrap a structured ``BlifError`` as a TLP201 diagnostic."""
    spec = RULE_REGISTRY["TLP201"]
    return Diagnostic(
        rule_id=spec.rule_id,
        severity=spec.severity,
        message=message,
        category=spec.category,
        file=file,
        line=line,
        hint="fix the file by hand or re-export it with write_thblif()",
    )
