"""The analysis driver: run all three passes and package the results.

:func:`analyze_threshold_network` is the one entry point the CLI, lint
bridge, synthesis engine, serve daemon, and benchmark harness all share:
interval analysis → don't-care analysis → redundancy candidates →
per-candidate packed verification → robustness certificate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.analysis.certificate import RobustnessCertificate, build_certificate
from repro.analysis.dontcare import DontCareResult, dontcare_analysis
from repro.analysis.interval import IntervalResult, interval_analysis
from repro.analysis.redundancy import (
    RemovalFinding,
    find_candidates,
    verify_removals,
)
from repro.core.threshold import ThresholdNetwork


@dataclass(frozen=True)
class AnalysisOptions:
    """Knobs of one analysis run."""

    gate_model: str = "ltg"
    #: Enumeration ceiling (fanin) for per-gate margin certificates.
    max_enumeration_fanin: int = 16
    #: Random vectors for equivalence checks past the exhaustive limit.
    vectors: int = 4096
    seed: int = 0
    #: Equivalence-check every removal candidate before reporting it.
    verify: bool = True


@dataclass
class AnalysisResult:
    """Everything one analysis run proved about one network."""

    network: str
    gate_model: str
    interval: IntervalResult
    dontcare: DontCareResult
    certificate: RobustnessCertificate
    findings: list[RemovalFinding] = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def verified_findings(self) -> list[RemovalFinding]:
        return [f for f in self.findings if f.verified]

    @property
    def unverified_findings(self) -> list[RemovalFinding]:
        return [f for f in self.findings if not f.verified]

    def to_dict(self) -> dict:
        return {
            "network": self.network,
            "gate_model": self.gate_model,
            "certificate": self.certificate.to_dict(),
            "findings": [f.to_dict() for f in self.findings],
            "verified_findings": len(self.verified_findings),
            "unverified_findings": len(self.unverified_findings),
            "dontcare_exact": self.dontcare.exact,
            "fixpoint": {
                "signals": self.interval.stats.signals,
                "visits": self.interval.stats.visits,
                "updates": self.interval.stats.updates,
            },
            "wall_s": round(self.wall_s, 6),
        }


def analyze_threshold_network(
    network: ThresholdNetwork,
    options: AnalysisOptions | None = None,
) -> AnalysisResult:
    """Run interval, don't-care, and redundancy analysis over ``network``."""
    opts = options or AnalysisOptions()
    start = time.perf_counter()
    ivl = interval_analysis(network)
    dc = dontcare_analysis(network, interval=ivl)
    candidates = find_candidates(network, ivl, dc)
    if opts.verify:
        candidates = verify_removals(
            network, candidates, vectors=opts.vectors, seed=opts.seed
        )
    cert = build_certificate(
        network,
        gate_model=opts.gate_model,
        constant_gates=ivl.constant_gates,
        stuck_outputs=ivl.stuck_outputs,
        max_enumeration_fanin=opts.max_enumeration_fanin,
    )
    return AnalysisResult(
        network=network.name,
        gate_model=opts.gate_model,
        interval=ivl,
        dontcare=dc,
        certificate=cert,
        findings=candidates,
        wall_s=time.perf_counter() - start,
    )


def format_analysis_report(result: AnalysisResult) -> str:
    """Human-readable analysis summary (the ``tels analyze`` text body)."""
    cert = result.certificate
    lines = [
        f"analysis of {result.network} (gate model {result.gate_model})",
        f"  fixpoint: {result.interval.stats.signals} signals, "
        f"{result.interval.stats.visits} visits, "
        f"{result.interval.stats.updates} updates",
        f"  don't-cares: {'exact' if result.dontcare.exact else 'interval-abstracted'}"
        + (
            f" over {result.dontcare.width} vectors"
            if result.dontcare.exact
            else ""
        ),
    ]
    slack = cert.min_slack
    lines.append(
        "  certificate: "
        + (
            f"min slack {slack} (weakest gate {cert.weakest_gate}), "
            if slack is not None
            else "no enumerable gates, "
        )
        + (
            "meets tolerances"
            if cert.meets_tolerances
            else "VIOLATES tolerances"
        )
        + ("" if cert.complete else f", {len(cert.skipped)} gate(s) skipped")
    )
    bound = cert.perturbation_bound
    if bound != float("inf"):
        lines.append(f"  perturbation bound: {bound:.4f} per weight")
    for out, value in cert.stuck_outputs:
        lines.append(f"  stuck output: {out} = {value}")
    if result.findings:
        lines.append(
            f"  removal candidates: {len(result.findings)} "
            f"({len(result.verified_findings)} verified)"
        )
        for f in result.findings:
            status = "verified" if f.verified else "UNVERIFIED"
            lines.append(f"    [{status}] {f.message}")
    else:
        lines.append("  removal candidates: none")
    return "\n".join(lines)
