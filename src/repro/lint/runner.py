"""The lint library API, shared by every consumer.

``run_lint`` is the one entry point: the ``tels lint`` CLI (over parsed
``.thblif`` files), the engine's post-pass (over each freshly assembled
network, once per run), and the experiment harnesses (which fail fast on
an invalid network instead of producing a wrong table row).
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

from repro.core.threshold import ThresholdNetwork
from repro.lint.diagnostics import Diagnostic, LintOptions, LintReport
from repro.lint.rules import LintContext, LintRule, registered_rules

if TYPE_CHECKING:
    from repro.analysis.report import AnalysisResult
    from repro.network.network import BooleanNetwork

#: Severity order for the stable diagnostic sort (errors first).
_ORDER = {"error": 0, "warning": 1, "note": 2}


def select_rules(options: LintOptions) -> tuple[LintRule, ...]:
    """The registered rules the options select, in registry order."""
    return tuple(
        r for r in registered_rules() if options.selects(r.rule_id)
    )


def run_lint(
    network: ThresholdNetwork,
    options: LintOptions | None = None,
    source: BooleanNetwork | None = None,
    file: str | None = None,
    analysis: AnalysisResult | None = None,
) -> LintReport:
    """Run the selected rules over a threshold network.

    Args:
        network: the network to audit.
        options: rule selection, ψ, strictness, and location metadata.
        source: the source :class:`BooleanNetwork`, enabling the
            ``needs_source`` rules (functional equivalence); None skips
            them.
        file: path the network came from, stamped onto diagnostics.
        analysis: a precomputed
            :class:`~repro.analysis.report.AnalysisResult` for this
            network; seeds the TLA3xx rules' shared cache so callers that
            already ran the dataflow analyses (``tels analyze``) don't pay
            for them twice.
    """
    options = options or LintOptions()
    started = time.perf_counter()
    ctx = LintContext(
        network=network, options=options, source=source, file=file
    )
    ctx._analysis = analysis
    diagnostics: list[Diagnostic] = []
    ran: list[str] = []
    for spec in select_rules(options):
        if spec.needs_source and source is None:
            continue
        ran.append(spec.rule_id)
        diagnostics.extend(spec.check(ctx))
    diagnostics.sort(
        key=lambda d: (
            _ORDER[d.severity.value],
            d.rule_id,
            d.gate or "",
            d.net or "",
            d.message,
        )
    )
    return LintReport(
        network_name=network.name,
        diagnostics=tuple(diagnostics),
        rules_run=tuple(ran),
        gates_checked=network.num_gates,
        wall_s=time.perf_counter() - started,
        file=file,
    )

