"""Whole-network dataflow analysis over threshold DAGs.

Three analyses:

* weighted-sum intervals (:mod:`repro.analysis.interval`) — proven
  constant gates, stuck outputs, activation bounds;
* observability/controllability don't-cares
  (:mod:`repro.analysis.dontcare`) — exact on the packed substrate for
  small-support networks, interval-abstracted beyond it;
* verified redundancy removal (:mod:`repro.analysis.redundancy`) — every
  candidate re-checked by packed equivalence before it is reported.

:func:`analyze_threshold_network` runs all three and rolls the margin
accounting into a :class:`RobustnessCertificate`.
"""

from repro.analysis.certificate import (
    GateCertificate,
    RobustnessCertificate,
    build_certificate,
)
from repro.analysis.domains import BoolInterval, SumInterval
from repro.analysis.dontcare import DontCareResult, dontcare_analysis
from repro.analysis.interval import (
    FixpointStats,
    IntervalResult,
    interval_analysis,
)
from repro.analysis.redundancy import (
    RemovalFinding,
    apply_removals,
    find_candidates,
    rebuild_with,
    threshold_to_boolean,
    verify_removals,
)
from repro.analysis.report import (
    AnalysisOptions,
    AnalysisResult,
    analyze_threshold_network,
    format_analysis_report,
)

__all__ = [
    "AnalysisOptions",
    "AnalysisResult",
    "BoolInterval",
    "DontCareResult",
    "FixpointStats",
    "GateCertificate",
    "IntervalResult",
    "RemovalFinding",
    "RobustnessCertificate",
    "SumInterval",
    "analyze_threshold_network",
    "apply_removals",
    "build_certificate",
    "dontcare_analysis",
    "find_candidates",
    "format_analysis_report",
    "interval_analysis",
    "rebuild_with",
    "threshold_to_boolean",
    "verify_removals",
]
