"""The paper's contribution: threshold gates, identification, and TELS.

* :mod:`repro.core.threshold` — linear threshold gates and networks;
* :mod:`repro.core.identify` — ILP-based threshold-function identification
  (Fig. 6 of the paper);
* :mod:`repro.core.theorems` — Theorems 1 and 2 as executable operations;
* :mod:`repro.core.collapse` — node collapsing (Fig. 4);
* :mod:`repro.core.splitting` — unate and binate node splitting (Figs. 7, 8);
* :mod:`repro.core.synthesis` — the recursive TELS synthesis flow (Fig. 3);
* :mod:`repro.core.mapping` — the one-to-one mapping baseline;
* :mod:`repro.core.area` — gate count / level / RTD-area metrics (Eq. 14);
* :mod:`repro.core.defects` — parametric weight-variation Monte Carlo
  (Figs. 11, 12);
* :mod:`repro.core.verify` — functional validation of synthesized networks.
"""

from repro.core.threshold import ThresholdGate, ThresholdNetwork, WeightThresholdVector
from repro.core.identify import ThresholdChecker, is_threshold_function
from repro.core.synthesis import SynthesisOptions, synthesize
from repro.core.mapping import one_to_one_map
from repro.core.area import network_stats, NetworkStats
from repro.core.verify import verify_threshold_network
from repro.core.analysis import NetworkAnalysis, analyze_network

__all__ = [
    "ThresholdGate",
    "ThresholdNetwork",
    "WeightThresholdVector",
    "ThresholdChecker",
    "is_threshold_function",
    "SynthesisOptions",
    "synthesize",
    "one_to_one_map",
    "network_stats",
    "NetworkStats",
    "verify_threshold_network",
    "NetworkAnalysis",
    "analyze_network",
]
