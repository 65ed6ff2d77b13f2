"""TELS reproduction: threshold logic network synthesis (DATE 2004).

A from-scratch Python reproduction of *Synthesis and Optimization of
Threshold Logic Networks with Application to Nanotechnologies* (Zhang,
Gupta, Zhong, Jha; DATE 2004) — the TELS tool — together with every
substrate it needs: a two-level Boolean engine, a multi-level network
optimizer standing in for SIS, BLIF/PLA I/O, an exact ILP solver standing in
for LP_SOLVE, benchmark generators standing in for the MCNC suite, and the
experiment harnesses that regenerate every table and figure of the paper.

Quickstart::

    from repro import (
        read_blif, prepare_tels, synthesize, SynthesisOptions,
        verify_threshold_network,
    )

    network = read_blif("circuit.blif")
    prepared = prepare_tels(network)
    threshold_net = synthesize(prepared, SynthesisOptions(psi=3))
    assert verify_threshold_network(network, threshold_net)
    for gate in threshold_net.gates():
        print(gate.name, gate.inputs, gate.vector)
"""

from repro.boolean import BooleanFunction, Cover, Cube
from repro.errors import (
    BlifError,
    CoverError,
    IlpError,
    NetworkError,
    PlaError,
    ReproError,
    SynthesisError,
)

# Nothing imported here needs numpy: the Boolean substrate packs its tables
# into Python ints, and synthesis (every gate model, the exact ILP backend,
# verification) runs on it.  numpy and scipy serve the HiGHS backend, used
# when importable, and the defect Monte Carlo of Figs. 11 and 12.
from repro.core import (
    NetworkStats,
    SynthesisOptions,
    ThresholdChecker,
    ThresholdGate,
    ThresholdNetwork,
    WeightThresholdVector,
    is_threshold_function,
    network_stats,
    one_to_one_map,
    synthesize,
    verify_threshold_network,
)
from repro.core.synthesis import synthesize_with_report
from repro.io import parse_blif, read_blif, write_blif
from repro.network import BooleanNetwork, script_algebraic, script_boolean
from repro.network.scripts import prepare_one_to_one, prepare_tels
from repro.benchgen import build_benchmark, benchmark_names

__version__ = "1.0.0"

__all__ = [
    "BooleanFunction",
    "Cover",
    "Cube",
    "BooleanNetwork",
    "ThresholdGate",
    "ThresholdNetwork",
    "WeightThresholdVector",
    "ThresholdChecker",
    "is_threshold_function",
    "SynthesisOptions",
    "synthesize",
    "synthesize_with_report",
    "one_to_one_map",
    "network_stats",
    "NetworkStats",
    "verify_threshold_network",
    "script_algebraic",
    "script_boolean",
    "prepare_one_to_one",
    "prepare_tels",
    "parse_blif",
    "read_blif",
    "write_blif",
    "build_benchmark",
    "benchmark_names",
    "ReproError",
    "BlifError",
    "PlaError",
    "NetworkError",
    "CoverError",
    "IlpError",
    "SynthesisError",
    "__version__",
]
