"""Regenerate the lint diagnostics golden (``golden_diagnostics.json``).

Run from the repo root::

    PYTHONPATH=src python tests/lint/make_golden.py

The golden pins every diagnostic — rule, severity, gate, net, message —
that lint reports in two places:

* ``fixtures``: :func:`run_lint` over hand-built networks that trip (or
  narrowly miss) each rule, under several :class:`LintOptions`;
* ``engine``: the engine post-pass (``SynthesisReport.lint``) over a few
  large-corpus circuits under each gate model.

Regenerate only when a rule's findings change on purpose;
``tests/lint/test_golden.py`` fails on any drift.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.benchgen.mcnc import build_corpus_circuit
from repro.core.synthesis import SynthesisOptions, synthesize_with_report
from repro.core.threshold import (
    MultiThresholdVector,
    ThresholdGate,
    ThresholdNetwork,
    WeightThresholdVector,
)
from repro.lint.diagnostics import LintOptions, LintReport
from repro.lint.runner import run_lint
from repro.network.scripts import prepare_tels

GOLDEN_PATH = Path(__file__).with_name("golden_diagnostics.json")

#: Gate spec: (name, inputs, weights, threshold or thresholds, δon, δoff).
#: A tuple of thresholds builds a multi-threshold gate.
FIXTURES: dict[str, tuple[tuple[str, ...], tuple[str, ...], tuple]] = {
    "clean_and": (("a", "b"), ("y",), (("y", "ab", (1, 1), 2, 0, 1),)),
    "stale_delta_on": (("a", "b"), ("y",), (("y", "ab", (1, 1), 2, 2, 1),)),
    "stale_delta_off": (("a", "b"), ("y",), (("y", "ab", (1, 1), 2, 0, 3),)),
    "psi_overflow_and_stale": (
        ("a", "b", "c", "d"),
        ("wide", "stale"),
        (
            ("wide", "abcd", (1, 1, 1, 1), 4, 0, 1),
            ("stale", "ab", (1, 1), 2, 2, 1),
        ),
    ),
    "honest_margins": (("a", "b"), ("y",), (("y", "ab", (2, 2), 4, 0, 2),)),
    "zero_weight": (("a", "b"), ("y",), (("y", "ab", (1, 0), 1, 0, 1),)),
    "dead_inputs": (("a", "b"), ("y",), (("y", "ab", (2, 1), 4, 0, 1),)),
    "constant_one": (("a",), ("y",), (("y", "a", (1,), 0, 0, 1),)),
    "negative_weight": (("a",), ("y",), (("y", "a", (-1,), 0, 0, 1),)),
    "mixed_signs": (
        ("a", "b", "c"),
        ("y",),
        (("y", "abc", (2, -1, 1), 2, 0, 1),),
    ),
    "vacuous_delta_off": (("a", "b"), ("y",), (("y", "ab", (1, 1), 2, 0, 0),)),
    "negative_delta": (("a", "b"), ("y",), (("y", "ab", (1, 1), 2, -1, 1),)),
    "constant_gate": ((), ("y",), (("y", "", (), 0, 0, 1),)),
    "wide_18_stale": (
        tuple(f"x{i}" for i in range(18)),
        ("w",),
        (("w", tuple(f"x{i}" for i in range(18)), (1,) * 18, 18, 5, 1),),
    ),
    "flash_off_grid": (("a",), ("y",), (("y", "a", (9,), 5, 0, 1),)),
    "flash_signed_off": (("a", "b"), ("y",), (("y", "ab", (2, 2), 3, 0, 1),)),
    "mt_xor": (("a", "b"), ("y",), (("y", "ab", (1, 1), (1, 2), 0, 1),)),
    "mt_unreachable": (("a", "b"), ("y",), (("y", "ab", (1, 1), (5, 6), 0, 0),)),
    "structural": (
        ("a", "b", "c"),
        ("y", "z", "u"),
        (
            ("y", ("a", "g2"), (1, 1), 2, 0, 1),
            ("g2", "y", (1,), 1, 0, 1),
            ("z", ("a", "ghost"), (1, 1), 2, 0, 1),
            ("dead", "ab", (1, 1), 2, 0, 1),
            ("dup", "ab", (1, 1), 2, 0, 1),
        ),
    ),
}

#: LintOptions keyword sets every fixture runs under.
OPTION_SETS: dict[str, dict] = {
    "default": {},
    "psi3": {"psi": 3},
    "flash": {"psi": 3, "gate_model": "flash"},
    "multi-threshold": {"gate_model": "multi-threshold"},
    "semantic-only": {"psi": 3, "rules": ("TLM",)},
    "enumeration-cap-1": {"max_enumeration_fanin": 1},
}

#: (corpus circuit, ψ) pairs the engine post-pass runs over.
ENGINE_CIRCUITS: tuple[tuple[str, int], ...] = (
    ("corpus_r03", 3),
    ("corpus_r11", 3),
    ("corpus_s0", 5),
    ("corpus_s2", 5),
)
GATE_MODELS = ("ltg", "multi-threshold", "flash")


def build_fixture(name: str) -> ThresholdNetwork:
    inputs, outputs, gates = FIXTURES[name]
    net = ThresholdNetwork(name)
    for pi in inputs:
        net.add_input(pi)
    for po in outputs:
        net.add_output(po)
    for gate_name, fanins, weights, threshold, delta_on, delta_off in gates:
        vector = (
            MultiThresholdVector(weights, threshold)
            if isinstance(threshold, tuple)
            else WeightThresholdVector(weights, threshold)
        )
        net.add_gate(
            ThresholdGate(gate_name, tuple(fanins), vector, delta_on, delta_off)
        )
    return net


def rows(report: LintReport) -> list[list]:
    """The golden's shape of a report: one row per diagnostic, in order."""
    return [
        [d.rule_id, d.severity.value, d.gate, d.net, d.message]
        for d in report.diagnostics
    ]


def fixture_rows() -> dict[str, list[list]]:
    return {
        f"{fixture}/{label}": rows(
            run_lint(build_fixture(fixture), LintOptions(**kwargs))
        )
        for fixture in FIXTURES
        for label, kwargs in OPTION_SETS.items()
    }


def engine_rows(jobs: int = 1) -> dict[str, list[list]]:
    golden: dict[str, list[list]] = {}
    for circuit, psi in ENGINE_CIRCUITS:
        source = prepare_tels(build_corpus_circuit(circuit))
        for model in GATE_MODELS:
            _net, report = synthesize_with_report(
                source,
                SynthesisOptions(psi=psi, seed=0, gate_model=model),
                jobs=jobs,
            )
            golden[f"{circuit}/psi{psi}/{model}"] = rows(report.lint)
    return golden


def main() -> None:
    golden = {"fixtures": fixture_rows(), "engine": engine_rows()}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    for section, cases in golden.items():
        found = sum(len(r) for r in cases.values())
        print(f"{section}: {len(cases)} cases, {found} diagnostics")


if __name__ == "__main__":
    main()
