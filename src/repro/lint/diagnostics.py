"""Diagnostic records and lint reports.

A :class:`Diagnostic` is one finding of one rule: where (gate / signal /
file / line), what (rule id, severity, message), and — when the rule can
tell — how to fix it.  A :class:`LintReport` is the ordered collection a
lint run produced, with the severity roll-ups and the shared exit-code
convention (0 clean / 1 violations / 2 usage or parse error) every consumer
uses: the CLI, the engine post-pass, and the experiment gates.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Severity(enum.Enum):
    """Diagnostic severities, ordered from informational to fatal."""

    NOTE = "note"
    WARNING = "warning"
    ERROR = "error"

    @property
    def rank(self) -> int:
        return _SEVERITY_RANK[self]


_SEVERITY_RANK = {Severity.NOTE: 0, Severity.WARNING: 1, Severity.ERROR: 2}

#: Exit codes shared by every ``tels`` subcommand (see README).
EXIT_CLEAN = 0
EXIT_VIOLATIONS = 1
EXIT_USAGE = 2


@dataclass(frozen=True)
class Diagnostic:
    """One finding: a rule fired at a location inside a network."""

    rule_id: str
    severity: Severity
    message: str
    category: str = "structure"
    gate: str | None = None
    net: str | None = None
    hint: str | None = None
    file: str | None = None
    line: int | None = None

    @property
    def location(self) -> str:
        """Human-readable location prefix (``file:line:gate`` as available)."""
        parts = []
        if self.file:
            parts.append(self.file)
        if self.line is not None:
            parts.append(str(self.line))
        where = self.gate or self.net
        if where:
            parts.append(where)
        return ":".join(parts) if parts else "<network>"

@dataclass
class LintReport:
    """Everything one lint run found, plus run metadata."""

    network_name: str
    diagnostics: tuple[Diagnostic, ...] = ()
    rules_run: tuple[str, ...] = ()
    gates_checked: int = 0
    wall_s: float = 0.0
    file: str | None = None
    files: tuple[str, ...] = ()

    def count(self, severity: Severity) -> int:
        return sum(1 for d in self.diagnostics if d.severity is severity)

    @property
    def errors(self) -> int:
        return self.count(Severity.ERROR)

    @property
    def warnings(self) -> int:
        return self.count(Severity.WARNING)

    @property
    def notes(self) -> int:
        return self.count(Severity.NOTE)

    @property
    def is_clean(self) -> bool:
        """No findings at all (the engine's post-pass invariant)."""
        return not self.diagnostics

    @property
    def violations(self) -> int:
        """Findings that gate a run: errors plus warnings (notes advise)."""
        return self.errors + self.warnings

    def by_rule(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for diag in self.diagnostics:
            counts[diag.rule_id] = counts.get(diag.rule_id, 0) + 1
        return counts

    def exit_code(self, strict: bool = False) -> int:
        """The CLI exit code: 1 on errors (or any finding under strict)."""
        if self.errors or (strict and self.diagnostics):
            return EXIT_VIOLATIONS
        return EXIT_CLEAN

    def extend(self, diagnostics: tuple[Diagnostic, ...]) -> None:
        self.diagnostics = self.diagnostics + tuple(diagnostics)

    def artifact_files(self) -> tuple[str, ...]:
        """Every source file this report covers, in first-seen order.

        Clean files stay listed (they produced a report, just no
        diagnostics), which is what SARIF ``run.artifacts`` wants.
        """
        seen: dict[str, None] = {}
        for uri in (*self.files, self.file):
            if uri:
                seen.setdefault(uri, None)
        for diag in self.diagnostics:
            if diag.file:
                seen.setdefault(diag.file, None)
        return tuple(seen)


def merge_reports(
    reports: list[LintReport], name: str = "<multiple>"
) -> LintReport:
    """Aggregate several per-file reports into one.

    Diagnostics keep their per-file coordinates (each run already stamps
    ``diag.file``), so SARIF ``artifactLocation``s stay per-file; the
    roll-up counters and wall time sum across the inputs.
    """
    if len(reports) == 1:
        return reports[0]
    merged = LintReport(network_name=name)
    merged.files = tuple(r.file for r in reports if r.file)
    rules: list[str] = []
    for report in reports:
        merged.extend(report.diagnostics)
        merged.gates_checked += report.gates_checked
        merged.wall_s += report.wall_s
        for rule_id in report.rules_run:
            if rule_id not in rules:
                rules.append(rule_id)
    merged.rules_run = tuple(sorted(rules))
    return merged


@dataclass
class LintOptions:
    """Knobs shared by the CLI, the engine post-pass, and the library API.

    Attributes:
        psi: fanin restriction to enforce (None skips the fanin rule — a
            ``.thblif`` file does not record the ψ it was synthesized with).
        rules: rule-id selection; each entry may be a full id (``TLS005``)
            or a prefix (``TLS`` selects every structural rule).  None runs
            every registered rule.
        strict: escalate the exit code on any finding, not just errors.
        max_enumeration_fanin: semantic rules enumerate ``2**fanin`` points
            per gate; gates wider than this are skipped.
        gate_model: the :mod:`repro.gates` backend the network was
            synthesized for.  Margin recomputation asks the model (not a
            hard-coded ``sum(w·x) >= T``), and the flash-grid rule TLM106
            only fires under ``"flash"``.
        gate_lines: per-gate source line numbers (from ``parse_thblif``)
            so diagnostics carry file coordinates.
        analysis: run the whole-network dataflow analyses so the TLA3xx
            rules can fire.  Off by default — the fixpoint plus packed
            verification is much heavier than the structural rules.
    """

    psi: int | None = None
    rules: tuple[str, ...] | None = None
    strict: bool = False
    max_enumeration_fanin: int = 16
    gate_model: str = "ltg"
    gate_lines: dict[str, int] = field(default_factory=dict)
    analysis: bool = False

    def selects(self, rule_id: str) -> bool:
        if self.rules is None:
            return True
        return any(rule_id == r or rule_id.startswith(r) for r in self.rules)
