"""Engine instrumentation: structured per-task events and run traces.

Every cone task reports a :class:`TaskMetrics` record — wall time split into
the three passes of the Fig. 3 flow (collapse / check / split), the node and
gate counters, and the checker activity it caused.  The scheduler folds the
records into an :class:`EngineTrace`, which the CLI summary, the extended
suite, and ``experiments/report.py`` consume.  Fine-grained
:class:`TaskEvent` rows (one per pass per task) are derived on demand for
structured consumers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from collections.abc import Iterator


@dataclass(frozen=True)
class TaskEvent:
    """One structured event: a task spent ``seconds`` in ``phase``."""

    task_id: str
    phase: str
    seconds: float
    detail: dict = field(default_factory=dict)


@dataclass
class TaskMetrics:
    """Aggregated instrumentation for one cone task."""

    task_id: str
    wall_s: float = 0.0
    collapse_s: float = 0.0
    check_s: float = 0.0
    split_s: float = 0.0
    nodes_processed: int = 0
    gates_emitted: int = 0
    binate_splits: int = 0
    unate_splits: int = 0
    kway_splits: int = 0
    and_factor_splits: int = 0
    theorem2_applications: int = 0
    checker_calls: int = 0
    checker_cache_hits: int = 0
    multithreshold_hits: int = 0
    flash_requantized: int = 0
    ilp_solved: int = 0
    constraints_emitted: int = 0
    fastpath_hits: int = 0
    fastpath_negatives: int = 0
    fastpath_misses: int = 0
    exact_solves: int = 0
    scipy_solves: int = 0
    persistent_hits: int = 0
    persistent_misses: int = 0
    transformed_hits: int = 0
    solver_timeouts: int = 0
    #: Executor submissions this cone consumed (retries inflate this).
    attempts: int = 1
    #: True when the cone fell back to the one-to-one mapping.
    degraded: bool = False

    def events(self) -> Iterator[TaskEvent]:
        """Expand this record into structured per-phase events."""
        yield TaskEvent(
            self.task_id,
            "collapse",
            self.collapse_s,
            {"nodes": self.nodes_processed},
        )
        yield TaskEvent(
            self.task_id,
            "check",
            self.check_s,
            {
                "calls": self.checker_calls,
                "cache_hits": self.checker_cache_hits,
                "multithreshold_hits": self.multithreshold_hits,
                "flash_requantized": self.flash_requantized,
                "ilp_solved": self.ilp_solved,
                "constraints": self.constraints_emitted,
                "fastpath_hits": self.fastpath_hits,
                "fastpath_negatives": self.fastpath_negatives,
                "fastpath_misses": self.fastpath_misses,
                "exact_solves": self.exact_solves,
                "scipy_solves": self.scipy_solves,
                "persistent_hits": self.persistent_hits,
                "persistent_misses": self.persistent_misses,
                "transformed_hits": self.transformed_hits,
            },
        )
        yield TaskEvent(
            self.task_id,
            "split",
            self.split_s,
            {
                "binate": self.binate_splits,
                "unate": self.unate_splits,
                "kway": self.kway_splits,
                "and_factor": self.and_factor_splits,
                "theorem2": self.theorem2_applications,
            },
        )
        yield TaskEvent(
            self.task_id,
            "done",
            self.wall_s,
            {
                "gates": self.gates_emitted,
                "attempts": self.attempts,
                "degraded": self.degraded,
            },
        )


class _Timer:
    """Context manager adding elapsed seconds to a metrics attribute."""

    __slots__ = ("metrics", "attr", "_t0")

    def __init__(self, metrics: TaskMetrics, attr: str):
        self.metrics = metrics
        self.attr = attr

    def __enter__(self) -> "_Timer":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        elapsed = time.perf_counter() - self._t0
        setattr(
            self.metrics, self.attr, getattr(self.metrics, self.attr) + elapsed
        )


def timed(metrics: TaskMetrics, attr: str) -> _Timer:
    """``with timed(metrics, "collapse_s"): ...`` accumulates wall time."""
    return _Timer(metrics, attr)


@dataclass
class EngineTrace:
    """All task metrics of one engine run, plus run-level aggregates."""

    tasks: list[TaskMetrics] = field(default_factory=list)
    jobs: int = 1
    backend: str = "serial"
    #: Gate-model backend the run synthesized for (``repro.gates``).
    gate_model: str = "ltg"
    wall_s: float = 0.0
    #: Findings of the whole-network lint post-pass (None: lint was off).
    network_lint_violations: int | None = None
    network_lint_s: float = 0.0
    #: Whole-network analysis post-pass (None: analysis was off).
    network_analysis_s: float = 0.0
    analysis_removals: int | None = None
    analysis_min_slack: int | None = None
    #: Resilience telemetry (see docs/RESILIENCE.md).
    retries: int = 0
    requeues: int = 0
    pool_rebuilds: int = 0
    watchdog_kills: int = 0
    #: Distributed-run telemetry (``remote`` backend; see remote.py).
    lease_expirations: int = 0
    remote_workers: int = 0
    remote_fallback_tasks: int = 0
    remote_fallback_reason: str | None = None
    #: Task ids quarantined as poison after repeated worker crashes.
    quarantined: list[str] = field(default_factory=list)
    #: ``(task_id, reason)`` per cone that fell back to one-to-one mapping.
    degraded: list[tuple[str, str]] = field(default_factory=list)

    def add(self, metrics: TaskMetrics) -> None:
        self.tasks.append(metrics)

    def events(self) -> Iterator[TaskEvent]:
        for metrics in self.tasks:
            yield from metrics.events()

    @property
    def num_tasks(self) -> int:
        return len(self.tasks)

    def total(self, attr: str) -> float:
        return sum(getattr(m, attr) for m in self.tasks)

    def slowest(self, n: int = 3) -> list[TaskMetrics]:
        return sorted(self.tasks, key=lambda m: -m.wall_s)[:n]

    def summary_lines(self) -> list[str]:
        """Human-readable run summary for the CLI."""
        lines = [
            f"engine: {self.num_tasks} tasks, backend={self.backend} "
            f"jobs={self.jobs}, gate model {self.gate_model}, "
            f"wall {self.wall_s:.3f}s "
            f"(task time {self.total('wall_s'):.3f}s)",
            f"passes: collapse {self.total('collapse_s'):.3f}s  "
            f"check {self.total('check_s'):.3f}s  "
            f"split {self.total('split_s'):.3f}s",
        ]
        if self.total("multithreshold_hits") or self.total("flash_requantized"):
            lines.append(
                f"gate model: "
                f"{int(self.total('multithreshold_hits'))} multi-threshold "
                f"absorptions, {int(self.total('flash_requantized'))} flash "
                f"re-quantizations"
            )
        if (
            self.degraded
            or self.retries
            or self.requeues
            or self.pool_rebuilds
            or self.watchdog_kills
            or self.quarantined
            or self.lease_expirations
        ):
            cones = ", ".join(
                f"{task_id} ({reason})" for task_id, reason in self.degraded
            )
            lines.append(
                f"degraded: {len(self.degraded)} cones"
                + (f" [{cones}]" if cones else "")
                + f", {self.retries} retries, {self.requeues} requeues, "
                f"{self.pool_rebuilds} pool rebuilds, "
                f"{self.watchdog_kills} watchdog kills, "
                f"{len(self.quarantined)} quarantined"
            )
        if self.backend == "remote":
            line = (
                f"remote: {self.remote_workers} worker(s) seen, "
                f"{self.lease_expirations} expired leases, "
                f"{self.remote_fallback_tasks} cones ran on the local "
                f"fallback"
            )
            if self.remote_fallback_reason:
                line += f" ({self.remote_fallback_reason})"
            lines.append(line)
        if self.network_lint_violations is not None:
            lines.append(
                f"lint: {self.network_lint_violations} network violations "
                f"({self.network_lint_s:.3f}s)"
            )
        if self.analysis_removals is not None:
            slack = (
                str(self.analysis_min_slack)
                if self.analysis_min_slack is not None
                else "n/a"
            )
            lines.append(
                f"analysis: {self.analysis_removals} verified removal "
                f"candidate(s), min margin slack {slack} "
                f"({self.network_analysis_s:.3f}s)"
            )
        slow = [m for m in self.slowest(3) if m.wall_s > 0]
        if slow:
            tasks = ", ".join(f"{m.task_id} {m.wall_s:.3f}s" for m in slow)
            lines.append(f"slowest tasks: {tasks}")
        return lines

    def format_summary(self) -> str:
        return "\n".join(self.summary_lines())
