"""Engine instrumentation: structured per-task events and run traces.

Every cone task reports one :class:`TaskMetrics` record: wall time split
into the three passes of the Fig. 3 flow (collapse / check / split), the
node, gate and split counters, and the cone's own
:class:`~repro.core.identify.CheckStats` and
:class:`~repro.engine.store.StoreStats`, which its checker counted into
directly.  The scheduler registers each finished cone's record in an
:class:`EngineTrace` and folds its two counter records into the run's
``checker.stats`` and ``store.stats`` once, the same way on every
backend; a failed attempt's record is never registered.  The report
counters, the CLI summary, the ``phase`` events and the daemon's result
payload are all read from these records.  Fine-grained :class:`TaskEvent`
rows (one per pass per task) are derived on demand for structured
consumers.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.core.identify import CheckStats
from repro.engine.store import StoreStats

if TYPE_CHECKING:
    from repro.engine.resilience import DegradedCone


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
    #: This cone's threshold checks and store lookups, counted as they ran.
    check_stats: CheckStats = field(default_factory=CheckStats)
    store_stats: StoreStats = field(default_factory=StoreStats)
    #: Executor submissions this cone consumed (retries inflate this).
    attempts: int = 1
    #: True when the cone fell back to the one-to-one mapping.
    degraded: bool = False

    def counting(self, checker, deadline=None):
        """``checker`` for this cone: same settings and store, counting its
        checks and store lookups into this record."""
        return replace(
            checker,
            stats=self.check_stats,
            store_stats=self.store_stats,
            deadline=deadline,
        )

    def events(self) -> Iterator[TaskEvent]:
        """Expand this record into structured per-phase events."""
        check, store = self.check_stats, self.store_stats
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
                "calls": check.calls,
                "cache_hits": check.cache_hits,
                "multithreshold_hits": check.multithreshold_hits,
                "flash_requantized": check.flash_requantized,
                "ilp_solved": check.ilp_solved,
                "constraints": check.constraints_emitted,
                "fastpath_hits": check.fastpath_hits,
                "fastpath_negatives": check.fastpath_negatives,
                "fastpath_misses": check.fastpath_misses,
                "exact_solves": check.exact_solves,
                "scipy_solves": check.scipy_solves,
                "persistent_hits": store.persistent_hits,
                "persistent_misses": store.persistent_misses,
                "transformed_hits": store.transformed_hits,
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

    #: Gate-model backend the run synthesized for (``repro.gates``).
    gate_model: str
    tasks: list[TaskMetrics] = field(default_factory=list)
    jobs: int = 1
    backend: str = "serial"
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
    degraded: "list[DegradedCone]" = field(default_factory=list)

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

    def folded(self) -> tuple[CheckStats, StoreStats]:
        """The check and store records of every registered cone, summed."""
        check, store = CheckStats(), StoreStats()
        for metrics in self.tasks:
            check.add(metrics.check_stats)
            store.add(metrics.store_stats)
        return check, store

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
        check, _store = self.folded()
        if check.multithreshold_hits or check.flash_requantized:
            lines.append(
                f"gate model: "
                f"{check.multithreshold_hits} multi-threshold "
                f"absorptions, {check.flash_requantized} flash "
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
