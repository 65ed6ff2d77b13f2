"""The work-queue scheduler driving the pass-based synthesis engine.

``run_synthesis`` plans one task per primary-output cone, dispatches ready
tasks to the executor backend, and turns every newly *discovered* root (a
preserved or collapse-blocked node some finished cone's gates read) into a
new task exactly once.  When the queue drains, the per-task gate lists are
merged into one :class:`ThresholdNetwork` by a deterministic DFS over the
task graph — primary outputs in declaration order, then each task's
discovered roots in discovery order — so the executor's completion order
(and hence the jobs count) never changes the emitted network.

The scheduler is also where the resilience policy is applied (see
docs/RESILIENCE.md).  Executors report structured
:class:`~repro.engine.resilience.TaskFailure` records alongside results;
the policy response is: crashes requeue with backoff until the quarantine
threshold, transient errors retry up to ``max_attempts``, deadline
expiries degrade immediately, and evicted tasks requeue for free.  A
degraded cone is realized with the paper's one-to-one mapping
(:func:`~repro.engine.resilience.fallback_cone_gates`), so
``run_synthesis`` always returns a complete, simulation-equivalent,
lint-clean network — unless ``strict_synthesis`` turns degradation into a
:class:`~repro.errors.SynthesisError`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.identify import ThresholdChecker
from repro.core.threshold import ThresholdNetwork
from repro.engine.events import EngineTrace, TaskMetrics
from repro.engine.executor import make_executor, resolve_jobs
from repro.engine.resilience import (
    Deadline,
    DegradedCone,
    TaskFailure,
    fallback_cone_gates,
)
from repro.engine.store import ResultStore
from repro.engine.tasks import (
    SynthTask,
    TaskResult,
    plan_initial_tasks,
    preserved_set,
)
from repro.errors import SynthesisCancelled, SynthesisError
from repro.faults.injector import get_injector
from repro.faults.retry import RetryPolicy
from repro.network.network import BooleanNetwork


@dataclass
class EngineResult:
    """A finished engine run: the network plus everything we measured."""

    network: ThresholdNetwork
    report: "SynthesisReport"  # repro.core.synthesis.SynthesisReport
    trace: EngineTrace
    store: ResultStore


def run_synthesis(
    network: BooleanNetwork,
    options=None,
    jobs: int = 1,
    store: ResultStore | None = None,
    cache_dir: str | None = None,
    on_event=None,
    cancel=None,
    distribute: str | None = None,
) -> EngineResult:
    """Synthesize ``network`` with the pass-based engine.

    Args:
        network: a prepared (ideally algebraically-factored) Boolean network.
        options: :class:`repro.core.synthesis.SynthesisOptions`.
        jobs: worker processes; 1 runs inline, 0/None uses every core.
        store: a shared :class:`ResultStore` to read and extend — pass the
            same store across sweep points to re-solve only what changed.
        cache_dir: directory of the persistent NP-canonical cache; ignored
            when ``store`` is given (attach the cache to the store instead).
            New solves are flushed back to disk when the run completes.
        on_event: optional callable receiving structured progress events as
            plain dicts — one ``{"event": "phase", ...}`` per pass of every
            finished cone (from :meth:`TaskMetrics.events`), a
            ``"task-done"`` row with completion counts per cone, and a
            ``"task-degraded"`` marker per fallback.  A listener exception
            disables further delivery but never fails the run; the daemon
            (``repro.serve``) taps this for live job streaming.
        cancel: optional cooperative cancellation flag (anything with an
            ``is_set()`` method, e.g. :class:`threading.Event`).  The flag
            is checked between cones; when observed set the executor is
            closed — in-flight cones are cancelled, pool workers reaped —
            and :class:`~repro.errors.SynthesisCancelled` is raised.
        distribute: URL of a ``tels serve`` daemon; cones are farmed to
            ``tels worker`` processes through its work broker instead of
            a local pool (see :mod:`repro.engine.remote`).  On total
            worker loss the run degrades to a local executor sized by
            ``jobs`` and still completes with identical output.
    """
    from repro.core.synthesis import SynthesisOptions, SynthesisReport

    started = time.perf_counter()
    options = options or SynthesisOptions()
    jobs = resolve_jobs(jobs)
    if store is None:
        store = (
            ResultStore.with_cache_dir(cache_dir)
            if cache_dir is not None
            else ResultStore()
        )
    checker = ThresholdChecker.from_options(options, store=store)
    preserved = preserved_set(network, options.preserve_sharing)
    initial = plan_initial_tasks(network)
    retry = RetryPolicy(
        max_attempts=options.max_attempts,
        base_backoff_s=options.retry_backoff_s,
        seed=options.seed,
    )
    total_deadline = Deadline.after(options.deadline_total_s)
    # Validate TELS_CHAOS up front: a malformed spec must fail the run
    # loudly, not lie dormant until (or unless) an injection site fires.
    get_injector()

    executor = make_executor(
        jobs, network, options, preserved, store, checker,
        distribute=distribute,
    )
    trace = EngineTrace(
        jobs=jobs, backend=executor.backend_name, gate_model=options.gate_model
    )
    tasks: dict[str, SynthTask] = {}
    results: dict[str, TaskResult] = {}
    crashes: dict[str, int] = {}
    listener = on_event

    def _emit(payload: dict) -> None:
        nonlocal listener
        if listener is None:
            return
        try:
            listener(payload)
        except Exception:
            listener = None  # a broken listener must never fail the run

    def _register(result: TaskResult, submit_new: bool = True) -> None:
        results[result.task_id] = result
        metrics = result.metrics
        trace.add(metrics)
        # The run's one fold: every registered cone's records, once, on
        # every backend.  A failed attempt is never registered.
        checker.stats.add(metrics.check_stats)
        store.fold_stats(metrics.store_stats)
        for event in metrics.events():
            _emit(
                {
                    "event": "phase",
                    "task_id": event.task_id,
                    "phase": event.phase,
                    "seconds": round(event.seconds, 6),
                    "detail": event.detail,
                }
            )
        _emit(
            {
                "event": "task-done",
                "task_id": result.task_id,
                "gates": metrics.gates_emitted,
                "degraded": metrics.degraded,
                "completed": len(results),
                "scheduled": len(tasks),
            }
        )
        if result.store_delta is not None:
            store.merge(result.store_delta)
        for root in result.discovered:
            if root not in tasks:
                task = SynthTask.for_root(root, requested_by=result.task_id)
                tasks[task.task_id] = task
                if submit_new:
                    executor.submit(task)

    def _degrade(
        task_id: str,
        reason: str,
        attempts: int,
        detail: str = "",
        submit_new: bool = True,
    ) -> None:
        """Resolve a failed cone with the one-to-one fallback mapping."""
        if options.strict_synthesis:
            raise SynthesisError(
                f"cone {task_id!r} failed ({reason}"
                + (f": {detail}" if detail else "")
                + ") and strict synthesis forbids degradation"
            )
        metrics = TaskMetrics(task_id, attempts=attempts, degraded=True)
        gates, discovered = fallback_cone_gates(
            network,
            tasks[task_id].root,
            preserved,
            options,
            checker=metrics.counting(checker),
        )
        metrics.gates_emitted = len(gates)
        trace.degraded.append(DegradedCone(task_id, reason))
        _emit({"event": "task-degraded", "task_id": task_id, "reason": reason})
        _register(
            TaskResult(task_id, gates, discovered, metrics),
            submit_new=submit_new,
        )

    def _handle_failure(failure: TaskFailure) -> None:
        task_id = failure.task_id
        if task_id in results:
            return  # resolved while the failure was in flight
        if failure.kind == "evicted":
            # Innocent bystander of a pool teardown: requeue, no penalty.
            trace.requeues += 1
            executor.submit(tasks[task_id], failure.attempt)
        elif failure.kind == "crash":
            crashes[task_id] = crashes.get(task_id, 0) + 1
            if crashes[task_id] >= options.poison_crashes:
                trace.quarantined.append(task_id)
                _degrade(
                    task_id, "quarantined", failure.attempt, failure.message
                )
            else:
                trace.requeues += 1
                time.sleep(
                    retry.backoff_s(failure.attempt, key=task_id)
                )
                executor.submit(tasks[task_id], failure.attempt + 1)
        elif failure.kind == "timeout":
            _degrade(task_id, "deadline", failure.attempt, failure.message)
        else:  # "error": transient, retry with backoff until exhausted
            if failure.attempt >= options.max_attempts:
                _degrade(
                    task_id,
                    "retry-exhausted",
                    failure.attempt,
                    failure.message,
                )
            else:
                trace.retries += 1
                time.sleep(
                    retry.backoff_s(failure.attempt, key=task_id)
                )
                executor.submit(tasks[task_id], failure.attempt + 1)

    try:
        for task in initial:
            tasks[task.task_id] = task
            executor.submit(task)
        while len(results) < len(tasks):
            if cancel is not None and cancel.is_set():
                # Cooperative cancellation: observed only between cones, so
                # the executor teardown in the ``finally`` below reaps every
                # pool worker and nothing is left running detached.
                raise SynthesisCancelled(
                    f"cancelled with {len(tasks) - len(results)} of "
                    f"{len(tasks)} cones unfinished"
                )
            if total_deadline is not None and total_deadline.expired:
                # Whole-run budget exhausted: every unfinished cone —
                # including roots the fallbacks themselves discover —
                # degrades to the one-to-one mapping.
                while len(results) < len(tasks):
                    for task_id in list(tasks):
                        if task_id not in results:
                            _degrade(
                                task_id,
                                "total-deadline",
                                1,
                                submit_new=False,
                            )
                break
            wave, failures = executor.wait()
            for result in wave:
                if result.task_id not in results:
                    _register(result)
            for failure in failures:
                _handle_failure(failure)
    except SynthesisCancelled:
        # A cancelled run still banks its work: everything solved so far
        # goes to the persistent tier for the next submission to reuse.
        store.flush_persistent()
        raise
    finally:
        executor.close()
    trace.pool_rebuilds = getattr(executor, "rebuilds", 0)
    trace.watchdog_kills = getattr(executor, "watchdog_kills", 0)
    trace.lease_expirations = getattr(executor, "lease_expirations", 0)
    trace.remote_workers = getattr(executor, "remote_workers", 0)
    trace.remote_fallback_tasks = getattr(executor, "fallback_tasks", 0)
    trace.remote_fallback_reason = getattr(executor, "fallback_reason", None)
    store.flush_persistent()

    result_net = _assemble(network, initial, results)
    report = SynthesisReport(checker=checker, trace=trace)
    if options.lint:
        # The run's one lint pass, over the assembled network after
        # cleanup(): structural and gate-local rules alike, on exactly the
        # gates the run emits, whichever executor produced them.  No
        # source is attached, so TLM105 is skipped here; callers check
        # equivalence with verify_threshold_network.
        from repro.lint.diagnostics import LintOptions
        from repro.lint.runner import run_lint

        lint_report = run_lint(
            result_net,
            LintOptions(psi=options.psi, gate_model=options.gate_model),
        )
        report.lint = lint_report
        trace.network_lint_violations = lint_report.violations
        trace.network_lint_s = lint_report.wall_s
    if options.analyze:
        # Whole-network dataflow post-pass: interval/don't-care fixpoints,
        # verified removal candidates, and the robustness certificate.
        from repro.analysis import AnalysisOptions, analyze_threshold_network

        analysis = analyze_threshold_network(
            result_net, AnalysisOptions(gate_model=options.gate_model)
        )
        report.analysis = analysis
        trace.network_analysis_s = analysis.wall_s
        trace.analysis_removals = len(analysis.verified_findings)
        trace.analysis_min_slack = analysis.certificate.min_slack
    trace.wall_s = time.perf_counter() - started
    return EngineResult(
        network=result_net, report=report, trace=trace, store=store
    )


def _assemble(
    network: BooleanNetwork,
    initial: list[SynthTask],
    results: dict[str, TaskResult],
) -> ThresholdNetwork:
    """Merge per-task gates into one network, in canonical task order."""
    result_net = ThresholdNetwork(network.name + "_th")
    for pi in network.inputs:
        result_net.add_input(pi)
    for out in network.outputs:
        result_net.add_output(out)
    visited: set[str] = set()
    stack = [task.task_id for task in reversed(initial)]
    while stack:
        task_id = stack.pop()
        if task_id in visited:
            continue
        visited.add(task_id)
        result = results.get(task_id)
        if result is None:
            raise SynthesisError(f"task {task_id!r} was never completed")
        for gate in result.gates:
            result_net.add_gate(gate)
        stack.extend(reversed(result.discovered))
    result_net.cleanup()
    result_net.check()
    return result_net
