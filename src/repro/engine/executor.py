"""The executor layer: serial and process-pool cone dispatch backends.

Both backends expose the same three-call surface the scheduler drives —
``submit(task, attempt)``, ``wait() -> (results, failures)``, ``close()`` —
and both produce byte-identical gates for the same prepared network and
options, because every cone runs under its own
``random.Random("{seed}:{task_id}")`` stream and reads only the immutable
source network.

Every backend runs a cone the same way, through a :class:`ConeRunner`
(deadline → :class:`~repro.engine.cone.ConeSynthesizer` → ``TaskResult``).
The process backend ships the source network, options, and a snapshot of
the shared result store to each worker once (pool initializer); workers keep
a long-lived runner whose store journals new entries, and every
:class:`TaskResult` carries the journal back for the scheduler to merge into
the master store.

Resilience semantics (see docs/RESILIENCE.md):

* A worker raising :class:`~repro.errors.DeadlineExceeded` or
  :class:`~repro.errors.TransientError` comes back as a
  :class:`~repro.engine.resilience.TaskFailure` (kinds ``"timeout"`` /
  ``"error"``) instead of poisoning the run; deterministic
  :class:`~repro.errors.SynthesisError` still propagates.
* A dead worker process breaks the whole pool
  (:class:`~concurrent.futures.process.BrokenProcessPool`), and the pool
  is rebuilt from the live store.  With one cone in flight, that cone
  caused the crash and is reported as a ``"crash"`` failure.  With
  several, none can be blamed: each comes back ``"evicted"`` (a free
  requeue at the same attempt) and becomes a *suspect*.  While a suspect
  is unresolved the executor runs one cone at a time, suspects first, and
  holds every other submission, so a cone that crashes again — chaos
  decisions are keyed on ``task:attempt``, like a deterministic fault —
  does so alone and is charged then.
* When a per-cone deadline is configured, a watchdog sweep kills the pool
  if a cone overruns its budget plus grace (a worker stuck in non-Python
  code never reaches the cooperative check): the overdue cones fail as
  ``"timeout"``, innocent in-flight cones as ``"evicted"`` (a free
  requeue).
"""

from __future__ import annotations

import contextlib
import os
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from repro.core.identify import ThresholdChecker
from repro.engine.cone import ConeSynthesizer
from repro.engine.resilience import Deadline, TaskFailure
from repro.engine.store import ResultStore, StoreDelta
from repro.engine.tasks import SynthTask, TaskResult
from repro.errors import DeadlineExceeded, InjectedCrash, TransientError
from repro.faults.injector import STALL_SECONDS, get_injector
from repro.network.network import BooleanNetwork

#: Poll interval for the watchdog sweep; only paid when a deadline is set.
_WATCHDOG_TICK_S = 0.2


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``--jobs`` request (None/0 → all cores)."""
    if jobs is None or jobs <= 0:
        return os.cpu_count() or 1
    return jobs


@dataclass
class ConeRunner:
    """Runs cones against one network: deadline → run → ``TaskResult``.

    The serial backend runs on the caller's checker and store; a pool or
    remote worker's runner (:meth:`for_worker`) owns a private journaling
    store and arms the chaos ``worker`` fault hook.
    """

    network: BooleanNetwork
    options: object  # repro.core.synthesis.SynthesisOptions
    preserved: frozenset[str]
    checker: ThresholdChecker
    chaos: bool = False

    @classmethod
    def for_worker(
        cls,
        network: BooleanNetwork,
        options,
        preserved: frozenset[str],
        store_seed: StoreDelta,
        persistent=None,
    ) -> "ConeRunner":
        store = ResultStore(persistent=persistent)
        store.merge(store_seed)
        store.begin_journal()
        return cls(
            network,
            options,
            preserved,
            ThresholdChecker.from_options(options, store=store),
            chaos=True,
        )

    def run(self, root: str, attempt: int = 1) -> TaskResult:
        hook = _worker_fault_hook(root, attempt) if self.chaos else None
        result = ConeSynthesizer(
            self.network,
            root,
            self.options,
            self.checker,
            self.preserved,
            deadline=Deadline.after(self.options.deadline_per_cone_s),
            fault_hook=hook,
        ).run()
        result.metrics.attempts = attempt
        return result


class SerialExecutor:
    """Run cones inline on the caller's checker settings and store."""

    backend_name = "serial"

    def __init__(
        self,
        network: BooleanNetwork,
        options,
        preserved: frozenset[str],
        checker: ThresholdChecker,
    ):
        self._runner = ConeRunner(network, options, preserved, checker)
        self._queue: list[tuple[SynthTask, int]] = []

    def submit(self, task: SynthTask, attempt: int = 1) -> None:
        self._queue.append((task, attempt))

    def wait(self) -> tuple[list[TaskResult], list[TaskFailure]]:
        task, attempt = self._queue.pop(0)
        try:
            return [self._runner.run(task.root, attempt)], []
        except DeadlineExceeded as exc:
            return [], [
                TaskFailure(task.task_id, "timeout", str(exc), attempt)
            ]
        except TransientError as exc:
            return [], [TaskFailure(task.task_id, "error", str(exc), attempt)]

    def close(self) -> None:
        self._queue.clear()


# ----------------------------------------------------------------------
# Process-pool backend.  Worker state lives in a module global, installed
# once per process by the pool initializer; tasks then travel as bare root
# names, keeping per-task IPC to a few hundred bytes each way.
# ----------------------------------------------------------------------
_WORKER: ConeRunner | None = None


def _worker_init(*args) -> None:
    global _WORKER
    # The persistent cache pickles as a read-only snapshot: workers get its
    # lookups but journal new solves through the StoreDelta path, which the
    # scheduler commits to disk on the parent side.
    _WORKER = ConeRunner.for_worker(*args)


def _worker_fault_hook(task_id: str, attempt: int):
    """The chaos hook for one cone run, or None.

    Decisions are keyed on ``task_id:attempt`` so a retried cone rolls the
    dice again — an injected crash is transient, exactly like the real
    fault it models.  ``worker`` dies mid-cone via ``os._exit`` when the
    cone runs on its process's main thread (a pool process or ``tels
    worker``: the pool sees a broken process, not an exception); on any
    other thread it raises :class:`~repro.errors.InjectedCrash`, which the
    worker loop reports as a ``"crash"`` failure.  ``stall`` sleeps
    through the cooperative deadline checks once, which is what the
    watchdog exists for.  Workers inherit ``TELS_CHAOS`` from the parent
    at spawn, so every process rebuilds the same injector and the same
    decisions.
    """
    injector = get_injector()
    if injector is None:
        return None
    key = f"{task_id}:{attempt}"
    if injector.decide("worker", key):

        def crash() -> None:
            if threading.current_thread() is threading.main_thread():
                os._exit(1)
            raise InjectedCrash(f"injected worker crash in cone {task_id!r}")

        return crash
    if injector.decide("stall", key):
        fired: list[bool] = []

        def stall() -> None:
            if not fired:
                fired.append(True)
                time.sleep(STALL_SECONDS)

        return stall
    return None


def _worker_run(root: str, attempt: int = 1) -> TaskResult:
    assert _WORKER is not None, "worker pool not initialized"
    return _WORKER.run(root, attempt)


class ProcessExecutor:
    """Dispatch cones across a process pool (one long-lived worker per job)."""

    backend_name = "process"

    def __init__(
        self,
        network: BooleanNetwork,
        options,
        preserved: frozenset[str],
        store: ResultStore,
        jobs: int,
    ):
        self._network = network
        self._options = options
        self._preserved = preserved
        self._store = store
        self._jobs = jobs
        #: future -> (task, attempt, monotonic submit time)
        self._inflight: dict[Future, tuple[SynthTask, int, float]] = {}
        #: submissions not yet handed to the pool, in submission order
        self._held: list[tuple[SynthTask, int]] = []
        #: cones in flight at a break they cannot be blamed for, until
        #: they end alone without being requeued
        self._suspects: set[str] = set()
        #: failures minted outside wait() (a submit hitting a broken pool);
        #: drained by the next wait() call.
        self._pending: list[TaskFailure] = []
        self.rebuilds = 0
        self.watchdog_kills = 0
        self._pool = self._make_pool()

    def _make_pool(self) -> ProcessPoolExecutor:
        # The store snapshot is re-exported on every (re)build, so a pool
        # recovering from a crash starts warm with everything the run has
        # already solved.
        return ProcessPoolExecutor(
            max_workers=self._jobs,
            initializer=_worker_init,
            initargs=(
                self._network,
                self._options,
                self._preserved,
                self._store.export(),
                self._store.persistent,
            ),
        )

    def submit(self, task: SynthTask, attempt: int = 1) -> None:
        self._held.append((task, attempt))
        if not self._suspects:
            self._release()

    def _release(self) -> None:
        """Hand held cones to the pool while fewer than ``jobs`` are in
        flight, or, while a suspect is unresolved, one at a time, held
        suspects before the rest.

        A pool break loses every cone handed to the pool, started or not,
        so the cap bounds what one break costs.  With suspects this runs
        only from wait(), after the caller has requeued every failure: a
        suspect neither held nor in flight then ended without a requeue,
        which resolves it.
        """
        while self._held and len(self._inflight) < (
            1 if self._suspects else self._jobs
        ):
            held = [task.task_id for task, _attempt in self._held]
            self._suspects.intersection_update(held)
            index = next(
                (i for i, t in enumerate(held) if t in self._suspects), 0
            )
            task, attempt = self._held[index]
            # A worker can die between wait() calls, breaking the pool
            # before wait() gets to observe it; submitting to a broken pool
            # raises synchronously.  Resolve the break like wait() does and
            # launch nothing more until its failures are handled.
            try:
                future = self._pool.submit(_worker_run, task.root, attempt)
            except BrokenProcessPool:
                self._pending.extend(self._blame([]))
                self._rebuild()
                return
            del self._held[index]
            self._inflight[future] = (task, attempt, time.monotonic())

    def wait(self) -> tuple[list[TaskResult], list[TaskFailure]]:
        if not self._pending:
            self._release()
        if self._pending:
            drained = self._pending
            self._pending = []
            return [], drained
        deadline_s = self._options.deadline_per_cone_s
        tick = _WATCHDOG_TICK_S if deadline_s is not None else None
        done, _pending = futures_wait(
            list(self._inflight), timeout=tick, return_when=FIRST_COMPLETED
        )
        results: list[TaskResult] = []
        failures: list[TaskFailure] = []
        broken: list[tuple[SynthTask, int]] = []
        for future in done:
            task, attempt, _started = self._inflight.pop(future)
            try:
                result = future.result()
            except BrokenProcessPool:
                broken.append((task, attempt))
            except DeadlineExceeded as exc:
                failures.append(
                    TaskFailure(task.task_id, "timeout", str(exc), attempt)
                )
            except TransientError as exc:
                failures.append(
                    TaskFailure(task.task_id, "error", str(exc), attempt)
                )
            else:
                results.append(result)
        if broken:
            failures.extend(self._blame(broken))
            self._rebuild()
        elif deadline_s is not None:
            failures.extend(self._reap_overdue(deadline_s))
        return results, failures

    def _blame(
        self, broken: list[tuple[SynthTask, int]]
    ) -> list[TaskFailure]:
        """Failures for the cones in flight when the pool broke.

        ``broken`` are the cones whose futures already raised; the rest of
        the in-flight table was lost with them.  A lone cone caused the
        crash; several are each evicted and become suspects.
        """
        lost = broken + [
            (task, attempt)
            for task, attempt, _started in self._inflight.values()
        ]
        self._inflight.clear()
        kind = "crash" if len(lost) == 1 else "evicted"
        if kind == "evicted":
            self._suspects.update(task.task_id for task, _attempt in lost)
        return [
            TaskFailure(
                task.task_id,
                kind,
                f"worker process died with {len(lost)} cones in flight",
                attempt,
            )
            for task, attempt in lost
        ]

    def _reap_overdue(self, deadline_s: float) -> list[TaskFailure]:
        """Kill the pool when a cone overruns deadline + grace.

        ProcessPoolExecutor cannot cancel a *running* call, so a worker
        wedged past the cooperative checks (a stall in non-Python code, or
        the chaos ``stall`` site) is only recoverable by terminating its
        process — which breaks the pool, so every in-flight cone is
        resolved here: overdue ones as ``"timeout"``, the rest as
        ``"evicted"`` (requeued for free by the scheduler).
        """
        if not self._inflight:
            return []
        limit = deadline_s + self._options.watchdog_grace_s
        now = time.monotonic()
        overdue = [
            future
            for future, (_task, _attempt, started) in self._inflight.items()
            if now - started > limit
        ]
        if not overdue:
            return []
        failures: list[TaskFailure] = []
        for future in overdue:
            task, attempt, started = self._inflight.pop(future)
            failures.append(
                TaskFailure(
                    task.task_id,
                    "timeout",
                    f"watchdog: cone exceeded {limit:.3f}s wall clock",
                    attempt,
                )
            )
        self.watchdog_kills += len(overdue)
        failures.extend(self._evict_all())
        self._kill_pool()
        self._rebuild()
        return failures

    def _evict_all(self) -> list[TaskFailure]:
        failures = [
            TaskFailure(task.task_id, "evicted", "pool torn down", attempt)
            for task, attempt, _started in self._inflight.values()
        ]
        self._inflight.clear()
        return failures

    def _kill_pool(self) -> None:
        # Deliberate use of the pool's process table: there is no public
        # API to terminate a running worker.
        processes = getattr(self._pool, "_processes", None) or {}
        for proc in list(processes.values()):
            with contextlib.suppress(Exception):
                proc.terminate()

    def _rebuild(self) -> None:
        with contextlib.suppress(Exception):
            self._pool.shutdown(wait=False, cancel_futures=True)
        self._pool = self._make_pool()
        self.rebuilds += 1

    def close(self) -> None:
        for future in self._inflight:
            future.cancel()
        self._pool.shutdown(wait=True, cancel_futures=True)
        self._inflight.clear()
        self._held.clear()


def make_executor(
    jobs: int,
    network: BooleanNetwork,
    options,
    preserved: frozenset[str],
    store: ResultStore,
    checker: ThresholdChecker,
    distribute: str | None = None,
):
    """The backend for a jobs count: inline below 2, process pool above.

    ``distribute`` (a ``tels serve`` URL) selects the remote backend
    instead; ``jobs`` then sizes the local fallback executor the remote
    backend degrades to when every worker is lost.
    """
    if distribute:
        # Imported lazily: remote.py pulls in the serve transport stack,
        # which local runs should never pay for (or depend on).
        from repro.engine.remote import RemoteExecutor

        return RemoteExecutor(
            distribute,
            network,
            options,
            preserved,
            store,
            checker,
            jobs=jobs,
        )
    if jobs <= 1:
        return SerialExecutor(network, options, preserved, checker)
    return ProcessExecutor(network, options, preserved, store, jobs)
