"""The remote executor: cone dispatch over a daemon's work broker.

:class:`RemoteExecutor` is the third backend behind the scheduler's
``submit/wait/close`` surface (next to :class:`~repro.engine.executor.
SerialExecutor` and :class:`~repro.engine.executor.ProcessExecutor`).  It
opens one work session on a ``tels serve`` daemon, ships the prepared
network + options + store seed once as an opaque payload, enqueues each
wave of cone tasks in one request, and long-polls the session outbox,
translating worker blobs back into
:class:`~repro.engine.tasks.TaskResult` rows and broker failure rows into
:class:`~repro.engine.resilience.TaskFailure` records.  Every collect
acknowledges the outbox rows already processed (their highest ``seq``),
so a collect reply lost in flight is simply returned again.  The scheduler
cannot tell it apart from the process pool — deliberately, because all the
retry/backoff/quarantine/degrade policy already lives there (PR 5) and an
expired lease arrives as exactly the ``"crash"`` failure a broken pool
process would produce.

Graceful degradation, in increasing severity:

* **a worker dies** — its leases expire, the cones come back as crash
  failures, the scheduler requeues them, surviving workers pick them up;
* **every worker dies** — after ``worker_wait_s`` with zero live workers
  and no progress, the executor builds a local fallback executor
  (process pool or serial, matching ``jobs``), withdraws every unclaimed
  task from the broker, and reroutes new submissions locally; cones still
  leased to dead workers drain back through lease expiry;
* **the daemon itself goes away** — every outstanding cone is reported as
  an ``"evicted"`` failure (a free requeue) and the run completes on the
  local fallback alone.

The run's output is byte-identical in every case: cones are deterministic
in (task_id, options, network), and assembly order is fixed by the task
graph, not by who solved what when.
"""

from __future__ import annotations

import pickle
import time

from repro.engine.resilience import TaskFailure
from repro.engine.tasks import SynthTask, TaskResult
from repro.errors import SynthesisError
from repro.serve.broker import MAX_WAIT_S, WorkClient, decode_blob
from repro.serve.transport import (
    HttpStatusError,
    HttpTransport,
    TransportError,
)

#: Zero live workers for this long (with work outstanding and no progress)
#: triggers the local fallback.  Module-level so tests can shrink it.
DEFAULT_WORKER_WAIT_S = 10.0


class RemoteExecutor:
    """Farm cones to ``tels worker`` processes through a serve daemon."""

    backend_name = "remote"

    def __init__(
        self,
        url: str,
        network,
        options,
        preserved: frozenset[str],
        store,
        checker,
        policy=None,
        jobs: int = 1,
        worker_wait_s: float | None = None,
    ):
        self._url = url
        self._network = network
        self._options = options
        self._preserved = preserved
        self._store = store
        self._checker = checker
        self._policy = policy
        self._jobs = max(1, jobs)
        self._worker_wait_s = worker_wait_s
        self._client: WorkClient | None = None
        self._session_id: str | None = None
        #: task_id -> (task, attempt) still owed by the remote side.
        self._remote: dict[str, tuple[SynthTask, int]] = {}
        #: Submissions of the current wave, enqueued together by wait().
        self._unsent: list[tuple[SynthTask, int]] = []
        #: Highest outbox seq processed; sent as the next collect's ack.
        self._acked = 0
        self._fallback = None
        self._fallback_pending = 0
        self._use_local = False
        self._last_progress = time.monotonic()
        # Counters the scheduler lifts into the trace via getattr().
        self.lease_expirations = 0
        self.remote_workers = 0
        self.fallback_tasks = 0
        self.fallback_reason: str | None = None
        self.remote_results = 0
        try:
            self._client = WorkClient(HttpTransport(url))
            payload = pickle.dumps(
                {
                    "network": network,
                    "options": options,
                    "preserved": preserved,
                    "store_seed": store.export(),
                }
            )
            created = self._client.create_session(
                payload, meta={"kind": "synthesis", "name": network.name}
            )
            self._session_id = created["session"]
        except (TransportError, HttpStatusError) as exc:
            self._switch_to_local(f"daemon unreachable at startup: {exc}")

    # -- fallback management -------------------------------------------
    def _switch_to_local(self, reason: str) -> None:
        """Route all future submissions to a local executor."""
        if self._use_local:
            return
        from repro.engine.executor import make_executor

        self._use_local = True
        self.fallback_reason = reason
        self._fallback = make_executor(
            self._jobs,
            self._network,
            self._options,
            self._preserved,
            self._store,
            self._checker,
            self._policy,
        )

    def _reroute_unclaimed(self) -> None:
        """Pull unclaimed cones off the broker and run them locally."""
        if self._client is None or self._session_id is None:
            return
        try:
            withdrawn = self._client.withdraw(self._session_id)["tasks"]
        except (TransportError, HttpStatusError):
            return  # the cones stay remote; lease/collect paths resolve them
        for row in withdrawn:
            task_id = str(row["task_id"])
            entry = self._remote.pop(task_id, None)
            task = (
                entry[0]
                if entry is not None
                else SynthTask(task_id=task_id, root=str(row["root"]))
            )
            self._submit_local(task, int(row.get("attempt", 1)))

    def _abandon_remote(self, reason: str) -> list[TaskFailure]:
        """Daemon gone: evict every outstanding cone (a free requeue)."""
        self._switch_to_local(reason)
        failures = [
            TaskFailure(
                task_id,
                "evicted",
                f"remote session abandoned: {reason}",
                attempt,
            )
            for task_id, (_task, attempt) in self._remote.items()
        ]
        self._remote.clear()
        return failures

    def _submit_local(self, task: SynthTask, attempt: int) -> None:
        self._fallback.submit(task, attempt)
        self._fallback_pending += 1
        self.fallback_tasks += 1

    # -- executor surface ----------------------------------------------
    def submit(self, task: SynthTask, attempt: int = 1) -> None:
        if self._use_local:
            self._submit_local(task, attempt)
        else:
            self._unsent.append((task, attempt))

    def _enqueue_wave(self) -> None:
        """Send every buffered submission in one ``enqueue`` request."""
        wave, self._unsent = self._unsent, []
        if not wave:
            return
        rows = [
            {"task_id": task.task_id, "root": task.root, "attempt": attempt}
            for task, attempt in wave
        ]
        try:
            self._client.enqueue(self._session_id, rows)
        except (TransportError, HttpStatusError) as exc:
            self._switch_to_local(f"daemon unreachable: {exc}")
            for task, attempt in wave:
                self._submit_local(task, attempt)
            return
        for task, attempt in wave:
            self._remote[task.task_id] = (task, attempt)

    def _unacked(self, rows: list[dict]) -> list[dict]:
        """Rows not processed yet (a replayed reply repeats older ones)."""
        return [row for row in rows if int(row["seq"]) > self._acked]

    def _translate(
        self, payload: dict
    ) -> tuple[list[TaskResult], list[TaskFailure]]:
        result_rows = self._unacked(payload.get("results", []))
        failure_rows = self._unacked(payload.get("failures", []))
        self._acked = max(
            (int(row["seq"]) for row in result_rows + failure_rows),
            default=self._acked,
        )
        results: list[TaskResult] = []
        failures: list[TaskFailure] = []
        for row in result_rows:
            result: TaskResult = decode_blob(row["blob"])
            self._remote.pop(result.task_id, None)
            self.remote_results += 1
            results.append(result)
        for row in failure_rows:
            task_id = str(row["task_id"])
            kind = str(row.get("kind", "error"))
            message = str(row.get("message", ""))
            if row.get("expired"):
                self.lease_expirations += 1
            if kind == "fatal":
                # Deterministic synthesis bugs propagate, exactly as a
                # SynthesisError escaping a pool worker would.
                raise SynthesisError(message)
            self._remote.pop(task_id, None)
            failures.append(
                TaskFailure(
                    task_id, kind, message, int(row.get("attempt", 1))
                )
            )
        return results, failures

    def wait(self) -> tuple[list[TaskResult], list[TaskFailure]]:
        self._enqueue_wave()
        while True:
            if self._fallback is not None and self._fallback_pending > 0:
                results, failures = self._fallback.wait()
                self._fallback_pending -= len(results) + len(failures)
                if results or failures:
                    return results, failures
            if self._remote:
                # Long-poll, unless local results are waiting to be run.
                local_pending = self._fallback_pending > 0
                try:
                    payload = self._client.collect(
                        self._session_id,
                        ack=self._acked,
                        wait_s=0.0 if local_pending else MAX_WAIT_S,
                    )
                except (TransportError, HttpStatusError) as exc:
                    return [], self._abandon_remote(
                        f"daemon unreachable: {exc}"
                    )
                self.remote_workers = max(
                    self.remote_workers, int(payload.get("workers", 0))
                )
                results, failures = self._translate(payload)
                if results or failures:
                    self._last_progress = time.monotonic()
                    return results, failures
                wait_s = (
                    self._worker_wait_s
                    if self._worker_wait_s is not None
                    else DEFAULT_WORKER_WAIT_S
                )
                if (
                    not self._use_local
                    and payload.get("workers", 0) == 0
                    and time.monotonic() - self._last_progress > wait_s
                ):
                    # Total worker loss: finish the run locally.  Cones
                    # still leased to dead workers drain back through
                    # lease expiry on subsequent collect calls.
                    self._switch_to_local(
                        f"no live workers for {wait_s:.1f}s"
                    )
                    self._reroute_unclaimed()
                continue
            if self._fallback is not None and self._fallback_pending > 0:
                continue
            return [], []

    def close(self) -> None:
        self._unsent.clear()
        if self._fallback is not None:
            self._fallback.close()
        if self._client is not None and self._session_id is not None:
            try:
                self._client.close(self._session_id)
            except (TransportError, HttpStatusError):
                pass
        self._remote.clear()
