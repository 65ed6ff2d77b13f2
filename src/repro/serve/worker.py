"""The ``tels worker`` loop: a remote cone-synthesis worker process.

A worker is the distributed twin of one process-pool worker
(:mod:`repro.engine.executor`): it claims leased task batches from the
daemon's work broker, rebuilds the session state exactly like the pool
initializer would (network + options + preserved set + store seed, one
long-lived checker), runs each cone through the same
:class:`~repro.engine.cone.ConeSynthesizer` with the same per-task RNG
stream and chaos hook, and posts each :class:`~repro.engine.tasks.TaskResult`
back as an opaque blob.  Because cones are deterministic functions of
(task_id, options, source network), it does not matter *which* worker — or
the local fallback pool — runs a cone: the assembled network is
byte-identical either way.

Two deliberate differences from a pool worker:

* the persistent tier is the daemon's **network cache**
  (:class:`~repro.cache.network.NetworkCacheClient`): a fresh solve is
  published immediately, so a second worker sees it mid-run, and every
  served entry is re-verified by the store before use;
* liveness is leased, not parented: a background heartbeat renews every
  held lease, and a worker that dies (SIGKILL included) simply goes
  silent — the broker expires its leases into ``"crash"`` failures and
  the scheduler's retry ladder takes over.

Results are posted per cone, not per batch, so a worker killed mid-batch
only forfeits the cones it had not finished.
"""

from __future__ import annotations

import logging
import os
import pickle
import threading
import uuid
from dataclasses import dataclass

from repro.cache.network import NetworkCacheClient
from repro.core.identify import ThresholdChecker
from repro.engine.cone import ConeSynthesizer
from repro.engine.executor import _worker_fault_hook
from repro.engine.resilience import Deadline, ResiliencePolicy
from repro.engine.store import ResultStore
from repro.engine.tasks import TaskResult
from repro.errors import (
    DeadlineExceeded,
    InjectedCrash,
    SynthesisError,
    TransientError,
)
from repro.serve.broker import DEFAULT_LEASE_S, WorkClient, encode_blob
from repro.serve.transport import (
    HttpStatusError,
    HttpTransport,
    TransportError,
)

logger = logging.getLogger("repro.serve.worker")


def make_worker_id() -> str:
    return f"w-{os.getpid()}-{uuid.uuid4().hex[:6]}"


@dataclass
class _SessionState:
    """Rebuilt per-session worker state (the pool initializer's globals)."""

    etag: str
    network: object
    options: object
    preserved: frozenset
    checker: ThresholdChecker
    store: ResultStore
    deadline_per_cone_s: float | None


class Worker:
    """One claim/run/post loop against a daemon's work broker."""

    def __init__(
        self,
        url: str,
        worker_id: str | None = None,
        max_tasks: int = 4,
        poll_s: float = 0.2,
        stop: threading.Event | None = None,
        use_network_cache: bool = True,
    ):
        self.url = url.rstrip("/")
        self.worker_id = worker_id or make_worker_id()
        self.max_tasks = max_tasks
        self.poll_s = poll_s
        self.stop = stop if stop is not None else threading.Event()
        self.use_network_cache = use_network_cache
        self.client = WorkClient(HttpTransport(self.url))
        self._sessions: dict[str, _SessionState] = {}
        self._lease_s = DEFAULT_LEASE_S
        #: Posts that failed in flight, retried each loop turn.  Without
        #: this a finished cone whose post kept failing would stay leased
        #: forever (the heartbeat renews it); with it, delivery is at-least
        #: -once and the broker's first-write-wins absorbs the extras.
        self._outbox: list[tuple[str, list, list]] = []
        self.tasks_done = 0
        self.tasks_failed = 0

    # -- heartbeat -----------------------------------------------------
    def _heartbeat_loop(self) -> None:
        while not self.stop.is_set():
            try:
                self.client.heartbeat(self.worker_id)
            except (TransportError, HttpStatusError):
                pass  # the broker being briefly away is the lease's problem
            # Renew at a third of the lease, bounded so a reconfigured
            # (shorter) lease takes effect within one beat.
            self.stop.wait(max(0.05, min(self._lease_s / 3.0, 2.0)))

    # -- session state -------------------------------------------------
    def _session(self, session_id: str, etag: str) -> _SessionState:
        state = self._sessions.get(session_id)
        if state is not None and state.etag == etag:
            return state
        # The payload travels as raw (ETag-checked) pickle bytes.
        payload = pickle.loads(self.client.fetch_payload(session_id))
        network = payload["network"]
        options = payload["options"]
        preserved = payload["preserved"]
        persistent = (
            NetworkCacheClient(self.url) if self.use_network_cache else None
        )
        store = ResultStore(persistent=persistent)
        store.merge(payload["store_seed"])
        store.begin_journal()
        checker = ThresholdChecker.from_options(options, store=store)
        state = _SessionState(
            etag=etag,
            network=network,
            options=options,
            preserved=preserved,
            checker=checker,
            store=store,
            deadline_per_cone_s=ResiliencePolicy.from_options(
                options
            ).deadline_per_cone_s,
        )
        self._sessions[session_id] = state
        return state

    # -- cone execution ------------------------------------------------
    def _run_task(
        self, state: _SessionState, task_id: str, root: str, attempt: int
    ) -> TaskResult:
        deadline = Deadline.after(state.deadline_per_cone_s)
        outcome = ConeSynthesizer(
            state.network,
            root,
            state.options,
            state.checker,
            state.preserved,
            deadline=deadline,
            fault_hook=_worker_fault_hook(task_id, attempt),
        ).run()
        outcome.metrics.attempts = attempt
        return TaskResult(
            task_id=task_id,
            gates=outcome.gates,
            discovered=outcome.discovered,
            metrics=outcome.metrics,
            stats_delta=outcome.stats_delta,
            store_delta=state.store.take_journal(),
            store_stats_delta=outcome.store_stats_delta,
            attempts=attempt,
        )

    def _post(
        self, session_id: str, results: list[dict], failures: list[dict]
    ) -> None:
        try:
            self.client.post_results(
                session_id, self.worker_id, results, failures
            )
        except (TransportError, HttpStatusError) as exc:
            logger.warning("posting results failed (will retry): %s", exc)
            self._outbox.append((session_id, results, failures))

    def _flush_outbox(self) -> None:
        pending, self._outbox = self._outbox, []
        for session_id, results, failures in pending:
            try:
                self.client.post_results(
                    session_id, self.worker_id, results, failures
                )
            except (TransportError, HttpStatusError):
                self._outbox.append((session_id, results, failures))

    def _handle_batch(self, session_id: str, etag: str, tasks: list[dict]):
        try:
            state = self._session(session_id, etag)
        except (TransportError, HttpStatusError, KeyError) as exc:
            self._post(
                session_id,
                [],
                [
                    {
                        "task_id": row["task_id"],
                        "kind": "error",
                        "message": f"worker could not load session: {exc}",
                        "attempt": row.get("attempt", 1),
                    }
                    for row in tasks
                ],
            )
            return
        for row in tasks:
            if self.stop.is_set():
                return  # unfinished leases expire and re-enqueue
            task_id = str(row["task_id"])
            attempt = int(row.get("attempt", 1))
            try:
                result = self._run_task(
                    state, task_id, str(row["root"]), attempt
                )
            except InjectedCrash as exc:
                failure = {"kind": "crash", "message": str(exc)}
            except DeadlineExceeded as exc:
                failure = {"kind": "timeout", "message": str(exc)}
            except TransientError as exc:
                failure = {"kind": "error", "message": str(exc)}
            except SynthesisError as exc:
                # Deterministic synthesis bugs must fail the run, exactly
                # as they would propagate out of a pool worker.
                failure = {"kind": "fatal", "message": str(exc)}
            except Exception as exc:  # defensive: never kill the loop
                failure = {
                    "kind": "error",
                    "message": f"{type(exc).__name__}: {exc}",
                }
            else:
                self.tasks_done += 1
                self._post(
                    session_id,
                    [{"task_id": task_id, "blob": encode_blob(result)}],
                    [],
                )
                continue
            self.tasks_failed += 1
            failure.update({"task_id": task_id, "attempt": attempt})
            self._post(session_id, [], [failure])

    # -- main loop -----------------------------------------------------
    def run(self) -> int:
        """Claim and run cones until the stop event; returns cones done."""
        heartbeat = threading.Thread(
            target=self._heartbeat_loop,
            name=f"tels-worker-hb-{self.worker_id}",
            daemon=True,
        )
        heartbeat.start()
        logger.info("worker %s polling %s", self.worker_id, self.url)
        try:
            while not self.stop.is_set():
                if self._outbox:
                    self._flush_outbox()
                try:
                    claim = self.client.claim(self.worker_id, self.max_tasks)
                except (TransportError, HttpStatusError):
                    self.stop.wait(self.poll_s)
                    continue
                self._lease_s = float(
                    claim.get("lease_s") or DEFAULT_LEASE_S
                )
                tasks = claim.get("tasks") or []
                if not tasks:
                    self.stop.wait(self.poll_s)
                    continue
                self._handle_batch(
                    claim["session"], claim.get("etag", ""), tasks
                )
        finally:
            self.stop.set()
            heartbeat.join(timeout=2.0)
        return self.tasks_done


def run_worker(
    url: str,
    worker_id: str | None = None,
    max_tasks: int = 4,
    poll_s: float = 0.2,
    stop: threading.Event | None = None,
    use_network_cache: bool = True,
) -> int:
    """Run a worker loop until ``stop`` is set (module-level convenience)."""
    return Worker(
        url,
        worker_id=worker_id,
        max_tasks=max_tasks,
        poll_s=poll_s,
        stop=stop,
        use_network_cache=use_network_cache,
    ).run()


def start_worker_thread(
    url: str, worker_id: str | None = None, **kwargs
) -> tuple[threading.Thread, threading.Event]:
    """An in-process worker (tests, benches): returns (thread, stop event)."""
    stop = threading.Event()
    worker = Worker(url, worker_id=worker_id, stop=stop, **kwargs)
    thread = threading.Thread(
        target=worker.run,
        name=f"tels-worker-{worker.worker_id}",
        daemon=True,
    )
    thread.start()
    return thread, stop


def main(argv: list[str] | None = None) -> int:
    """Entry point of ``tels worker`` (also runnable as a module)."""
    import argparse
    import signal

    parser = argparse.ArgumentParser(prog="tels worker")
    parser.add_argument("--url", default=None)
    parser.add_argument("--id", default=None, dest="worker_id")
    parser.add_argument("--max-tasks", type=int, default=4)
    parser.add_argument("--poll-s", type=float, default=0.2)
    parser.add_argument("--no-network-cache", action="store_true")
    args = parser.parse_args(argv)

    from repro.serve.client import resolve_url

    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    try:
        run_worker(
            resolve_url(args.url),
            worker_id=args.worker_id,
            max_tasks=args.max_tasks,
            poll_s=args.poll_s,
            stop=stop,
            use_network_cache=not args.no_network_cache,
        )
    except KeyboardInterrupt:
        stop.set()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    raise SystemExit(main())
