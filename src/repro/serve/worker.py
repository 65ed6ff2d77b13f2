"""The ``tels worker`` loop: a remote cone-synthesis worker process.

A worker is the distributed twin of one process-pool worker
(:mod:`repro.engine.executor`): it claims leased task batches from the
daemon's work broker, rebuilds the session state exactly like the pool
initializer would (one :class:`~repro.engine.executor.ConeRunner` over the
network, options, preserved set and store seed), runs each cone through it
with the same per-task RNG stream and chaos hook, and posts each
:class:`~repro.engine.tasks.TaskResult` back as an opaque blob.  Because
cones are deterministic functions of (task_id, options, source network),
it does not matter *which* worker — or the local fallback pool — runs a
cone: the assembled network is byte-identical either way.

Two deliberate differences from a pool worker:

* the persistent tier is the daemon's **network cache**
  (:class:`~repro.cache.network.NetworkCacheClient`): a fresh solve is
  published immediately, so a second worker sees it mid-run, and every
  served entry is re-verified by the store before use;
* liveness is leased, not parented: a background heartbeat renews every
  held lease, and a worker that dies (SIGKILL included) simply goes
  silent — the broker expires its leases into ``"crash"`` failures and
  the scheduler's retry ladder takes over.

An idle worker does not sleep between claims: each claim long-polls, so
the broker answers it the moment a cone is enqueued.  Claims are
numbered, which lets the broker answer a retried or replayed claim with
the reply it already gave.  Results are posted per cone, not per batch,
so a worker killed mid-batch only forfeits the cones it had not
finished.
"""

from __future__ import annotations

import itertools
import logging
import os
import pickle
import threading
import uuid

from repro.cache.network import NetworkCacheClient
from repro.engine.executor import ConeRunner
from repro.errors import (
    DeadlineExceeded,
    InjectedCrash,
    SynthesisError,
    TransientError,
)
from repro.serve.broker import (
    DEFAULT_LEASE_S,
    MAX_WAIT_S,
    WorkClient,
    encode_blob,
)
from repro.serve.transport import (
    HttpStatusError,
    HttpTransport,
    TransportError,
)

logger = logging.getLogger("repro.serve.worker")


def make_worker_id() -> str:
    return f"w-{os.getpid()}-{uuid.uuid4().hex[:6]}"


class Worker:
    """One claim/run/post loop against a daemon's work broker."""

    def __init__(
        self,
        url: str,
        worker_id: str | None = None,
        max_tasks: int = 4,
        stop: threading.Event | None = None,
        use_network_cache: bool = True,
    ):
        self.url = url.rstrip("/")
        self.worker_id = worker_id or make_worker_id()
        self.max_tasks = max_tasks
        self.stop = stop if stop is not None else threading.Event()
        self.use_network_cache = use_network_cache
        self.client = WorkClient(HttpTransport(self.url))
        #: session id -> (payload etag, the session's cone runner).
        self._sessions: dict[str, tuple[str, ConeRunner]] = {}
        self._lease_s = DEFAULT_LEASE_S
        self._claim_seq = itertools.count(1)
        #: Posts that may still succeed, retried each loop turn.  Without
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
    def _session(self, session_id: str, etag: str) -> ConeRunner:
        cached = self._sessions.get(session_id)
        if cached is not None and cached[0] == etag:
            return cached[1]
        # The payload travels as raw (ETag-checked) pickle bytes.
        payload = pickle.loads(self.client.fetch_payload(session_id))
        runner = ConeRunner.for_worker(
            payload["network"],
            payload["options"],
            payload["preserved"],
            payload["store_seed"],
            NetworkCacheClient(self.url) if self.use_network_cache else None,
        )
        self._sessions[session_id] = (etag, runner)
        return runner

    def _deliver(
        self, session_id: str, results: list[dict], failures: list[dict]
    ) -> bool:
        """Post once; False when a retry may still succeed.

        A transport error or a 5xx answer may clear up.  A 4xx answer is
        final (a closed session answers 404 forever): the post is dropped
        and logged once.
        """
        try:
            self.client.post_results(
                session_id, self.worker_id, results, failures
            )
        except TransportError:
            return False
        except HttpStatusError as exc:
            if exc.status >= 500:
                return False
            logger.warning(
                "dropping results for session %s: %s", session_id, exc
            )
        return True

    def _post(
        self, session_id: str, results: list[dict], failures: list[dict]
    ) -> None:
        if not self._deliver(session_id, results, failures):
            logger.warning(
                "posting results for session %s failed (will retry)",
                session_id,
            )
            self._outbox.append((session_id, results, failures))

    def _flush_outbox(self) -> None:
        pending, self._outbox = self._outbox, []
        for post in pending:
            if not self._deliver(*post):
                self._outbox.append(post)

    def _forget_closed(self, open_sessions) -> None:
        """Drop the state of every session the broker no longer has open."""
        for session_id in set(self._sessions) - set(open_sessions):
            del self._sessions[session_id]

    def _handle_batch(self, session_id: str, etag: str, tasks: list[dict]):
        try:
            runner = self._session(session_id, etag)
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
                result = runner.run(str(row["root"]), attempt)
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
        logger.info("worker %s claiming from %s", self.worker_id, self.url)
        try:
            while not self.stop.is_set():
                if self._outbox:
                    self._flush_outbox()
                try:
                    claim = self.client.claim(
                        self.worker_id,
                        self.max_tasks,
                        wait_s=MAX_WAIT_S,
                        seq=next(self._claim_seq),
                    )
                except (TransportError, HttpStatusError):
                    self.stop.wait(MAX_WAIT_S)
                    continue
                self._lease_s = float(
                    claim.get("lease_s") or DEFAULT_LEASE_S
                )
                self._forget_closed(claim.get("open", ()))
                tasks = claim.get("tasks") or []
                if tasks:
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
    stop: threading.Event | None = None,
    use_network_cache: bool = True,
) -> int:
    """Run a worker loop until ``stop`` is set (module-level convenience)."""
    return Worker(
        url,
        worker_id=worker_id,
        max_tasks=max_tasks,
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
