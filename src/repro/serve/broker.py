"""Lease-based work distribution: the broker behind ``/work/...``.

The daemon is a *dumb blob broker* between one
:class:`~repro.engine.remote.RemoteExecutor` (the scheduler side) and any
number of ``tels worker`` processes:

* the executor opens a **session** carrying an opaque pickled payload (the
  prepared network, options, preserved set, and store seed) and enqueues
  cone tasks into it;
* workers **claim** task batches under a lease, fetch the session payload
  once (content-addressed by its ETag), run the cones, and post back
  results as opaque pickled blobs — the daemon never unpickles either
  direction, it only stores and forwards bytes within one trust domain
  (the same codebase that already pickles across the process pool);
* every claim is a **lease**: a worker must heartbeat before
  ``lease_s`` expires or the broker re-enqueues nothing and instead
  reports each leased cone as a ``"crash"``-kind failure to the executor,
  which feeds the scheduler's existing retry/backoff/quarantine ladder —
  a SIGKILLed worker is indistinguishable from a crashed pool process;
* results are **idempotent**: the first result for a task wins, duplicate
  deliveries (client retries, the ``net-dup`` chaos site) are counted and
  dropped;
* both hops are **at-least-once**: a worker numbers its claims and a
  repeated ``(worker, seq)`` gets the reply already given, and the outbox
  keeps every row (each stamped with a per-session ``seq``) until a
  collect acknowledges it, so a lost reply loses neither a lease nor a
  result.

``claim`` and ``collect`` **long-poll**: with a ``wait_s`` they block on
one condition variable, woken by enqueues, posted results, closes and
lease expiries, for at most :meth:`WorkBroker.wait_bound`.  Expiry is
swept lazily inside broker calls and on every wake-up, so the daemon
needs no background thread, the bound caps how late a blocked collect
notices an expired lease, and a test can drive lease time through the
injectable ``clock``.
"""

from __future__ import annotations

import base64
import hashlib
import itertools
import pickle
import threading
import time
from collections import deque
from dataclasses import dataclass, field

from repro.serve.schemas import ApiError

#: Default lease duration; a worker heartbeats at a fraction of this.
DEFAULT_LEASE_S = 15.0

#: Cap on tasks per claim batch.
MAX_CLAIM_TASKS = 16

#: Longest a long-poll claim or collect blocks, whatever the lease: a
#: stopping worker thread exits within this, and a worker backs off this
#: long after a transport error.
MAX_WAIT_S = 1.0


def encode_blob(obj) -> str:
    """Pickle + base64 an object for transport through the broker."""
    return base64.b64encode(pickle.dumps(obj)).decode("ascii")


def decode_blob(text: str):
    """Inverse of :func:`encode_blob` (trusted same-host blobs only)."""
    return pickle.loads(base64.b64decode(text.encode("ascii")))


def payload_etag(payload: bytes) -> str:
    """Content address of a session payload."""
    return hashlib.sha256(payload).hexdigest()[:24]


@dataclass
class _LeasedTask:
    """One claimed cone: who holds it and until when."""

    root: str
    attempt: int
    worker_id: str
    deadline: float


@dataclass
class WorkSession:
    """One executor's open distribution session."""

    session_id: str
    payload: bytes
    etag: str
    meta: dict = field(default_factory=dict)
    queue: deque = field(default_factory=deque)  # (task_id, root, attempt)
    leased: dict = field(default_factory=dict)  # task_id -> _LeasedTask
    results: list = field(default_factory=list)  # outbox: result rows
    failures: list = field(default_factory=list)  # outbox: failure rows
    last_seq: int = 0  # seq of the newest outbox row
    resolved: set = field(default_factory=set)  # task_ids with a result
    failure_seen: set = field(default_factory=set)  # (task, attempt, kind)


class WorkBroker:
    """Sessions, task queues, leases, and result outboxes for the daemon."""

    def __init__(
        self,
        lease_s: float = DEFAULT_LEASE_S,
        worker_timeout_s: float | None = None,
        clock=time.monotonic,
    ):
        self.lease_s = lease_s
        #: A worker silent longer than this no longer counts as live.
        self.worker_timeout_s = (
            worker_timeout_s if worker_timeout_s is not None else 2 * lease_s
        )
        self._clock = clock
        self._lock = threading.RLock()
        #: Wakes long-poll waiters: enqueue, results, close, lease expiry.
        self._wake = threading.Condition(self._lock)
        self._sessions: dict[str, WorkSession] = {}
        self._workers: dict[str, float] = {}  # worker_id -> last_seen
        #: worker_id -> (seq, reply) of its newest numbered claim.
        self._claim_replies: dict[str, tuple[int, dict]] = {}
        self._seq = itertools.count(1)
        # Operator-facing counters (surface in /stats).
        self.sessions_created = 0
        self.claims = 0
        self.claimed_tasks = 0
        self.results_accepted = 0
        self.duplicate_results = 0
        self.failures_reported = 0
        self.lease_expirations = 0

    # -- internals -----------------------------------------------------
    def _get(self, session_id: str) -> WorkSession:
        session = self._sessions.get(session_id)
        if session is None:
            raise ApiError(
                404, f"no such work session {session_id!r}", code="not-found"
            )
        return session

    def _publish(self, session: WorkSession, box: list, row: dict) -> None:
        """Stamp an outbox row with the session's next seq (lock held)."""
        session.last_seq += 1
        row["seq"] = session.last_seq
        box.append(row)
        self._wake.notify_all()

    def wait_bound(self, wait_s: float) -> float:
        """The server's clamp on a long-poll: ``min(lease_s / 3, 1 s)``."""
        return max(0.0, min(float(wait_s), self.lease_s / 3.0, MAX_WAIT_S))

    def _await(self, ready, wait_s: float) -> None:
        """Block until ``ready()`` or the long-poll bound (lock held).

        Every wake-up re-runs the expiry sweep before testing ``ready``.
        The bound is real time even under an injected lease ``clock``.
        """
        give_up = time.monotonic() + self.wait_bound(wait_s)
        while True:
            self._sweep(self._clock())
            remaining = give_up - time.monotonic()
            if ready() or remaining <= 0:
                return
            self._wake.wait(remaining)

    def _sweep(self, now: float) -> None:
        """Expire overdue leases into ``"crash"`` failures (lock held)."""
        for session in self._sessions.values():
            expired = [
                task_id
                for task_id, lease in session.leased.items()
                if now > lease.deadline
            ]
            for task_id in expired:
                lease = session.leased.pop(task_id)
                self.lease_expirations += 1
                if task_id in session.resolved:
                    continue  # result landed before the sweep ran
                self._publish(
                    session,
                    session.failures,
                    {
                        "task_id": task_id,
                        "kind": "crash",
                        "message": (
                            f"lease expired: worker {lease.worker_id!r} "
                            f"missed its heartbeat deadline"
                        ),
                        "attempt": lease.attempt,
                        "expired": True,
                    },
                )

    def _live_workers(self, now: float) -> int:
        return sum(
            1
            for last_seen in self._workers.values()
            if now - last_seen <= self.worker_timeout_s
        )

    # -- executor side -------------------------------------------------
    def create_session(self, payload_b64: str, meta: dict | None = None) -> dict:
        try:
            payload = base64.b64decode(payload_b64.encode("ascii"))
        except (ValueError, UnicodeEncodeError):
            raise ApiError(
                400, "session payload is not valid base64"
            ) from None
        with self._lock:
            session = WorkSession(
                session_id=f"s{next(self._seq):06d}",
                payload=payload,
                etag=payload_etag(payload),
                meta=dict(meta or {}),
            )
            self._sessions[session.session_id] = session
            self.sessions_created += 1
            return {"session": session.session_id, "etag": session.etag}

    def enqueue(self, session_id: str, tasks: list[dict]) -> dict:
        with self._lock:
            session = self._get(session_id)
            for row in tasks:
                session.queue.append(
                    (
                        str(row["task_id"]),
                        str(row["root"]),
                        int(row.get("attempt", 1)),
                    )
                )
            self._wake.notify_all()
            return {"queued": len(session.queue)}

    def collect(
        self, session_id: str, ack: int = 0, wait_s: float = 0.0
    ) -> dict:
        """The session's unacknowledged outbox rows, plus queue/lease/worker
        state.

        Rows up to ``ack`` (the highest ``seq`` the executor has
        processed) are dropped; the rest stay until a later collect
        acknowledges them, so a retried or replayed collect returns the
        same rows.  With ``wait_s`` the call blocks while no row is left.
        """
        with self._lock:
            session = self._get(session_id)
            session.results = [r for r in session.results if r["seq"] > ack]
            session.failures = [
                f for f in session.failures if f["seq"] > ack
            ]
            self._await(
                lambda: session.results
                or session.failures
                or session_id not in self._sessions,
                wait_s,
            )
            self._get(session_id)  # closed while waiting: 404
            return {
                "results": list(session.results),
                "failures": list(session.failures),
                "queued": len(session.queue),
                "leased": len(session.leased),
                "workers": self._live_workers(self._clock()),
            }

    def withdraw(self, session_id: str) -> dict:
        """Pull every unclaimed task back out (local-fallback path)."""
        with self._lock:
            session = self._get(session_id)
            tasks = [
                {"task_id": task_id, "root": root, "attempt": attempt}
                for task_id, root, attempt in session.queue
            ]
            session.queue.clear()
            return {"tasks": tasks}

    def close(self, session_id: str) -> dict:
        """Forget the session; every later call on it answers 404."""
        with self._lock:
            self._sessions.pop(session_id, None)
            self._wake.notify_all()
            return {"closed": True}

    # -- worker side ---------------------------------------------------
    def payload(self, session_id: str) -> tuple[bytes, str]:
        with self._lock:
            session = self._get(session_id)
            return session.payload, session.etag

    def _replay(self, worker_id: str, seq: int | None) -> dict | None:
        """The reply already given to claim ``seq`` of this worker."""
        last = self._claim_replies.get(worker_id)
        if seq is None or last is None or last[0] != seq:
            return None
        return last[1]

    def claim(
        self,
        worker_id: str,
        max_tasks: int = 4,
        wait_s: float = 0.0,
        seq: int | None = None,
    ) -> dict:
        """Lease up to ``max_tasks`` queued cones (one session per batch).

        With ``wait_s`` the call blocks while no session has queued work.
        A repeated ``(worker_id, seq)`` answers with the reply it already
        gave, so a retried or replayed claim never leases cones its worker
        does not see.  The reply lists the ``open`` session ids, so a
        worker can drop the state of closed ones.
        """
        max_tasks = max(1, min(int(max_tasks), MAX_CLAIM_TASKS))
        with self._lock:
            self._workers[worker_id] = self._clock()
            self._await(
                lambda: self._replay(worker_id, seq) is not None
                or any(s.queue for s in self._sessions.values()),
                wait_s,
            )
            reply = self._replay(worker_id, seq)
            if reply is not None:
                return reply
            self.claims += 1
            reply = {
                "session": None,
                "lease_s": self.lease_s,
                "tasks": [],
                "open": list(self._sessions),
            }
            now = self._clock()
            for session in self._sessions.values():
                if not session.queue:
                    continue
                batch = []
                while session.queue and len(batch) < max_tasks:
                    task_id, root, attempt = session.queue.popleft()
                    session.leased[task_id] = _LeasedTask(
                        root=root,
                        attempt=attempt,
                        worker_id=worker_id,
                        deadline=now + self.lease_s,
                    )
                    batch.append(
                        {"task_id": task_id, "root": root, "attempt": attempt}
                    )
                self.claimed_tasks += len(batch)
                reply.update(
                    session=session.session_id, etag=session.etag, tasks=batch
                )
                break
            if seq is not None:
                self._claim_replies[worker_id] = (seq, reply)
            return reply

    def heartbeat(self, worker_id: str) -> dict:
        """Renew the worker's liveness and every lease it holds."""
        now = self._clock()
        with self._lock:
            self._workers[worker_id] = now
            renewed = 0
            for session in self._sessions.values():
                for lease in session.leased.values():
                    if lease.worker_id == worker_id:
                        lease.deadline = now + self.lease_s
                        renewed += 1
            self._sweep(now)
            return {"ok": True, "leases": renewed}

    def post_results(
        self,
        session_id: str,
        worker_id: str,
        results: list[dict],
        failures: list[dict],
    ) -> dict:
        """Accept finished cones (first write wins) and reported failures."""
        now = self._clock()
        with self._lock:
            self._workers[worker_id] = now
            session = self._get(session_id)
            accepted = duplicates = 0
            for row in results:
                task_id = str(row["task_id"])
                session.leased.pop(task_id, None)
                if task_id in session.resolved:
                    duplicates += 1
                    continue
                session.resolved.add(task_id)
                self._publish(
                    session,
                    session.results,
                    {"task_id": task_id, "blob": row["blob"]},
                )
                accepted += 1
            for row in failures:
                task_id = str(row["task_id"])
                session.leased.pop(task_id, None)
                key = (task_id, int(row.get("attempt", 1)), row.get("kind"))
                if key in session.failure_seen:
                    duplicates += 1
                    continue
                session.failure_seen.add(key)
                self._publish(
                    session,
                    session.failures,
                    {
                        "task_id": task_id,
                        "kind": str(row.get("kind", "error")),
                        "message": str(row.get("message", "")),
                        "attempt": int(row.get("attempt", 1)),
                        "expired": False,
                    },
                )
                self.failures_reported += 1
            self.results_accepted += accepted
            self.duplicate_results += duplicates
            return {"accepted": accepted, "duplicates": duplicates}

    # -- introspection -------------------------------------------------
    def stats(self) -> dict:
        now = self._clock()
        with self._lock:
            self._sweep(now)
            workers = {
                worker_id: {
                    "live": now - last_seen <= self.worker_timeout_s,
                    "idle_s": round(now - last_seen, 3),
                    "leases": sum(
                        1
                        for session in self._sessions.values()
                        for lease in session.leased.values()
                        if lease.worker_id == worker_id
                    ),
                }
                for worker_id, last_seen in self._workers.items()
            }
            return {
                "lease_s": self.lease_s,
                "sessions": len(self._sessions),
                "sessions_created": self.sessions_created,
                "queued": sum(len(s.queue) for s in self._sessions.values()),
                "leased": sum(len(s.leased) for s in self._sessions.values()),
                "workers": workers,
                "live_workers": self._live_workers(now),
                "claims": self.claims,
                "claimed_tasks": self.claimed_tasks,
                "results_accepted": self.results_accepted,
                "duplicate_results": self.duplicate_results,
                "failures_reported": self.failures_reported,
                "lease_expirations": self.lease_expirations,
            }


class WorkClient:
    """Client of the ``/work`` API — used by executors and workers alike."""

    def __init__(self, transport):
        self.transport = transport

    def create_session(self, payload: bytes, meta: dict | None = None) -> dict:
        return self.transport.json(
            "POST",
            "/work/sessions",
            {
                "payload": base64.b64encode(payload).decode("ascii"),
                "meta": meta or {},
            },
        )

    def fetch_payload(self, session_id: str) -> bytes:
        from repro.serve.transport import TransportError

        _status, body, headers = self.transport.request(
            "GET", f"/work/sessions/{session_id}/payload"
        )
        etag = headers.get("ETag", "")
        if etag and etag != payload_etag(body):
            raise TransportError(
                f"session {session_id} payload failed its ETag check"
            )
        return body

    def enqueue(self, session_id: str, tasks: list[dict]) -> dict:
        return self.transport.json(
            "POST", f"/work/sessions/{session_id}/tasks", {"tasks": tasks}
        )

    def claim(
        self,
        worker_id: str,
        max_tasks: int = 4,
        wait_s: float = 0.0,
        seq: int | None = None,
    ) -> dict:
        body = {"worker": worker_id, "max_tasks": max_tasks, "wait_s": wait_s}
        if seq is not None:
            body["seq"] = seq
        return self.transport.json("POST", "/work/claim", body)

    def heartbeat(self, worker_id: str) -> dict:
        return self.transport.json(
            "POST", "/work/heartbeat", {"worker": worker_id}
        )

    def post_results(
        self,
        session_id: str,
        worker_id: str,
        results: list[dict],
        failures: list[dict],
    ) -> dict:
        return self.transport.json(
            "POST",
            f"/work/sessions/{session_id}/results",
            {"worker": worker_id, "results": results, "failures": failures},
        )

    def collect(
        self, session_id: str, ack: int = 0, wait_s: float = 0.0
    ) -> dict:
        return self.transport.json(
            "POST",
            f"/work/sessions/{session_id}/collect",
            {"ack": ack, "wait_s": wait_s},
        )

    def withdraw(self, session_id: str) -> dict:
        return self.transport.json(
            "POST", f"/work/sessions/{session_id}/withdraw", {}
        )

    def close(self, session_id: str) -> dict:
        return self.transport.json(
            "DELETE", f"/work/sessions/{session_id}"
        )
