"""Distributed delivery: one enqueue per wave, lost and replayed replies,
and the worker's session and outbox hygiene."""

from __future__ import annotations

import logging
import threading

import pytest

from repro.benchgen import build_benchmark
from repro.core.synthesis import SynthesisOptions
from repro.engine.remote import RemoteExecutor
from repro.engine.scheduler import run_synthesis
from repro.io.thblif import to_thblif
from repro.network.scripts import prepare_tels
from repro.serve.app import ServeApp
from repro.serve.broker import WorkClient, encode_blob
from repro.serve.transport import (
    HttpStatusError,
    HttpTransport,
    TransportError,
)
from repro.serve.worker import Worker

#: Any run here finishes in well under a second; a run still going after
#: this long has hung (at-most-once delivery lost a lease or a result).
HANG_S = 30.0


@pytest.fixture
def daemon():
    app = ServeApp(port=0)
    app.start_background()
    try:
        yield app
    finally:
        app.shutdown()


@pytest.fixture
def worker(daemon):
    """One in-process worker; yields the :class:`Worker` itself."""
    stop = threading.Event()
    handle = Worker(daemon.url, worker_id="w1", stop=stop)
    thread = threading.Thread(target=handle.run, daemon=True)
    thread.start()
    try:
        yield handle
    finally:
        stop.set()
        thread.join(timeout=5.0)
    assert not thread.is_alive()


def prepared(name: str):
    return prepare_tels(build_benchmark(name))


def run_bounded(network, url: str):
    """``run_synthesis(distribute=url)``, failing the test if it hangs."""
    outcome: dict = {}

    def run() -> None:
        outcome["result"] = run_synthesis(
            network, SynthesisOptions(), distribute=url
        )

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout=HANG_S)
    assert not thread.is_alive(), f"distributed run hung for {HANG_S}s"
    return outcome["result"]


def test_executor_sends_one_enqueue_per_wave(daemon, worker, monkeypatch):
    """Every submission between two waits travels in one request."""
    network = prepared("comp")
    serial = run_synthesis(network, SynthesisOptions())
    log: list[str] = []
    enqueued: list[int] = []
    submit, wait, enqueue = (
        RemoteExecutor.submit,
        RemoteExecutor.wait,
        WorkClient.enqueue,
    )

    def logged_submit(self, task, attempt=1):
        log.append("submit")
        return submit(self, task, attempt)

    def logged_wait(self):
        log.append("wait")
        return wait(self)

    def logged_enqueue(self, session_id, tasks):
        enqueued.append(len(tasks))
        return enqueue(self, session_id, tasks)

    monkeypatch.setattr(RemoteExecutor, "submit", logged_submit)
    monkeypatch.setattr(RemoteExecutor, "wait", logged_wait)
    monkeypatch.setattr(WorkClient, "enqueue", logged_enqueue)
    remote = run_bounded(network, daemon.url)
    waves, pending = [], 0
    for call in log:
        if call == "submit":
            pending += 1
        elif pending:
            waves.append(pending)
            pending = 0
    assert to_thblif(remote.network) == to_thblif(serial.network)
    assert remote.trace.remote_fallback_tasks == 0
    assert enqueued == waves
    assert sum(enqueued) == log.count("submit") >= remote.trace.num_tasks
    assert len(enqueued) < remote.trace.num_tasks  # 48 cones


def test_lost_collect_reply_loses_no_result(daemon, worker, monkeypatch):
    """The broker acted on a collect, then its reply was lost in flight.

    The transport retries the same request, and the broker answers it
    with the same unacknowledged rows: nothing falls back, nothing hangs.
    """
    network = prepared("cm152a")
    serial = run_synthesis(network, SynthesisOptions())
    send = HttpTransport._send
    dropped: list[str] = []

    def lossy_send(self, method, path, data, headers):
        status, body, reply_headers = send(self, method, path, data, headers)
        if not dropped and path.endswith("/collect") and b'"blob"' in body:
            dropped.append(path)
            raise TransportError("reply lost after the broker answered")
        return status, body, reply_headers

    monkeypatch.setattr(HttpTransport, "_send", lossy_send)
    remote = run_bounded(network, daemon.url)
    assert dropped
    assert to_thblif(remote.network) == to_thblif(serial.network)
    assert remote.trace.remote_fallback_tasks == 0


def test_replayed_claims_strand_no_cone(daemon, worker, monkeypatch):
    """``net-dup=1.0`` delivers every POST twice, claims included."""
    network = prepared("cm152a")
    serial = run_synthesis(network, SynthesisOptions())
    monkeypatch.setenv("TELS_CHAOS", "net-dup=1.0:1")
    remote = run_bounded(network, daemon.url)
    assert to_thblif(remote.network) == to_thblif(serial.network)
    assert remote.trace.remote_fallback_tasks == 0


def test_worker_keeps_no_state_for_closed_sessions(daemon, worker):
    blif = prepared("cmb")
    for _ in range(20):
        remote = run_bounded(blif, daemon.url)
        assert remote.trace.remote_fallback_tasks == 0
    assert len(worker._sessions) <= 1
    broker = daemon.manager.broker
    assert broker.stats()["sessions"] == 0
    assert not broker._sessions
    assert broker.sessions_created == 20


class TestWorkerOutbox:
    """Only a post that may still succeed stays in the worker outbox."""

    def test_post_to_a_closed_session_is_dropped_and_logged_once(
        self, daemon, caplog
    ):
        client = WorkClient(HttpTransport(daemon.url))
        session = client.create_session(b"payload")["session"]
        client.close(session)
        idle = Worker(daemon.url, worker_id="idle")
        row = {"task_id": "t1", "blob": encode_blob("result")}
        with caplog.at_level(logging.WARNING, logger="repro.serve.worker"):
            idle._post(session, [row], [])
            idle._flush_outbox()
        assert idle._outbox == []
        assert len(caplog.records) == 1
        assert "dropping results" in caplog.records[0].getMessage()

    @pytest.mark.parametrize(
        "error",
        [
            TransportError("connection refused"),
            HttpStatusError(503, b"{}", "http://daemon/work"),
        ],
        ids=["transport", "5xx"],
    )
    def test_retryable_post_is_kept_until_it_lands(
        self, daemon, monkeypatch, error
    ):
        client = WorkClient(HttpTransport(daemon.url))
        session = client.create_session(b"payload")["session"]
        idle = Worker(daemon.url, worker_id="idle")
        post = idle.client.post_results
        failing = [error, error]

        def flaky(*args):
            if failing:
                raise failing.pop()
            return post(*args)

        monkeypatch.setattr(idle.client, "post_results", flaky)
        row = {"task_id": "t1", "blob": encode_blob("result")}
        idle._post(session, [row], [])
        assert len(idle._outbox) == 1
        idle._flush_outbox()
        assert len(idle._outbox) == 1  # still failing: kept again
        idle._flush_outbox()
        assert idle._outbox == []
        assert daemon.manager.broker.results_accepted == 1
