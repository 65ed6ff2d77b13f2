"""Work-broker semantics: leases, expiry, idempotency, withdrawal,
long-poll wake-ups, acknowledged collects."""

from __future__ import annotations

import base64
import threading
import time

import pytest

from repro.serve.broker import (
    MAX_CLAIM_TASKS,
    MAX_WAIT_S,
    WorkBroker,
    WorkClient,
    payload_etag,
)
from repro.serve.schemas import ApiError
from repro.serve.transport import HttpStatusError, HttpTransport


class FakeClock:
    """A hand-advanced monotonic clock for deterministic lease tests."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_broker(lease_s: float = 10.0) -> tuple[WorkBroker, FakeClock]:
    clock = FakeClock()
    return WorkBroker(lease_s=lease_s, clock=clock), clock


def open_session(broker: WorkBroker, payload: bytes = b"pickle-bytes") -> str:
    created = broker.create_session(
        base64.b64encode(payload).decode("ascii"), meta={"kind": "test"}
    )
    return created["session"]


def enqueue(broker: WorkBroker, sid: str, *task_ids: str) -> None:
    broker.enqueue(
        sid,
        [{"task_id": t, "root": t, "attempt": 1} for t in task_ids],
    )


class TestSessions:
    def test_payload_round_trip_with_etag(self):
        broker, _clock = make_broker()
        raw = b"\x00\x01network-options-store"
        created = broker.create_session(
            base64.b64encode(raw).decode("ascii")
        )
        assert created["etag"] == payload_etag(raw)
        payload, etag = broker.payload(created["session"])
        assert payload == raw
        assert etag == created["etag"]

    def test_bad_base64_is_rejected(self):
        broker, _clock = make_broker()
        with pytest.raises(ApiError) as err:
            broker.create_session("not base64 at all!!!")
        assert err.value.status == 400

    def test_closed_session_rejects_access_and_frees_payload(self):
        broker, _clock = make_broker()
        sid = open_session(broker)
        enqueue(broker, sid, "t1")
        broker.close(sid)
        with pytest.raises(ApiError) as err:
            broker.collect(sid)
        assert err.value.status == 404
        # Closed sessions never hand out work.
        assert broker.claim("w1", 4)["tasks"] == []

    def test_close_forgets_the_session(self):
        broker, _clock = make_broker()
        sids = [open_session(broker) for _ in range(3)]
        for sid in sids[:2]:
            broker.close(sid)
        assert list(broker._sessions) == sids[2:]
        assert broker.claim("w1", 4)["open"] == sids[2:]
        assert broker.stats()["sessions"] == 1
        assert broker.stats()["sessions_created"] == 3


class TestLeases:
    def test_claim_then_post_round_trip(self):
        broker, _clock = make_broker()
        sid = open_session(broker)
        enqueue(broker, sid, "t1", "t2")
        claim = broker.claim("w1", 1)
        assert claim["session"] == sid
        assert [t["task_id"] for t in claim["tasks"]] == ["t1"]
        broker.post_results(
            sid, "w1", [{"task_id": "t1", "blob": "QQ=="}], []
        )
        out = broker.collect(sid)
        assert [r["task_id"] for r in out["results"]] == ["t1"]
        assert out["queued"] == 1  # t2 still waiting
        assert out["leased"] == 0

    def test_claim_caps_batch_size(self):
        broker, _clock = make_broker()
        sid = open_session(broker)
        enqueue(broker, sid, *[f"t{i}" for i in range(MAX_CLAIM_TASKS + 5)])
        claim = broker.claim("w1", 999)
        assert len(claim["tasks"]) == MAX_CLAIM_TASKS

    def test_expired_lease_becomes_crash_failure(self):
        broker, clock = make_broker(lease_s=10.0)
        sid = open_session(broker)
        enqueue(broker, sid, "t1")
        broker.claim("w1", 4)
        clock.advance(10.5)
        out = broker.collect(sid)
        (failure,) = out["failures"]
        assert failure["task_id"] == "t1"
        assert failure["kind"] == "crash"
        assert failure["expired"] is True
        assert "w1" in failure["message"]
        assert broker.lease_expirations == 1

    def test_heartbeat_renews_every_held_lease(self):
        broker, clock = make_broker(lease_s=10.0)
        sid = open_session(broker)
        enqueue(broker, sid, "t1", "t2")
        broker.claim("w1", 4)
        clock.advance(8.0)
        broker.heartbeat("w1")  # deadline moves to t=18
        clock.advance(9.0)  # t=17: still inside the renewed lease
        assert broker.collect(sid)["failures"] == []
        clock.advance(2.0)  # t=19: expired
        out = broker.collect(sid)
        assert {f["task_id"] for f in out["failures"]} == {"t1", "t2"}

    def test_result_landing_before_sweep_wins_over_expiry(self):
        broker, clock = make_broker(lease_s=10.0)
        sid = open_session(broker)
        enqueue(broker, sid, "t1")
        broker.claim("w1", 4)
        broker.post_results(
            sid, "w1", [{"task_id": "t1", "blob": "QQ=="}], []
        )
        clock.advance(60.0)
        out = broker.collect(sid)
        assert [r["task_id"] for r in out["results"]] == ["t1"]
        assert out["failures"] == []  # no phantom crash for a solved cone


class TestIdempotency:
    def test_duplicate_result_is_counted_and_dropped(self):
        broker, _clock = make_broker()
        sid = open_session(broker)
        enqueue(broker, sid, "t1")
        broker.claim("w1", 4)
        row = {"task_id": "t1", "blob": "QQ=="}
        first = broker.post_results(sid, "w1", [row], [])
        second = broker.post_results(sid, "w2", [row], [])
        assert first == {"accepted": 1, "duplicates": 0}
        assert second == {"accepted": 0, "duplicates": 1}
        assert len(broker.collect(sid)["results"]) == 1
        assert broker.duplicate_results == 1

    def test_duplicate_failure_report_is_deduped(self):
        broker, _clock = make_broker()
        sid = open_session(broker)
        enqueue(broker, sid, "t1")
        broker.claim("w1", 4)
        row = {
            "task_id": "t1",
            "kind": "error",
            "message": "flaky",
            "attempt": 1,
        }
        broker.post_results(sid, "w1", [], [row])
        broker.post_results(sid, "w1", [], [row])
        failures = broker.collect(sid)["failures"]
        assert len(failures) == 1
        # A different attempt of the same cone is a fresh failure.
        broker.post_results(sid, "w1", [], [dict(row, attempt=2)])
        ack = failures[0]["seq"]
        assert len(broker.collect(sid, ack=ack)["failures"]) == 1


class TestWithdrawAndStats:
    def test_withdraw_drains_only_unclaimed_tasks(self):
        broker, _clock = make_broker()
        sid = open_session(broker)
        enqueue(broker, sid, "t1", "t2", "t3")
        broker.claim("w1", 1)  # t1 leased
        withdrawn = broker.withdraw(sid)["tasks"]
        assert [t["task_id"] for t in withdrawn] == ["t2", "t3"]
        assert broker.collect(sid)["queued"] == 0
        assert broker.collect(sid)["leased"] == 1

    def test_stats_report_live_and_silent_workers(self):
        broker, clock = make_broker(lease_s=10.0)
        sid = open_session(broker)
        enqueue(broker, sid, "t1")
        broker.claim("w1", 4)
        stats = broker.stats()
        assert stats["workers"]["w1"]["live"] is True
        assert stats["workers"]["w1"]["leases"] == 1
        clock.advance(25.0)  # past worker_timeout_s = 2 * lease_s
        stats = broker.stats()
        assert stats["workers"]["w1"]["live"] is False
        assert stats["live_workers"] == 0
        assert stats["lease_expirations"] == 1


class TestAcknowledgedCollect:
    def test_unacknowledged_rows_are_returned_again(self):
        broker, _clock = make_broker()
        sid = open_session(broker)
        enqueue(broker, sid, "t1", "t2")
        broker.claim("w1", 4)
        broker.post_results(
            sid, "w1", [{"task_id": "t1", "blob": "QQ=="}], []
        )
        first = broker.collect(sid)
        # The reply was lost: the same collect returns the same rows.
        assert broker.collect(sid) == first
        (row,) = first["results"]
        assert row["seq"] == 1
        broker.post_results(
            sid, "w1", [{"task_id": "t2", "blob": "Qg=="}], []
        )
        second = broker.collect(sid, ack=row["seq"])
        assert [r["task_id"] for r in second["results"]] == ["t2"]
        assert second["results"][0]["seq"] == 2
        assert broker.collect(sid, ack=2)["results"] == []

    def test_failures_and_results_share_one_seq(self):
        broker, clock = make_broker(lease_s=10.0)
        sid = open_session(broker)
        enqueue(broker, sid, "t1", "t2")
        broker.claim("w1", 1)
        broker.post_results(
            sid, "w1", [{"task_id": "t1", "blob": "QQ=="}], []
        )
        broker.claim("w2", 1)
        clock.advance(11.0)
        out = broker.collect(sid)
        assert [r["seq"] for r in out["results"]] == [1]
        assert [f["seq"] for f in out["failures"]] == [2]
        assert out["failures"][0]["expired"] is True


class TestClaimReplay:
    def test_repeated_claim_seq_gets_the_same_reply(self):
        broker, _clock = make_broker()
        sid = open_session(broker)
        enqueue(broker, sid, "t1", "t2", "t3")
        first = broker.claim("w1", 1, seq=1)
        assert broker.claim("w1", 1, seq=1) == first
        assert [t["task_id"] for t in first["tasks"]] == ["t1"]
        assert broker.collect(sid)["leased"] == 1  # not two leases
        assert broker.claims == 1
        second = broker.claim("w1", 1, seq=2)
        assert [t["task_id"] for t in second["tasks"]] == ["t2"]
        # Sequence numbers are per worker.
        other = broker.claim("w2", 1, seq=2)
        assert [t["task_id"] for t in other["tasks"]] == ["t3"]

    def test_unnumbered_claims_are_never_replayed(self):
        broker, _clock = make_broker()
        sid = open_session(broker)
        enqueue(broker, sid, "t1", "t2")
        assert broker.claim("w1", 1)["tasks"][0]["task_id"] == "t1"
        assert broker.claim("w1", 1)["tasks"][0]["task_id"] == "t2"


def _after(delay_s: float, action) -> threading.Thread:
    """Run ``action`` on another thread after ``delay_s`` seconds."""

    def run() -> None:
        time.sleep(delay_s)
        action()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread


class TestLongPoll:
    """Real-clock tests: a waiter wakes on the event, not on a timer."""

    def test_server_clamps_the_wait(self):
        assert WorkBroker(lease_s=30.0).wait_bound(60.0) == MAX_WAIT_S
        assert WorkBroker(lease_s=0.3).wait_bound(60.0) == pytest.approx(0.1)
        assert WorkBroker(lease_s=30.0).wait_bound(0.25) == 0.25
        assert WorkBroker(lease_s=30.0).wait_bound(-1.0) == 0.0

    def test_blocked_claim_returns_as_soon_as_work_is_enqueued(self):
        broker = WorkBroker(lease_s=30.0)  # bound: 1 s
        sid = open_session(broker)
        helper = _after(0.1, lambda: enqueue(broker, sid, "t1"))
        start = time.monotonic()
        claim = broker.claim("w1", 4, wait_s=30.0)
        elapsed = time.monotonic() - start
        helper.join(timeout=5.0)
        assert [t["task_id"] for t in claim["tasks"]] == ["t1"]
        assert 0.05 <= elapsed < 0.6

    def test_blocked_collect_returns_as_soon_as_a_result_is_posted(self):
        broker = WorkBroker(lease_s=30.0)
        sid = open_session(broker)
        enqueue(broker, sid, "t1")
        broker.claim("w1", 4)
        helper = _after(
            0.1,
            lambda: broker.post_results(
                sid, "w1", [{"task_id": "t1", "blob": "QQ=="}], []
            ),
        )
        start = time.monotonic()
        out = broker.collect(sid, wait_s=30.0)
        elapsed = time.monotonic() - start
        helper.join(timeout=5.0)
        assert [r["task_id"] for r in out["results"]] == ["t1"]
        assert 0.05 <= elapsed < 0.6

    def test_idle_claim_and_collect_return_empty_within_the_bound(self):
        broker = WorkBroker(lease_s=0.6)  # bound: 0.2 s
        sid = open_session(broker)
        for call in (
            lambda: broker.claim("w1", 4, wait_s=30.0)["tasks"],
            lambda: broker.collect(sid, wait_s=30.0)["results"],
        ):
            start = time.monotonic()
            assert call() == []
            elapsed = time.monotonic() - start
            assert 0.15 <= elapsed < 0.8

    def test_blocked_collect_reports_an_expired_lease_within_the_bound(self):
        broker = WorkBroker(lease_s=0.6)  # bound: 0.2 s
        sid = open_session(broker)
        enqueue(broker, sid, "t1")
        broker.claim("w1", 4)  # ... and the worker goes silent
        expires = time.monotonic() + 0.6
        failures: list = []
        while not failures and time.monotonic() < expires + 5.0:
            failures = broker.collect(sid, wait_s=30.0)["failures"]
        late = time.monotonic() - expires
        (failure,) = failures
        assert failure["expired"] is True
        assert 0.0 <= late < 0.2 + 0.3

    def test_close_wakes_a_blocked_collect_with_404(self):
        broker = WorkBroker(lease_s=30.0)
        sid = open_session(broker)
        helper = _after(0.1, lambda: broker.close(sid))
        start = time.monotonic()
        with pytest.raises(ApiError) as err:
            broker.collect(sid, wait_s=30.0)
        helper.join(timeout=5.0)
        assert err.value.status == 404
        assert time.monotonic() - start < 0.6


def test_bad_wait_or_ack_field_is_400(daemon):
    app, _client = daemon
    transport = HttpTransport(app.url)
    sid = WorkClient(transport).create_session(b"payload")["session"]
    for path, body in (
        ("/work/claim", {"worker": "w1", "wait_s": "soon"}),
        ("/work/claim", {"worker": "w1", "wait_s": True}),
        (f"/work/sessions/{sid}/collect", {"ack": -1}),
        (f"/work/sessions/{sid}/collect", {"wait_s": float("inf")}),
    ):
        with pytest.raises(HttpStatusError) as err:
            transport.json("POST", path, body)
        assert err.value.status == 400
        assert err.value.payload()["error"]["code"] == "bad-work"
