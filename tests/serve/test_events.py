"""Event streaming: NDJSON/SSE encodings, ordering, and resumption."""

from __future__ import annotations

import json
import threading
import time
import urllib.request

from repro.serve.jobs import TERMINAL_STATES, JobManager
from repro.serve.sse import encode_ndjson, encode_sse, wants_sse


class TestEncodings:
    def test_wants_sse(self):
        assert wants_sse("text/event-stream")
        assert wants_sse("application/json, text/event-stream;q=0.9")
        assert not wants_sse("application/json")
        assert not wants_sse(None)
        assert not wants_sse("")

    def test_ndjson_is_one_line(self):
        raw = encode_ndjson({"event": "phase", "seq": 3})
        assert raw.endswith(b"\n")
        assert raw.count(b"\n") == 1
        assert json.loads(raw) == {"event": "phase", "seq": 3}

    def test_sse_block_shape(self):
        raw = encode_sse({"event": "task-done", "seq": 7, "gates": 2})
        text = raw.decode()
        assert text.startswith("event: task-done\nid: 7\ndata: ")
        assert text.endswith("\n\n")
        payload = json.loads(text.split("data: ", 1)[1])
        assert payload["gates"] == 2


class TestStreaming:
    def _run_job(self, client, blif: str) -> str:
        job_id = client.submit(blif)["id"]
        assert client.wait(job_id)["state"] == "done"
        return job_id

    def test_ndjson_stream_is_ordered_and_terminates(
        self, daemon, small_blif
    ):
        _, client = daemon
        job_id = self._run_job(client, small_blif)
        events = list(client.events(job_id))
        assert [e["seq"] for e in events] == list(range(len(events)))
        assert events[0]["event"] == "job-queued"
        assert events[1]["event"] == "job-started"
        assert events[-1]["event"] == "job-done"
        names = [e["event"] for e in events]
        assert "phase" in names
        assert "task-done" in names
        # Engine events fall strictly between the lifecycle markers.
        assert names.index("job-started") < names.index("task-done")

    def test_live_stream_sees_job_finish(self, daemon, small_blif):
        """A stream opened before completion still drains to job-done."""
        _, client = daemon
        job_id = client.submit(small_blif)["id"]
        events = list(client.events(job_id))  # blocks until terminal
        assert events[-1]["event"].startswith("job-")
        assert events[-1]["event"] == "job-done"

    def test_since_resumes_mid_stream(self, daemon, small_blif):
        _, client = daemon
        job_id = self._run_job(client, small_blif)
        full = list(client.events(job_id))
        tail = list(client.events(job_id, since=len(full) - 2))
        assert tail == full[-2:]

    def test_sse_stream_via_accept_header(self, daemon, small_blif):
        app, client = daemon
        job_id = self._run_job(client, small_blif)
        request = urllib.request.Request(
            f"{app.url}/jobs/{job_id}/events",
            headers={"Accept": "text/event-stream"},
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            assert response.headers["Content-Type"] == "text/event-stream"
            body = response.read().decode()
        blocks = [b for b in body.split("\n\n") if b.strip()]
        ndjson = list(client.events(job_id))
        assert len(blocks) == len(ndjson)
        first_data = json.loads(blocks[0].split("data: ", 1)[1])
        assert first_data["event"] == "job-queued"
        # ids carry the seq for Last-Event-ID resumption.
        assert "id: 0" in blocks[0]

    def test_bad_since_is_400(self, daemon, small_blif):
        app, client = daemon
        job_id = self._run_job(client, small_blif)
        import urllib.error

        try:
            urllib.request.urlopen(
                f"{app.url}/jobs/{job_id}/events?since=nope", timeout=10
            )
        except urllib.error.HTTPError as err:
            assert err.code == 400
        else:  # pragma: no cover - fail loudly
            raise AssertionError("expected a 400")


class TestTerminalEvent:
    def test_stream_waits_for_the_terminal_event(self, tmp_path, small_blif):
        """A reader that sees the terminal state first still gets job-done.

        The job's state turns terminal and is journaled before its
        ``job-done`` event is published; holding the journal write open
        pins a reader inside that window.
        """
        manager = JobManager(journal_dir=str(tmp_path), max_workers=1)
        release = threading.Event()
        append = manager.journal.append

        def gated_append(record: dict) -> None:
            if record.get("state") in TERMINAL_STATES:
                release.wait(timeout=30)
            append(record)

        manager.journal.append = gated_append
        try:
            job = manager.submit({"blif": small_blif, "name": "gated"})
            deadline = time.monotonic() + 30
            while not job.is_terminal:
                assert time.monotonic() < deadline, "job never finished"
                time.sleep(0.005)
            drained: list[dict] = []
            reader = threading.Thread(
                target=lambda: drained.extend(manager.iter_events(job))
            )
            reader.start()
            reader.join(timeout=0.5)
            release.set()
            reader.join(timeout=30)
            assert not reader.is_alive()
            assert drained[-1]["event"] == "job-done"
            assert [e["seq"] for e in drained] == list(range(len(drained)))
        finally:
            release.set()
            manager.shutdown()
