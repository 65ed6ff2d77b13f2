"""Jobs-journal persistence: folding, torn lines, and daemon restarts."""

from __future__ import annotations

import json

from repro.benchgen.paper_examples import MOTIVATIONAL_BLIF
from repro.serve.journal import FORMAT_NAME, JobJournal, journal_file
from repro.serve.jobs import JobManager


class TestJournalFile:
    def test_append_then_load_folds_per_job(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.append({"id": "j1", "state": "queued", "submitted_at": 1.0})
        journal.append({"id": "j1", "state": "running"})
        journal.append({"id": "j2", "state": "queued"})
        journal.append({"id": "j1", "state": "done", "result": {"x": 1}})
        folded = JobJournal(tmp_path).load()
        assert folded["j1"]["state"] == "done"
        assert folded["j1"]["submitted_at"] == 1.0  # earlier fields survive
        assert folded["j1"]["result"] == {"x": 1}
        assert folded["j2"]["state"] == "queued"

    def test_torn_trailing_line_costs_only_that_record(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.append({"id": "j1", "state": "queued"})
        journal.append({"id": "j1", "state": "running"})
        with open(journal.path, "a") as handle:
            handle.write('{"id": "j1", "state": "done", "resu')  # crash
        fresh = JobJournal(tmp_path)
        folded = fresh.load()
        assert folded["j1"]["state"] == "running"
        assert fresh.corrupt_lines == 1
        # A job accepted after the restart does not join the torn line.
        fresh.append({"id": "j2", "state": "queued"})
        again = JobJournal(tmp_path)
        assert again.load()["j2"] == {"id": "j2", "state": "queued"}
        assert again.corrupt_lines == 1

    def test_mismatched_header_loads_empty(self, tmp_path):
        path = journal_file(tmp_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"format": FORMAT_NAME, "version": 999}) + "\n"
            + '{"id": "j1", "state": "done"}\n'
        )
        fresh = JobJournal(tmp_path)
        assert fresh.load() == {}
        assert fresh.rejected_header

    def test_jobs_accepted_after_a_torn_header_survive(self, tmp_path):
        path = journal_file(tmp_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text('{"format": "tels-j')  # crash inside the header
        journal = JobJournal(tmp_path)
        assert journal.load() == {}
        journal.append({"id": "j1", "state": "queued"})
        journal.append({"id": "j1", "state": "done"})
        reborn = JobJournal(tmp_path)
        assert reborn.load() == {"j1": {"id": "j1", "state": "done"}}
        assert not reborn.rejected_header

    def test_compact_rewrites_one_line_per_job(self, tmp_path):
        journal = JobJournal(tmp_path)
        for state in ("queued", "running", "done"):
            journal.append({"id": "j1", "state": state})
        assert journal.compact([{"id": "j1", "state": "done"}])
        lines = journal.path.read_text().splitlines()
        assert len(lines) == 2  # header + one snapshot
        assert JobJournal(tmp_path).load()["j1"]["state"] == "done"


class TestRecovery:
    def _submit(self, manager: JobManager, **kwargs) -> str:
        payload = {"blif": MOTIVATIONAL_BLIF, "name": "motivational"}
        payload.update(kwargs)
        return manager.submit(payload).job_id

    def _wait(self, manager: JobManager, job_id: str) -> None:
        import time

        deadline = time.monotonic() + 30
        while not manager.get(job_id).is_terminal:
            assert time.monotonic() < deadline, "job never finished"
            time.sleep(0.01)

    def test_finished_jobs_survive_restart(self, tmp_path):
        manager = JobManager(journal_dir=str(tmp_path))
        job_id = self._submit(manager)
        self._wait(manager, job_id)
        result = manager.get(job_id).result
        manager.shutdown()

        reborn = JobManager(journal_dir=str(tmp_path))
        try:
            job = reborn.get(job_id)
            assert job.state == "done"
            assert job.result == result  # byte-identical history
            # Restored terminal jobs still serve a closing event stream.
            events = list(reborn.iter_events(job))
            assert events[-1]["event"] == "job-done"
        finally:
            reborn.shutdown()

    def test_job_accepted_into_an_empty_journal_survives_a_crash(
        self, tmp_path
    ):
        """An empty ``jobs.jsonl`` (a kill before its first write reached
        disk) must take a header with the next append: the restart below
        happens without the clean shutdown that would compact the file."""
        journal_file(tmp_path).write_text("")
        manager = JobManager(journal_dir=str(tmp_path))
        try:
            job_id = self._submit(manager)
            self._wait(manager, job_id)
            reborn = JobManager(journal_dir=str(tmp_path))
            try:
                assert not reborn.journal.rejected_header
                assert reborn.get(job_id).state == "done"
            finally:
                reborn.shutdown()
        finally:
            manager.shutdown()

    def test_interrupted_job_is_reenqueued_and_completes(self, tmp_path):
        """A journal whose job never finished (daemon crash) re-runs it."""
        journal = JobJournal(tmp_path)
        journal.append(
            {
                "id": "j000005",
                "state": "running",
                "submitted_at": 123.0,
                "started_at": 124.0,
                "request": {"blif": MOTIVATIONAL_BLIF, "name": "crashed"},
            }
        )
        manager = JobManager(journal_dir=str(tmp_path))
        try:
            self._wait(manager, "j000005")
            job = manager.get("j000005")
            assert job.state == "done"
            assert job.result["verified"] is True
            # Recovery preserved the original id sequence position.
            new_id = self._submit(manager)
            assert new_id == "j000006"
        finally:
            manager.shutdown()

    def test_torn_write_plus_reenqueue_recovers_under_chaos(
        self, tmp_path, monkeypatch
    ):
        """A daemon SIGKILLed mid-journal-write restarts into chaos and wins.

        The journal holds a running job whose terminal record was torn mid
        write (the process died inside ``append``).  Recovery must drop
        only the torn line, re-enqueue the in-flight job, and complete it
        — here with ``TELS_CHAOS`` active on the solver and cache sites,
        so the re-run also rides the retry/degradation ladder.
        """
        journal = JobJournal(tmp_path)
        journal.append(
            {
                "id": "j000004",
                "state": "running",
                "submitted_at": 10.0,
                "request": {"blif": MOTIVATIONAL_BLIF, "name": "torn"},
            }
        )
        with open(journal.path, "a") as handle:
            handle.write('{"id": "j000004", "state": "done", "resu')
        monkeypatch.setenv("TELS_CHAOS", "solver=0.25,cache=0.5:11")
        manager = JobManager(
            journal_dir=str(tmp_path), cache_dir=str(tmp_path / "cache")
        )
        try:
            assert manager.journal.corrupt_lines == 1
            self._wait(manager, "j000004")
            job = manager.get("j000004")
            assert job.state == "done"
            assert job.result["verified"] is True
        finally:
            manager.shutdown()

    def test_unparseable_journaled_request_fails_cleanly(self, tmp_path):
        journal = JobJournal(tmp_path)
        requests = (
            {"blif": MOTIVATIONAL_BLIF, "warp_factor": 9},
            # Option values the daemon rejects at submission.
            {"blif": MOTIVATIONAL_BLIF, "options": {"backend": "bogus"}},
            {
                "blif": MOTIVATIONAL_BLIF,
                "options": {"splitting_strategy": "bogus"},
            },
            {"blif": MOTIVATIONAL_BLIF, "options": {"max_weight": 0}},
        )
        for seq, request in enumerate(requests, start=1):
            journal.append(
                {"id": f"j{seq:06d}", "state": "queued", "request": request}
            )
        manager = JobManager(journal_dir=str(tmp_path))
        try:
            for seq in range(1, len(requests) + 1):
                job = manager.get(f"j{seq:06d}")
                assert job.state == "failed", seq
                assert job.error["code"] == "unrecoverable"
                # Its event stream still closes on a terminal event.
                events = list(manager.iter_events(job))
                assert [e["event"] for e in events] == ["job-failed"]
        finally:
            manager.shutdown()

    def test_shutdown_compacts_journal(self, tmp_path):
        manager = JobManager(journal_dir=str(tmp_path))
        job_id = self._submit(manager)
        self._wait(manager, job_id)
        manager.shutdown()
        lines = journal_file(tmp_path).read_text().splitlines()
        assert len(lines) == 2  # header + one folded snapshot
        snapshot = json.loads(lines[1])
        assert snapshot["state"] == "done"
        assert snapshot["request"]["name"] == "motivational"
