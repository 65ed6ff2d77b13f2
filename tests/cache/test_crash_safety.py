"""Crash-safe compaction and chaos-injected cache I/O faults."""

from __future__ import annotations

import os
import subprocess
import sys

from repro.cache.store import ABSENT, open_cache
from repro.faults.injector import CHAOS_ENV
from repro.serve.journal import JobJournal

#: Child process: populate a cache, then die at the instant compaction
#: would atomically swap the rewritten file in.  Everything before the
#: ``os.replace`` — including the temp-file fsync — has already happened.
_KILL_AT_REPLACE = """
import os, sys
import repro.cache.store as store

cache = store.open_cache(sys.argv[1])
for i in range(8):
    cache.put(f"key{i}", [i, i + 1])
cache.flush()

os.replace = lambda src, dst: os._exit(9)
cache.put("late", [99])
cache.compact()
os._exit(3)  # not reached: compact must hit the patched replace
"""

#: The same kill inside the jobs journal's compaction.
_KILL_JOURNAL_AT_REPLACE = """
import os, sys
from repro.serve.journal import JobJournal

journal = JobJournal(sys.argv[1])
for i in range(8):
    journal.append({"id": f"j{i}", "state": "queued"})

os.replace = lambda src, dst: os._exit(9)
journal.compact([{"id": "late", "state": "done"}])
os._exit(3)  # not reached: compact must hit the patched replace
"""


class TestKillDuringCompact:
    def test_old_journal_survives_a_kill_at_the_rename(self, tmp_path):
        env = dict(os.environ, PYTHONPATH="src")
        env.pop(CHAOS_ENV, None)
        proc = subprocess.run(
            [sys.executable, "-c", _KILL_AT_REPLACE, str(tmp_path)],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 9, proc.stderr
        # The kill landed between writing the temp file and the rename:
        # the original journal must be complete and loadable.
        cache = open_cache(tmp_path)
        assert cache.file_stats.corrupt_lines == 0
        for i in range(8):
            assert cache.get(f"key{i}") == [i, i + 1]
        # The rename never happened, so the un-flushed entry is absent.
        assert cache.get("late") is ABSENT

        proc = subprocess.run(
            [sys.executable, "-c", _KILL_JOURNAL_AT_REPLACE, str(tmp_path)],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 9, proc.stderr
        journal = JobJournal(tmp_path)
        folded = journal.load()
        assert journal.corrupt_lines == 0
        assert sorted(folded) == [f"j{i}" for i in range(8)]

    def test_compact_fsyncs_the_payload_before_the_rename(
        self, tmp_path, monkeypatch
    ):
        events: list[str] = []
        real_fsync, real_replace = os.fsync, os.replace
        monkeypatch.setattr(
            os,
            "fsync",
            lambda fd: (events.append("fsync"), real_fsync(fd))[1],
        )
        monkeypatch.setattr(
            os,
            "replace",
            lambda s, d: (events.append("replace"), real_replace(s, d))[1],
        )
        cache = open_cache(tmp_path)
        cache.put("k", [1])
        cache.compact()
        assert "fsync" in events and "replace" in events
        assert events.index("fsync") < events.index("replace")

    def test_compact_keeps_all_entries(self, tmp_path):
        cache = open_cache(tmp_path)
        for i in range(5):
            cache.put(f"key{i}", [i])
        cache.flush()
        cache.put("extra", None)
        cache.compact()
        again = open_cache(tmp_path)
        assert len(again) == 6
        assert again.get("extra") is None
        assert again.file_stats.corrupt_lines == 0


class TestChaosCacheFaults:
    def _seeded(self, tmp_path):
        """A cache whose file already exists (flush takes the append path)."""
        cache = open_cache(tmp_path)
        cache.put("k0", [0])
        assert cache.flush() == 1
        return cache

    def test_flush_retry_recovers_from_a_transient_fault(
        self, tmp_path, monkeypatch
    ):
        cache = self._seeded(tmp_path)
        # Seed 6: the first append attempt fails, the retry succeeds.
        monkeypatch.setenv(CHAOS_ENV, "cache=0.6:6")
        cache.put("k1", [1, 2])
        assert cache.flush() == 1
        monkeypatch.delenv(CHAOS_ENV)
        assert open_cache(tmp_path).get("k1") == [1, 2]

    def test_persistent_fault_degrades_without_raising(
        self, tmp_path, monkeypatch
    ):
        cache = self._seeded(tmp_path)
        monkeypatch.setenv(CHAOS_ENV, "cache=1.0:0")
        cache.put("k1", [1])
        assert cache.flush() == 0  # warn-and-continue, journal retained
        assert cache.dirty_count == 1
        monkeypatch.delenv(CHAOS_ENV)
        assert cache.flush() == 1  # fault cleared: the journal drains
        assert open_cache(tmp_path).get("k1") == [1]

    def test_persistent_fault_on_a_fresh_file_keeps_the_journal(
        self, tmp_path, monkeypatch
    ):
        # Fresh-file flush routes through compact(); its failure must not
        # pretend to have written anything.
        monkeypatch.setenv(CHAOS_ENV, "cache=1.0:0")
        cache = open_cache(tmp_path)
        cache.put("k1", [1])
        assert cache.flush() == 0
        monkeypatch.delenv(CHAOS_ENV)
        assert cache.flush() == 1
        assert open_cache(tmp_path).get("k1") == [1]

    def test_torn_trailing_line_is_skipped_on_reload(
        self, tmp_path, monkeypatch
    ):
        cache = self._seeded(tmp_path)
        monkeypatch.setenv(CHAOS_ENV, "cache-corrupt=1.0:0")
        cache.put("k1", [7])
        cache.put("k2", None)
        cache.flush()
        monkeypatch.delenv(CHAOS_ENV)
        again = open_cache(tmp_path)
        assert again.file_stats.corrupt_lines == 1
        assert again.get("k1") == [7]
        assert again.get("k2") is None
        assert len(again) == 3
