"""Concurrent-writer safety of the persistent cache (the serve daemon's
workers all flush the same journal).

The historical single-writer assumption is gone: ``put``/``flush``/
``compact`` are thread-safe, and the journal file itself is guarded by an
advisory ``flock`` so two appends never interleave half-lines.  The
``tels serve`` jobs journal shares that file layer, lock included.
"""

from __future__ import annotations

import pickle
import threading

from repro.cache.store import cache_file, open_cache
from repro.serve.journal import JobJournal, journal_file


class TestConcurrentWriters:
    def test_two_threads_flushing_lose_nothing(self, tmp_path):
        """The regression: interleaved put+flush from two threads."""
        cache = open_cache(tmp_path)
        per_thread = 200
        barrier = threading.Barrier(2)
        errors: list[Exception] = []

        def writer(tag: str) -> None:
            try:
                barrier.wait(timeout=10)
                for i in range(per_thread):
                    cache.put(f"{tag}:{i}", [i, i + 1])
                    if i % 7 == 0:  # flush mid-stream, both threads
                        cache.flush()
                cache.flush()
            except Exception as exc:  # pragma: no cover - fail the test
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(tag,)) for tag in ("a", "b")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        assert cache.dirty_count == 0

        # Every entry from both writers survives a cold reload: no torn
        # lines, no lost appends.
        reloaded = open_cache(tmp_path)
        assert len(reloaded) == 2 * per_thread
        assert reloaded.file_stats.corrupt_lines == 0
        for tag in ("a", "b"):
            for i in range(per_thread):
                assert reloaded.get(f"{tag}:{i}") == [i, i + 1]

    def test_put_during_flush_is_not_dropped(self, tmp_path):
        """An entry added while another thread flushes still reaches disk."""
        cache = open_cache(tmp_path)
        for i in range(50):
            cache.put(f"warm:{i}", [i])
        racing = threading.Thread(
            target=lambda: cache.put("late", [99]) or cache.flush()
        )
        racing.start()
        cache.flush()
        racing.join(timeout=10)
        cache.flush()
        reloaded = open_cache(tmp_path)
        assert reloaded.get("late") == [99]
        assert len(reloaded) == 51

    def test_concurrent_compact_and_put(self, tmp_path):
        cache = open_cache(tmp_path)
        for i in range(20):
            cache.put(f"k{i}", [i])
        cache.flush()

        stop = threading.Event()

        def compactor() -> None:
            while not stop.is_set():
                cache.compact()

        thread = threading.Thread(target=compactor)
        thread.start()
        try:
            for i in range(20, 120):
                cache.put(f"k{i}", [i])
                cache.flush()
        finally:
            stop.set()
            thread.join(timeout=10)
        cache.compact()
        reloaded = open_cache(tmp_path)
        assert len(reloaded) == 120
        assert reloaded.file_stats.corrupt_lines == 0

    def test_pickle_snapshot_while_writing(self, tmp_path):
        """Engine workers pickle the cache while the daemon mutates it."""
        cache = open_cache(tmp_path)
        stop = threading.Event()

        def mutator() -> None:
            # Bounded: an unbounded spin loses the race against the O(n)
            # snapshot copies and the test goes quadratic (each pickle
            # grows the dict the next pickle must copy).
            i = 0
            while not stop.is_set() and i < 5000:
                cache.put(f"m{i}", [i])
                i += 1

        thread = threading.Thread(target=mutator)
        thread.start()
        try:
            for _ in range(50):
                clone = pickle.loads(pickle.dumps(cache))
                assert clone.get("m0") in ([0], clone.get("m0"))
        finally:
            stop.set()
            thread.join(timeout=10)

    def test_advisory_lock_file_appears(self, tmp_path):
        try:
            import fcntl  # noqa: F401
        except ImportError:  # pragma: no cover - non-POSIX fallback
            return
        cache = open_cache(tmp_path)
        cache.put("k", [1])
        cache.flush()
        journal = JobJournal(tmp_path)
        journal.append({"id": "j1", "state": "queued"})
        for path in (cache_file(tmp_path), journal_file(tmp_path)):
            assert path.with_name(path.name + ".lock").exists(), path.name
