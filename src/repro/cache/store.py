"""Disk-backed persistent cache of solved weight–threshold vectors.

The cache is a JSON-lines file (``cache.jsonl`` inside a cache directory):
a header line identifying the format, version, and canonicalization
fingerprint, then one line per entry mapping an NP-canonical cover
signature plus the solver-relevant parameters to the solved vector in
canonical space (or ``null`` for a proven non-threshold class).

:class:`JsonLinesFile` owns the file; the ``tels serve`` jobs journal
(:mod:`repro.serve.journal`) is the same class, so both files get:

* **batch append** — a flush writes all journaled entries in one buffered
  write to an append-mode handle; a torn line from a crash is skipped (and
  counted) by the corruption-tolerant loader, and the next append ends it
  first, so it costs only its own record.
* **single-writer locking** — every mutation (append, compaction,
  removal) holds an instance lock *and* an advisory ``<file>.lock``
  flock, so the daemon's job threads — or two processes sharing one
  directory — cannot interleave partial appends or race a rename.
* **graceful degradation** — a corrupted, truncated, or version- or
  fingerprint-mismatched file is logged and read as empty (the run goes
  cold instead of failing).  A file without a valid header line — missing,
  empty, or rejected — is never appended to: the next write starts it over.
* **crash-safe compaction** — the temp file is flushed and fsynced *before*
  the atomic rename (plus a best-effort directory fsync), so a process
  killed mid-compaction leaves either the complete old file or the
  complete new one.  Starting a file over takes the same path.
* **retry with backoff** — a transient ``OSError`` is retried a few times
  with deterministic exponential backoff before the usual warn-and-continue
  degradation (see docs/RESILIENCE.md).  The chaos harness (``TELS_CHAOS``)
  injects write failures (``cache``) and torn trailing lines
  (``cache-corrupt``) into ``cache.jsonl`` only, through the hooks
  :class:`PersistentCache` hands its file; the journal is never a chaos site.

New cache entries accumulate in a dirty journal; the engine's process-pool
workers hold read-only copies (pickling a cache drops its journal and write
permission), journal through :class:`~repro.engine.store.StoreDelta`, and
the parent commits the merged deltas here.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import logging
import os
import threading
from collections.abc import Callable
from pathlib import Path
from typing import Any, TypeVar

from repro.cache.canonical import CANONICAL_FINGERPRINT
from repro.faults.injector import get_injector
from repro.faults.retry import RetryPolicy, retry_call

try:  # advisory inter-process locking (POSIX only; see JsonLinesFile._flock)
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

logger = logging.getLogger("repro.cache")

#: I/O retry schedule for appends/compaction (short: disk hiccups, not locks).
_IO_RETRY = RetryPolicy(max_attempts=3, base_backoff_s=0.01, max_backoff_s=0.1)

T = TypeVar("T")


def _fsync_dir(directory: Path) -> None:
    """Best-effort fsync of a directory entry (no-op where unsupported)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        with contextlib.suppress(OSError):
            os.fsync(fd)
    finally:
        os.close(fd)

CACHE_FILENAME = "cache.jsonl"
FORMAT_NAME = "tels-cache"
FORMAT_VERSION = 1

#: Miss sentinel: distinguishes "no entry" from a cached ``None`` verdict.
ABSENT = object()


class JsonLinesFile:
    """One crash-safe JSON-lines file: a header line, then one record a line.

    The header line is ``json.dumps(header)``; each record is a compact,
    key-sorted JSON object.  Owners encode their state as records and
    decode it through :meth:`read`; everything that touches the file —
    opening, parsing, locking, renaming, fsyncing — happens here.
    ``write_fault(op, attempt)`` and ``torn_line(op)`` are chaos hooks
    (``op`` is ``"flush"`` for an append, ``"compact"`` for a rewrite).
    """

    def __init__(
        self,
        path: str | Path,
        header: dict,
        write_fault: Callable[[str, int], None] | None = None,
        torn_line: Callable[[str], str] | None = None,
    ):
        self.path = Path(path)
        self.header = header
        self.corrupt_lines = 0
        self.rejected_header = False
        self._write_fault = write_fault
        self._torn_line = torn_line
        # Set when a read found no usable header: the next write starts
        # the file over instead of appending behind it.
        self._needs_rewrite = False
        self._lock = threading.Lock()

    @contextlib.contextmanager
    def _flock(self):
        """Exclusive inter-process flock on ``<file>.lock`` (best effort).

        The instance lock serializes this process's threads; the flock
        extends the single-writer guarantee across processes sharing one
        directory.  Platforms without :mod:`fcntl` (and unopenable lock
        files) degrade to the instance lock alone.
        """
        if fcntl is None:
            yield
            return
        lock_path = self.path.with_name(self.path.name + ".lock")
        try:
            handle = open(lock_path, "a")
        except OSError:
            yield
            return
        try:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            yield
        finally:
            with contextlib.suppress(OSError):
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
            handle.close()

    # -- reading -------------------------------------------------------
    def read(self, parse: Callable[[Any], T]) -> list[T]:
        """``parse`` applied to every record line, in file order.

        A missing file reads as empty.  An unreadable file, or one whose
        first line is not this header, reads as empty too, and the next
        write starts it over.  A line that is not JSON, or whose record
        ``parse`` refuses with ``KeyError``, ``TypeError`` or
        ``ValueError``, is counted in :attr:`corrupt_lines` and skipped.
        """
        self.corrupt_lines = 0
        self.rejected_header = False
        try:
            lines = self.path.read_text().splitlines()
        except FileNotFoundError:
            return []
        except OSError as exc:
            logger.warning("%s unreadable (%s); starting empty", self.path, exc)
            self._needs_rewrite = True
            return []
        if not lines:
            return []
        try:
            found = json.loads(lines[0])
            ok = all(found.get(k) == v for k, v in self.header.items())
        except (ValueError, AttributeError):
            ok = False
        if not ok:
            logger.warning(
                "%s has a mismatched or corrupt header; starting empty",
                self.path,
            )
            self.rejected_header = True
            self._needs_rewrite = True
            return []
        records = []
        for line in lines[1:]:
            if not line.strip():
                continue
            try:
                records.append(parse(json.loads(line)))
            except (KeyError, TypeError, ValueError):
                self.corrupt_lines += 1
        if self.corrupt_lines:
            logger.warning(
                "%s: skipped %d corrupt line(s)", self.path, self.corrupt_lines
            )
        return records

    # -- writing -------------------------------------------------------
    @staticmethod
    def _encode(records: list[dict]) -> str:
        return "".join(
            json.dumps(record, separators=(",", ":"), sort_keys=True) + "\n"
            for record in records
        )

    def extend(
        self,
        records: list[dict],
        snapshot: Callable[[], list[dict]] | None = None,
    ) -> int:
        """Append ``records`` in one batch; returns the records written.

        A file without a valid header line (missing, empty, or refused by
        the last :meth:`read`) is started over instead, through
        :meth:`compact`, as the header plus ``snapshot()`` (default:
        ``records``).  An empty batch writes nothing unless the last read
        refused the file.  A torn last line (a crash mid-append) is ended
        first, so the batch does not join it.  A failed write is logged and
        returns 0.
        """
        with self._lock:
            if not records and not self._needs_rewrite:
                return 0
            with self._flock():
                if self._starts_over():
                    records = records if snapshot is None else snapshot()
                    return len(records) if self._replace(records) else 0
                payload = self._encode(records)
                if self._torn_line is not None:
                    payload += self._torn_line("flush")

                def append() -> None:
                    with open(self.path, "a+b") as handle:
                        handle.seek(-1, os.SEEK_END)
                        torn = handle.read(1) != b"\n"
                        handle.write((("\n" if torn else "") + payload).encode())

                ok = self._retrying("flush", append, str(self.path))
                return len(records) if ok else 0

    def _starts_over(self) -> bool:
        try:
            return self._needs_rewrite or self.path.stat().st_size == 0
        except OSError:
            return True

    def compact(self, records: list[dict]) -> bool:
        """Crash-safely rewrite the file as the header plus ``records``.

        Durable-then-atomic: the temp file is fsynced before ``os.replace``
        swaps it in, and the directory entry is fsynced afterwards (best
        effort), so a kill at any instant leaves a complete file.  Returns
        True when the rewrite reached disk; a failure is logged.
        """
        with self._lock, self._flock():
            return self._replace(records)

    def _replace(self, records: list[dict]) -> bool:
        tmp = self.path.with_name(self.path.name + ".tmp")
        payload = json.dumps(self.header) + "\n" + self._encode(records)

        def rewrite() -> None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(tmp, "w") as handle:
                handle.write(payload)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, self.path)
            _fsync_dir(self.path.parent)

        if not self._retrying("compact", rewrite, str(tmp)):
            return False
        self._needs_rewrite = False
        return True

    def _retrying(self, op: str, write: Callable[[], None], key: str) -> bool:
        """Run ``write`` under :data:`_IO_RETRY`; False (logged) if it fails."""

        def attempt(number: int) -> None:
            if self._write_fault is not None:
                self._write_fault(op, number)
            write()

        try:
            retry_call(attempt, _IO_RETRY, retryable=(OSError,), key=key)
        except OSError as exc:
            logger.warning("%s %s failed (%s)", self.path, op, exc)
            return False
        return True

    def remove(self) -> None:
        """Delete the file (best effort; a missing file is fine)."""
        with self._lock:
            self._needs_rewrite = False
            try:
                with self._flock():
                    self.path.unlink(missing_ok=True)
            except OSError as exc:
                logger.warning("%s removal failed (%s)", self.path, exc)


def signature_string(cover_key: tuple) -> str:
    """Serialize a canonical cover key as a compact, exact string."""
    nvars, rows = cover_key
    return f"{nvars}:" + ",".join(f"{pos}.{neg}" for pos, neg in rows)


def parse_signature(text: str) -> tuple:
    """Inverse of :func:`signature_string`."""
    head, _, body = text.partition(":")
    nvars = int(head)
    rows = []
    if body:
        for item in body.split(","):
            pos, _, neg = item.partition(".")
            rows.append((int(pos), int(neg)))
    return (nvars, tuple(rows))


def values_etag(values: list[int] | None) -> str:
    """Content fingerprint of one cache entry's canonical values.

    Served as the ``ETag`` of the network cache tier
    (``GET /cache/{key}``) and recomputed by the client over the received
    body, so a payload corrupted in transit is detected before it even
    reaches the transform+verify path.
    """
    payload = json.dumps(values, separators=(",", ":")).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def entry_key(
    signature: str,
    delta_on: int,
    delta_off: int,
    max_weight: int | None,
    model: str | None = None,
) -> str:
    """The persisted lookup key: canonical signature + solve parameters.

    ``model`` is the gate-model fingerprint; the default single-threshold
    model keeps the historical un-suffixed key, every other backend gets a
    disjoint key space inside the same cache file.
    """
    wmax = "-" if max_weight is None else str(max_weight)
    base = f"{signature}|{delta_on}|{delta_off}|{wmax}"
    if model is None:
        return base
    return f"{base}|{model}"


def _entry(record: dict) -> tuple[str, list[int] | None]:
    """One cache line's ``(key, values)``; raises on a malformed record."""
    key, values = record["k"], record["v"]
    if not isinstance(key, str):
        raise TypeError("entry key must be a string")
    return key, None if values is None else [int(v) for v in values]


class PersistentCache:
    """One on-disk vector cache, loaded eagerly, journaled incrementally.

    ``file_stats`` is its :class:`JsonLinesFile`, whose ``corrupt_lines``
    and ``rejected_header`` report what loading saw.
    """

    def __init__(
        self,
        path: str | Path,
        fingerprint: str = CANONICAL_FINGERPRINT,
        read_only: bool = False,
    ):
        self._setup(Path(path), fingerprint, read_only)
        self._entries.update(self.file_stats.read(_entry))

    def _setup(self, path: Path, fingerprint: str, read_only: bool) -> None:
        self.path = path
        self.fingerprint = fingerprint
        self.read_only = read_only
        self._entries: dict[str, list[int] | None] = {}
        self._dirty: dict[str, list[int] | None] = {}
        self._lock = threading.RLock()
        header = dict(
            format=FORMAT_NAME, version=FORMAT_VERSION, fingerprint=fingerprint
        )
        self.file_stats = JsonLinesFile(
            path, header, self._chaos_write_fault, self._chaos_torn_line
        )

    # -- lookups -------------------------------------------------------
    def get(self, key: str):
        """The canonical-space values for ``key``, or :data:`ABSENT`."""
        return self._entries.get(key, ABSENT)

    def put(self, key: str, values: list[int] | None) -> bool:
        """Install an entry; journals it for the next flush. False if known."""
        with self._lock:
            if key in self._entries:
                return False
            self._entries[key] = values
            if not self.read_only:
                self._dirty[key] = values
            return True

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def dirty_count(self) -> int:
        return len(self._dirty)

    @property
    def solved_count(self) -> int:
        """Entries holding a vector (the rest are non-threshold verdicts)."""
        return sum(1 for v in self._entries.values() if v is not None)

    # -- persistence ---------------------------------------------------
    def _snapshot(self) -> list[dict]:
        return [{"k": k, "v": v} for k, v in sorted(self._entries.items())]

    def flush(self) -> int:
        """Append journaled entries to disk; returns lines written.

        A file that starts over is rewritten with every entry, all counted.
        On a failed write the batch stays journaled for a later flush.
        """
        if self.read_only:
            return 0
        with self._lock:
            dirty, self._dirty = self._dirty, {}
            written = self.file_stats.extend(
                [{"k": k, "v": v} for k, v in dirty.items()], self._snapshot
            )
            if not written:
                self._dirty = dirty
            return written

    def compact(self) -> bool:
        """Crash-safely rewrite the file: header + deduplicated entries.

        True when the rewrite reached disk; on failure the journal is
        retained for a later flush.
        """
        if self.read_only:
            return False
        with self._lock:
            if not self.file_stats.compact(self._snapshot()):
                return False
            self._dirty.clear()
            return True

    # -- chaos hooks ----------------------------------------------------
    def _chaos_write_fault(self, op: str, attempt: int) -> None:
        """Raise an injected OSError for this (operation, attempt).

        Keyed per attempt, so a retried write rolls the dice again — at
        rates below 1.0 the retry path usually recovers, exactly like a
        transient disk fault.
        """
        injector = get_injector()
        if injector is not None and injector.decide(
            "cache", f"{self.path.name}|{op}|attempt{attempt}"
        ):
            raise OSError(f"chaos: injected cache {op} failure")

    def _chaos_torn_line(self, op: str) -> str:
        """A torn trailing line (what a crash mid-append leaves behind)."""
        injector = get_injector()
        if injector is not None and injector.decide(
            "cache-corrupt", f"{self.path.name}|{op}|{len(self._entries)}"
        ):
            return '{"k":"torn'
        return ""

    def clear(self) -> None:
        """Drop every entry, in memory and on disk."""
        with self._lock:
            self._entries.clear()
            self._dirty.clear()
            if not self.read_only:
                self.file_stats.remove()

    # -- worker shipping -----------------------------------------------
    def __getstate__(self) -> dict:
        """Pickle as a read-only snapshot: workers look up, never write."""
        with self._lock:
            return {
                "path": str(self.path),
                "fingerprint": self.fingerprint,
                "entries": dict(self._entries),
            }

    def __setstate__(self, state: dict) -> None:
        self._setup(Path(state["path"]), state["fingerprint"], read_only=True)
        self._entries = state["entries"]

    def __repr__(self) -> str:
        mode = "ro" if self.read_only else "rw"
        return (
            f"PersistentCache({str(self.path)!r}, {mode}, "
            f"entries={len(self._entries)}, dirty={len(self._dirty)})"
        )


def cache_file(directory: str | Path) -> Path:
    return Path(directory) / CACHE_FILENAME


def open_cache(
    directory: str | Path,
    fingerprint: str = CANONICAL_FINGERPRINT,
    read_only: bool = False,
) -> PersistentCache:
    """Open (creating the directory for) the cache file under ``directory``."""
    path = cache_file(directory)
    if not read_only:
        path.parent.mkdir(parents=True, exist_ok=True)
    return PersistentCache(path, fingerprint=fingerprint, read_only=read_only)
