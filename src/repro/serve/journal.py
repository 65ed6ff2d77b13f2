"""Crash-tolerant jobs journal for the ``tels serve`` daemon.

Same idiom as the persistent synthesis cache
(:mod:`repro.cache.store`): one JSON-lines file (``jobs.jsonl``) holding a
version header followed by incremental job records.  Every state change
appends one line ``{"id": ..., "t": ..., ...changed fields...}``; loading
folds the lines per job id (last writer wins per field), skipping torn or
corrupt lines, so the journal survives a daemon killed mid-write:

* a job that reached ``done``/``failed``/``cancelled`` before the crash is
  restored with its full result and served as history;
* a job still ``queued`` or ``running`` is restored with its persisted
  request and re-enqueued — an accepted job is never lost;
* a torn trailing line (the crash interrupted the append itself) only
  costs that one record: the previous state of the job still folds.

:meth:`JobJournal.compact` rewrites the file as one snapshot line per job,
durable-then-atomic exactly like cache compaction (fsync before rename),
bounding journal growth across restarts.
"""

from __future__ import annotations

import json
import logging
import os
import threading
from pathlib import Path

logger = logging.getLogger("repro.serve")

JOURNAL_FILENAME = "jobs.jsonl"
FORMAT_NAME = "tels-jobs"
FORMAT_VERSION = 1


def journal_file(directory: str | Path) -> Path:
    return Path(directory) / JOURNAL_FILENAME


class JobJournal:
    """Append-only JSON-lines persistence of job state transitions."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.path = journal_file(directory)
        self._lock = threading.Lock()
        self.corrupt_lines = 0
        self.rejected_header = False
        # After a rejected header, records appended behind it would never
        # load again: the next append starts the file over.
        self._needs_rewrite = False
        self.directory.mkdir(parents=True, exist_ok=True)

    def _header(self) -> dict:
        return {"format": FORMAT_NAME, "version": FORMAT_VERSION}

    # -- writing -------------------------------------------------------
    def append(self, record: dict) -> None:
        """Persist one job record (must carry an ``id``); best effort."""
        line = json.dumps(record, separators=(",", ":"), sort_keys=True)
        with self._lock:
            try:
                fresh = self._needs_rewrite or not self.path.exists()
                with open(self.path, "w" if fresh else "a") as handle:
                    if fresh:
                        handle.write(json.dumps(self._header()) + "\n")
                    handle.write(line + "\n")
                    handle.flush()
                self._needs_rewrite = False
            except OSError as exc:
                logger.warning(
                    "jobs journal %s append failed (%s)", self.path, exc
                )

    def compact(self, snapshots: list[dict]) -> bool:
        """Rewrite the journal as one folded record per job, crash-safely."""
        lines = [json.dumps(self._header())]
        lines.extend(
            json.dumps(snap, separators=(",", ":"), sort_keys=True)
            for snap in snapshots
        )
        payload = "".join(line + "\n" for line in lines)
        tmp = self.path.with_name(self.path.name + ".tmp")
        with self._lock:
            try:
                with open(tmp, "w") as handle:
                    handle.write(payload)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp, self.path)
                self._needs_rewrite = False
            except OSError as exc:
                logger.warning(
                    "jobs journal %s compaction failed (%s)", self.path, exc
                )
                return False
        return True

    # -- loading -------------------------------------------------------
    def load(self) -> dict[str, dict]:
        """Fold the journal into ``{job_id: merged record}`` (insert order).

        Corrupt lines and records without an ``id`` are counted and
        skipped; a missing, unreadable, or header-mismatched file loads as
        empty (the daemon starts with no history rather than failing), and
        a header-mismatched one is started over by the next append.
        """
        folded: dict[str, dict] = {}
        try:
            text = self.path.read_text()
        except FileNotFoundError:
            return folded
        except OSError as exc:
            logger.warning(
                "jobs journal %s unreadable (%s); starting empty",
                self.path,
                exc,
            )
            return folded
        lines = text.splitlines()
        if not lines:
            return folded
        try:
            header = json.loads(lines[0])
            ok = (
                header.get("format") == FORMAT_NAME
                and header.get("version") == FORMAT_VERSION
            )
        except (json.JSONDecodeError, AttributeError):
            ok = False
        if not ok:
            logger.warning(
                "jobs journal %s has a mismatched or corrupt header; "
                "starting empty",
                self.path,
            )
            self.rejected_header = True
            self._needs_rewrite = True
            return folded
        for line in lines[1:]:
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                job_id = record["id"]
                if not isinstance(job_id, str):
                    raise TypeError("job id must be a string")
            except (json.JSONDecodeError, KeyError, TypeError):
                self.corrupt_lines += 1
                continue
            folded.setdefault(job_id, {}).update(record)
        if self.corrupt_lines:
            logger.warning(
                "jobs journal %s: skipped %d corrupt line(s)",
                self.path,
                self.corrupt_lines,
            )
        return folded
