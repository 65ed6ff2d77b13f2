"""Crash-tolerant jobs journal for the ``tels serve`` daemon.

One JSON-lines file (``jobs.jsonl``) holding a version header followed by
incremental job records, kept by the same file layer as the persistent
synthesis cache (:class:`repro.cache.store.JsonLinesFile`: header check,
torn-line tolerance, flock, retry, crash-safe rewrite).  Every state
change appends one line ``{"id": ..., "t": ..., ...changed fields...}``;
loading folds the lines per job id (last writer wins per field), so the
journal survives a daemon killed mid-write:

* a job that reached ``done``/``failed``/``cancelled`` before the crash is
  restored with its full result and served as history;
* a job still ``queued`` or ``running`` is restored with its persisted
  request and re-enqueued — an accepted job is never lost;
* a torn trailing line (the crash interrupted the append itself) only
  costs that one record: the previous state of the job still folds.

:meth:`JobJournal.compact` rewrites the file as one snapshot line per job,
durable-then-atomic (fsync before rename), bounding journal growth across
restarts.
"""

from __future__ import annotations

from pathlib import Path

from repro.cache.store import JsonLinesFile

JOURNAL_FILENAME = "jobs.jsonl"
FORMAT_NAME = "tels-jobs"
FORMAT_VERSION = 1


def journal_file(directory: str | Path) -> Path:
    return Path(directory) / JOURNAL_FILENAME


def _job_record(record: dict) -> dict:
    if not isinstance(record["id"], str):
        raise TypeError("job id must be a string")
    return record


class JobJournal(JsonLinesFile):
    """Append-only JSON-lines persistence of job state transitions."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        super().__init__(
            journal_file(directory),
            {"format": FORMAT_NAME, "version": FORMAT_VERSION},
        )

    def append(self, record: dict) -> None:
        """Persist one job record (must carry an ``id``); best effort."""
        self.extend([record])

    def load(self) -> dict[str, dict]:
        """Fold the journal into ``{job_id: merged record}`` (insert order).

        Corrupt lines and records without a string ``id`` are counted and
        skipped; a missing, unreadable, or header-mismatched file loads as
        empty (the daemon starts with no history rather than failing).
        """
        folded: dict[str, dict] = {}
        for record in self.read(_job_record):
            folded.setdefault(record["id"], {}).update(record)
        return folded
