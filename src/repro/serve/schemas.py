"""Wire schemas of the ``tels serve`` job API.

Everything that crosses the HTTP boundary (or the jobs journal) is a plain
JSON-serializable dict, produced and validated here so the daemon, the
client, and the journal agree on one shape:

* **job request** — ``{"blif": "...", "options": {...}, "name", "jobs",
  "use_cache"}``; :func:`parse_job_request` validates field types, bounds,
  and the BLIF text itself (fail fast: a malformed circuit is rejected at
  submission with a structured 400, it never reaches the queue).
* **job snapshot** — id, state, timestamps, and (when terminal) the result
  or error payload; this is also the journal's folded record, so a
  restarted daemon serves exactly what it persisted.
* **result** — the :class:`~repro.core.synthesis.SynthesisReport` rendered
  to JSON: the synthesized network as BLIF-TH text (byte-identical to what
  ``tels synth -o`` writes), gate/level/area stats, the lint report in both
  JSON and SARIF 2.1.0 form (the PR 4 emitters), engine-trace totals, and
  the per-job cache counters the multi-tenant tests gate on.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field

from repro.core.synthesis import CLIENT_FIELDS, SynthesisOptions
from repro.errors import BlifError, ReproError, SynthesisError


def _json_types(annotation) -> tuple[type, ...]:
    """A field's JSON types: ``float`` also takes ints, ``X | None`` null."""
    args = typing.get_args(annotation) or (annotation,)
    accepted: tuple[type, ...] = ()
    for kind in args:
        accepted += (int, float) if kind is float else (kind,)
    return accepted


#: The client-settable :data:`~repro.core.synthesis.CLIENT_FIELDS` with
#: the JSON types each accepts; every other option stays server-side.
OPTION_FIELDS: dict[str, tuple[type, ...]] = {
    name: _json_types(annotation)
    for name, annotation in typing.get_type_hints(SynthesisOptions).items()
    if name in CLIENT_FIELDS
}

#: Cap on per-job cone worker processes a client may request.
MAX_JOB_WORKERS = 8

#: Cap on remote-worker ids / task ids crossing the work API (DoS hygiene:
#: these land in dict keys and log lines verbatim).
MAX_WORK_ID_LEN = 128


def validate_work_id(value, field_name: str) -> str:
    """Validate a worker/task identifier crossing the ``/work`` API."""
    if not isinstance(value, str) or not value:
        raise ApiError(
            400, f"{field_name!r} must be a non-empty string", code="bad-work"
        )
    if len(value) > MAX_WORK_ID_LEN:
        raise ApiError(
            400,
            f"{field_name!r} exceeds {MAX_WORK_ID_LEN} characters",
            code="bad-work",
        )
    return value


class ApiError(ReproError):
    """A structured API failure: HTTP status plus a JSON error payload."""

    def __init__(
        self,
        status: int,
        message: str,
        code: str = "bad-request",
        detail: dict | None = None,
    ):
        super().__init__(message)
        self.status = status
        self.code = code
        self.detail = detail or {}

    def to_dict(self) -> dict:
        payload = {"code": self.code, "message": str(self)}
        if self.detail:
            payload["detail"] = self.detail
        return {"error": payload}


@dataclass
class JobRequest:
    """A validated submission: the circuit plus how to synthesize it."""

    blif: str
    name: str = "network"
    options: dict = field(default_factory=dict)
    jobs: int = 1
    use_cache: bool = True

    def to_dict(self) -> dict:
        """The journal/wire form (re-parseable by :func:`parse_job_request`)."""
        return {
            "blif": self.blif,
            "name": self.name,
            "options": dict(self.options),
            "jobs": self.jobs,
            "use_cache": self.use_cache,
        }

    def build_options(self) -> SynthesisOptions:
        """Construct the :class:`SynthesisOptions` this request describes."""
        try:
            return SynthesisOptions(**self.options)
        except SynthesisError as exc:
            raise ApiError(
                400, f"invalid synthesis options: {exc}", code="bad-options"
            ) from exc


def validate_options(options: dict) -> dict:
    """Type-check an options dict against :data:`OPTION_FIELDS`."""
    if not isinstance(options, dict):
        raise ApiError(400, "options must be an object", code="bad-options")
    clean: dict = {}
    for key, value in options.items():
        allowed = OPTION_FIELDS.get(key)
        if allowed is None:
            raise ApiError(
                400,
                f"unknown option {key!r}",
                code="bad-options",
                detail={"allowed": sorted(OPTION_FIELDS)},
            )
        # bool is an int subclass: reject True where an int is expected.
        if isinstance(value, bool) and bool not in allowed:
            raise ApiError(
                400, f"option {key!r} must not be a boolean", code="bad-options"
            )
        if not isinstance(value, allowed):
            names = "/".join(
                t.__name__ for t in allowed if t is not type(None)
            )
            raise ApiError(
                400,
                f"option {key!r} must be {names}",
                code="bad-options",
            )
        clean[key] = value
    return clean


def parse_job_request(payload) -> JobRequest:
    """Validate a ``POST /jobs`` body into a :class:`JobRequest`.

    Raises :class:`ApiError` (status 400) on any malformation, including a
    BLIF text that does not parse — the error payload carries the
    structured :class:`~repro.errors.BlifError` coordinates so clients see
    ``{"code": "blif-error", "detail": {"line": N}}`` instead of a 500.
    """
    if not isinstance(payload, dict):
        raise ApiError(400, "request body must be a JSON object")
    blif = payload.get("blif")
    if not isinstance(blif, str) or not blif.strip():
        raise ApiError(400, "a non-empty 'blif' field is required")
    name = payload.get("name", "network")
    if not isinstance(name, str) or not name:
        raise ApiError(400, "'name' must be a non-empty string")
    jobs = payload.get("jobs", 1)
    if not isinstance(jobs, int) or isinstance(jobs, bool):
        raise ApiError(400, "'jobs' must be an integer")
    if not 1 <= jobs <= MAX_JOB_WORKERS:
        raise ApiError(
            400, f"'jobs' must be between 1 and {MAX_JOB_WORKERS}"
        )
    use_cache = payload.get("use_cache", True)
    if not isinstance(use_cache, bool):
        raise ApiError(400, "'use_cache' must be a boolean")
    unknown = set(payload) - {"blif", "name", "options", "jobs", "use_cache"}
    if unknown:
        raise ApiError(
            400, f"unknown field(s): {', '.join(sorted(unknown))}"
        )
    options = validate_options(payload.get("options", {}))
    request = JobRequest(
        blif=blif, name=name, options=options, jobs=jobs, use_cache=use_cache
    )
    # Fail fast on both the circuit and the option values: a job that can
    # never run must be rejected at the door, not enqueued.
    request.build_options()
    from repro.io.blif import parse_blif

    try:
        parse_blif(blif, default_name=name)
    except BlifError as exc:
        message = str(exc)
        if exc.line_number is not None:
            message = message.removeprefix(f"line {exc.line_number}: ")
        raise ApiError(
            400,
            f"malformed BLIF: {message}",
            code="blif-error",
            detail={"line": exc.line_number},
        ) from exc
    return request


def report_to_dict(network, report, source_verified: bool, wall_s: float) -> dict:
    """Render a finished synthesis into the job-result JSON payload."""
    from repro.core.area import network_stats
    from repro.io.thblif import to_thblif
    from repro.lint.emitters import to_json as lint_to_json
    from repro.lint.emitters import to_sarif as lint_to_sarif

    stats = network_stats(network)
    trace = report.trace
    result: dict = {
        "network": {
            "name": network.name,
            "gates": stats.gates,
            "levels": stats.levels,
            "area": stats.area,
            "thblif": to_thblif(network),
        },
        "verified": source_verified,
        "wall_s": round(wall_s, 6),
        "synthesis": {
            "nodes_processed": report.nodes_processed,
            "gates_emitted": report.gates_emitted,
            "binate_splits": report.binate_splits,
            "unate_splits": report.unate_splits,
            "theorem2_applications": report.theorem2_applications,
            "degraded_cones": report.degraded_cones,
            "degraded": [
                {"task": d.task_id, "reason": d.reason}
                for d in report.degraded
            ],
        },
    }
    if trace is not None:
        result["trace"] = {
            "tasks": trace.num_tasks,
            "backend": trace.backend,
            "jobs": trace.jobs,
            "gate_model": trace.gate_model,
            "wall_s": round(trace.wall_s, 6),
            "retries": trace.retries,
            "requeues": trace.requeues,
            "lease_expirations": trace.lease_expirations,
            "remote_workers": trace.remote_workers,
            "remote_fallback_tasks": trace.remote_fallback_tasks,
            "remote_fallback_reason": trace.remote_fallback_reason,
            "quarantined": len(trace.quarantined),
            "degraded": len(trace.degraded),
        }
        # This run's cone records only: the daemon's store is shared by
        # concurrent jobs, so its own counters are not per-job numbers.
        check, store = trace.folded()
        result["cache"] = {
            "checker_calls": check.calls,
            "store_hits": check.cache_hits,
            "persistent_hits": store.persistent_hits,
            "persistent_misses": store.persistent_misses,
            "transformed_hits": store.transformed_hits,
            "ilp_solved": check.ilp_solved,
            "fastpath_hits": check.fastpath_hits,
        }
    if report.lint is not None:
        result["lint"] = {
            "clean": report.lint.is_clean,
            "violations": report.lint.violations,
            "json": lint_to_json(report.lint),
            "sarif": lint_to_sarif(report.lint),
        }
    if getattr(report, "analysis", None) is not None:
        # The dataflow post-pass (options.analyze): certificate, verified
        # removal candidates, fixpoint accounting.
        result["analysis"] = report.analysis.to_dict()
    return result
