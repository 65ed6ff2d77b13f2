"""The ``tels serve`` HTTP daemon: stdlib-only JSON API over the engine.

Routes (all JSON unless noted):

===========================  =====================================================
``POST   /jobs``             submit a BLIF + options; 202 with the job snapshot
``GET    /jobs``             list job snapshots (most recent last)
``GET    /jobs/{id}``        job status (result summary once done)
``GET    /jobs/{id}/result`` full result; ``?format=thblif`` (text) or
                             ``?format=sarif`` (SARIF 2.1.0 lint log)
``GET    /jobs/{id}/events`` live progress stream: NDJSON, or SSE when the
                             Accept header asks for ``text/event-stream``;
                             ``?since=N`` resumes after event ``N-1``
``DELETE /jobs/{id}``        cooperative cancellation
``GET    /healthz``          liveness (always 200 while serving) + fault counters
``GET    /stats``            queue depth, job counts, store/cache hit rates,
                             resilience and work-broker counters
``GET    /cache/{key}``      network cache tier: one NP-canonical entry
                             (ETag = content hash; 412 on fingerprint skew)
``PUT    /cache/{key}``      publish one solved entry into the shared tier
``POST   /work/sessions``    open a distribution session (opaque payload)
``POST   /work/claim``       worker: lease a batch of queued cone tasks
                             (long-polls up to ``wait_s``)
``POST   /work/heartbeat``   worker: renew liveness + every held lease
``...    /work/sessions/{id}/...``  payload / tasks / results / collect /
                             withdraw / DELETE — see :mod:`repro.serve.broker`
===========================  =====================================================

Built on :class:`http.server.ThreadingHTTPServer` — one thread per
connection, so long-lived event streams never starve control requests —
with all synthesis work delegated to the :class:`~repro.serve.jobs.JobManager`
worker pool.  Errors are structured: every non-2xx body is
``{"error": {"code", "message", ...}}`` (a malformed BLIF is a 400 carrying
the parser's line number, never a 500).
"""

from __future__ import annotations

import contextlib
import json
import logging
import math
import threading
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.serve.jobs import JobManager
from repro.serve.schemas import ApiError
from repro.serve.sse import (
    NDJSON_CONTENT_TYPE,
    SSE_CONTENT_TYPE,
    encode_ndjson,
    encode_sse,
    wants_sse,
)

logger = logging.getLogger("repro.serve")

#: Submission bodies larger than this are rejected up front (64 MiB).
MAX_BODY_BYTES = 64 * 1024 * 1024


class ServeHandler(BaseHTTPRequestHandler):
    """Request router; the owning server carries the :class:`JobManager`."""

    server_version = "tels-serve/1.0"
    protocol_version = "HTTP/1.1"

    # -- plumbing ------------------------------------------------------
    @property
    def manager(self) -> JobManager:
        return self.server.manager  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:
        logger.debug("%s %s", self.address_string(), format % args)

    def _send_json(self, status: int, payload: dict | list) -> None:
        body = json.dumps(payload, indent=2).encode() + b"\n"
        self._send_bytes(status, body, "application/json")

    def _send_bytes(
        self,
        status: int,
        body: bytes,
        content_type: str,
        extra_headers: dict[str, str] | None = None,
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_error_payload(self, exc: ApiError) -> None:
        self._send_json(exc.status, exc.to_dict())

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise ApiError(400, "a JSON request body is required")
        if length > MAX_BODY_BYTES:
            raise ApiError(413, "request body too large", code="too-large")
        raw = self.rfile.read(length)
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ApiError(
                400, f"request body is not valid JSON: {exc}"
            ) from exc

    def _route(self, method: str) -> None:
        path, _, query_text = self.path.partition("?")
        query: dict[str, str] = {}
        for part in query_text.split("&"):
            if part:
                key, _, value = part.partition("=")
                query[key] = value
        parts = [p for p in path.split("/") if p]
        try:
            self._dispatch(method, parts, query)
        except ApiError as exc:
            self._send_error_payload(exc)
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True
        except Exception as exc:  # defensive: bugs become structured 500s
            logger.exception("unhandled error serving %s %s", method, path)
            self._send_error_payload(
                ApiError(500, f"internal error: {exc}", code="internal-error")
            )

    # -- dispatch ------------------------------------------------------
    def _dispatch(
        self, method: str, parts: list[str], query: dict[str, str]
    ) -> None:
        if method == "GET" and parts == ["healthz"]:
            self._send_json(
                200,
                {
                    "status": "ok",
                    "service": "tels-serve",
                    "resilience": self.manager.resilience_counters(),
                },
            )
            return
        if method == "GET" and parts == ["stats"]:
            self._send_json(200, self.manager.stats())
            return
        if parts and parts[0] == "cache" and len(parts) == 2:
            self._dispatch_cache(method, parts[1], query)
            return
        if parts and parts[0] == "work":
            if self._dispatch_work(method, parts[1:]):
                return
        if parts and parts[0] == "jobs":
            if method == "POST" and len(parts) == 1:
                job = self.manager.submit(self._read_body())
                self._send_json(202, job.snapshot())
                return
            if method == "GET" and len(parts) == 1:
                self._send_json(
                    200,
                    {
                        "jobs": [
                            job.snapshot() for job in self.manager.jobs()
                        ]
                    },
                )
                return
            if len(parts) >= 2:
                job = self.manager.get(parts[1])
                if method == "GET" and len(parts) == 2:
                    self._send_json(200, job.snapshot())
                    return
                if method == "DELETE" and len(parts) == 2:
                    self._send_json(200, self.manager.cancel(job.job_id).snapshot())
                    return
                if method == "GET" and parts[2:] == ["result"]:
                    self._send_result(job, query.get("format", "json"))
                    return
                if method == "GET" and parts[2:] == ["events"]:
                    self._stream_events(job, query)
                    return
        raise ApiError(
            404,
            f"no route for {method} /{'/'.join(parts)}",
            code="not-found",
        )

    # -- network cache tier --------------------------------------------
    def _dispatch_cache(
        self, method: str, raw_key: str, query: dict[str, str]
    ) -> None:
        key = urllib.parse.unquote(raw_key)
        fingerprint = urllib.parse.unquote(query.get("fp", ""))
        if method == "GET":
            payload, etag = self.manager.cache_get(key, fingerprint)
            body = json.dumps(payload, indent=2).encode() + b"\n"
            self._send_bytes(
                200, body, "application/json", extra_headers={"ETag": etag}
            )
            return
        if method == "PUT":
            body = self._read_body()
            self._send_json(
                200,
                self.manager.cache_put(key, fingerprint, body.get("values")),
            )
            return
        raise ApiError(
            404, f"no route for {method} /cache/...", code="not-found"
        )

    # -- work broker ---------------------------------------------------
    def _dispatch_work(self, method: str, parts: list[str]) -> bool:
        """Route ``/work/...``; returns False to fall through to a 404."""
        broker = self.manager.broker
        if method == "POST" and parts == ["sessions"]:
            body = self._read_body()
            payload = body.get("payload")
            if not isinstance(payload, str):
                raise ApiError(400, "a base64 'payload' field is required")
            self._send_json(
                201, broker.create_session(payload, body.get("meta"))
            )
            return True
        if method == "POST" and parts == ["claim"]:
            body = self._read_body()
            self._send_json(
                200,
                broker.claim(
                    self._worker_id(body),
                    int(body.get("max_tasks", 4)),
                    wait_s=self._number(body, "wait_s"),
                    seq=body.get("seq"),
                ),
            )
            return True
        if method == "POST" and parts == ["heartbeat"]:
            body = self._read_body()
            self._send_json(200, broker.heartbeat(self._worker_id(body)))
            return True
        if len(parts) >= 2 and parts[0] == "sessions":
            session_id = parts[1]
            if method == "DELETE" and len(parts) == 2:
                self._send_json(200, broker.close(session_id))
                return True
            if method == "GET" and parts[2:] == ["payload"]:
                payload, etag = broker.payload(session_id)
                self._send_bytes(
                    200,
                    payload,
                    "application/octet-stream",
                    extra_headers={"ETag": etag},
                )
                return True
            if method == "POST" and parts[2:] == ["tasks"]:
                body = self._read_body()
                tasks = body.get("tasks")
                if not isinstance(tasks, list):
                    raise ApiError(400, "a 'tasks' list is required")
                self._send_json(200, broker.enqueue(session_id, tasks))
                return True
            if method == "POST" and parts[2:] == ["results"]:
                body = self._read_body()
                self._send_json(
                    200,
                    broker.post_results(
                        session_id,
                        self._worker_id(body),
                        body.get("results") or [],
                        body.get("failures") or [],
                    ),
                )
                return True
            if method == "POST" and parts[2:] == ["collect"]:
                body = self._read_body()
                self._send_json(
                    200,
                    broker.collect(
                        session_id,
                        ack=int(self._number(body, "ack")),
                        wait_s=self._number(body, "wait_s"),
                    ),
                )
                return True
            if method == "POST" and parts[2:] == ["withdraw"]:
                self._send_json(200, broker.withdraw(session_id))
                return True
        return False

    @staticmethod
    def _worker_id(body: dict) -> str:
        from repro.serve.schemas import validate_work_id

        return validate_work_id(body.get("worker"), "worker")

    @staticmethod
    def _number(body: dict, name: str) -> float:
        """A non-negative number field of a ``/work`` body (default 0)."""
        value = body.get(name, 0)
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if not number or not 0 <= value < math.inf:
            raise ApiError(
                400, f"{name!r} must be a non-negative number", code="bad-work"
            )
        return value

    # -- results -------------------------------------------------------
    def _send_result(self, job, fmt: str) -> None:
        if job.state != "done" or job.result is None:
            status = 404 if job.is_terminal else 409
            raise ApiError(
                status,
                f"job {job.job_id} has no result (state: {job.state})",
                code="no-result",
                detail={"state": job.state, "error": job.error},
            )
        if fmt == "json":
            self._send_json(200, job.result)
        elif fmt == "thblif":
            text = job.result.get("network", {}).get("thblif", "")
            self._send_bytes(200, text.encode(), "text/plain; charset=utf-8")
        elif fmt == "sarif":
            lint = job.result.get("lint")
            if lint is None:
                raise ApiError(
                    404,
                    f"job {job.job_id} ran with lint disabled",
                    code="no-result",
                )
            body = json.dumps(lint["sarif"], indent=2).encode() + b"\n"
            self._send_bytes(200, body, "application/sarif+json")
        else:
            raise ApiError(
                400,
                f"unknown result format {fmt!r}",
                detail={"formats": ["json", "thblif", "sarif"]},
            )

    # -- event streaming -----------------------------------------------
    def _stream_events(self, job, query: dict[str, str]) -> None:
        try:
            since = int(query.get("since", "0"))
        except ValueError:
            raise ApiError(400, "'since' must be an integer") from None
        sse = wants_sse(self.headers.get("Accept"))
        self.send_response(200)
        self.send_header(
            "Content-Type", SSE_CONTENT_TYPE if sse else NDJSON_CONTENT_TYPE
        )
        self.send_header("Cache-Control", "no-store")
        # Unknown length: signal end-of-stream by closing the connection.
        self.send_header("Connection", "close")
        self.close_connection = True
        self.end_headers()
        encode = encode_sse if sse else encode_ndjson
        # Suppress disconnects: the client went away, nothing to clean up.
        with contextlib.suppress(BrokenPipeError, ConnectionResetError):
            for event in self.manager.iter_events(job, since=since):
                self.wfile.write(encode(event))
                self.wfile.flush()

    # -- HTTP verbs ----------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        self._route("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._route("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._route("DELETE")

    def do_PUT(self) -> None:  # noqa: N802
        self._route("PUT")


class ServeApp:
    """The composed daemon: job manager + threading HTTP server.

    ``port=0`` binds an ephemeral port (tests); :attr:`port` reports the
    bound value.  :meth:`start_background` runs the accept loop in a
    daemon thread (tests, embedding); :meth:`serve_forever` blocks (CLI).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8765,
        cache_dir: str | None = None,
        journal_dir: str | None = None,
        max_workers: int = 2,
        queue_limit: int = 256,
        lease_s: float | None = None,
    ):
        self.manager = JobManager(
            cache_dir=cache_dir,
            journal_dir=journal_dir,
            max_workers=max_workers,
            queue_limit=queue_limit,
            lease_s=lease_s,
        )
        self.httpd = ThreadingHTTPServer((host, port), ServeHandler)
        self.httpd.daemon_threads = True
        self.httpd.manager = self.manager  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None
        self._closed = False

    @property
    def host(self) -> str:
        return self.httpd.server_address[0]

    @property
    def port(self) -> int:
        return self.httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def serve_forever(self) -> None:
        logger.info("tels serve listening on %s", self.url)
        try:
            self.httpd.serve_forever(poll_interval=0.2)
        finally:
            self.shutdown()

    def start_background(self) -> threading.Thread:
        thread = threading.Thread(
            target=self.httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="tels-serve-http",
            daemon=True,
        )
        thread.start()
        self._thread = thread
        return thread

    def shutdown(self) -> None:
        """Stop the accept loop and drain/persist the job manager (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.manager.shutdown()
