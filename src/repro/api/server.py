"""Stdlib-only HTTP tier over the query service.

Endpoints (JSON in, JSON out; schemas in :mod:`repro.api.schemas`):

* ``POST /v1/query`` — one :class:`~repro.api.schemas.Query`, one
  :class:`~repro.api.schemas.Answer`;
* ``POST /v1/query/batch`` — ``{"queries": [...]}`` →
  ``{"answers": [...]}``, misses solved in stacked kernel calls;
* ``GET /v1/healthz`` — liveness + the service's lifetime counters.

Concurrency is ``ThreadingHTTPServer``'s thread-per-request over the
thread-safe cache + funnel; with a micro-batch window configured,
concurrent requests genuinely share kernel calls.  Shutdown is a
*drain*: ``shutdown()`` stops accepting, in-flight handlers finish and
are joined (``daemon_threads`` stays off), then the socket closes —
:func:`run_server` wires SIGTERM/SIGINT to exactly that and exits 0.

Malformed requests answer 400 with ``{"error": ...}``; unknown paths 404;
wrong methods 405.  Every request is instrumented through the ambient
:func:`repro.obs.active` telemetry (request spans, latency histogram,
per-status counters) — activate a :class:`repro.obs.Telemetry` around
:func:`run_server` to capture them.
"""

from __future__ import annotations

import json
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Mapping

from repro.api.schemas import Query
from repro.api.service import QueryService
from repro.exceptions import ReproError
from repro.obs import active, get_logger

__all__ = ["QueryHTTPServer", "make_server", "run_server"]

_log = get_logger("api.server")

#: Largest accepted request body (a 10k-worker platform is ~600 kB).
MAX_BODY_BYTES = 8 * 1024 * 1024


class _BadRequest(Exception):
    """Client error carrying the message answered as ``{"error": ...}``."""


class QueryHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that knows its :class:`QueryService`."""

    # Drain semantics: in-flight handler threads are joined on close.
    daemon_threads = False
    block_on_close = True

    def __init__(self, address: tuple[str, int], service: QueryService) -> None:
        super().__init__(address, _QueryHandler)
        self.service = service
        self.started = time.time()


class _QueryHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-api"

    # Route BaseHTTPRequestHandler's stderr chatter through the structured
    # logger (debug level: per-request lines are telemetry's job).
    def log_message(self, format: str, *args) -> None:  # noqa: A002 - stdlib signature
        _log.debug("http %s", format % args, client=self.client_address[0])

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        if self.path != "/v1/healthz":
            self._send_error(404, f"unknown path {self.path!r}")
            return
        self._instrumented(self._healthz)

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        if self.path == "/v1/query":
            self._instrumented(self._query)
        elif self.path == "/v1/query/batch":
            self._instrumented(self._query_batch)
        else:
            self._send_error(404, f"unknown path {self.path!r}")

    # ------------------------------------------------------------- handlers

    def _healthz(self) -> None:
        server: QueryHTTPServer = self.server
        payload = {
            "status": "ok",
            "uptime_seconds": time.time() - server.started,
            **server.service.stats(),
        }
        self._send_json(200, payload)

    def _query(self) -> None:
        request = Query.from_dict(self._read_json())
        answer = self.server.service.query(request)
        self._send_json(200, answer.as_dict())

    def _query_batch(self) -> None:
        payload = self._read_json()
        if not isinstance(payload, Mapping) or "queries" not in payload:
            raise _BadRequest("the batch body must be {\"queries\": [...]}")
        queries = payload["queries"]
        if not isinstance(queries, list):
            raise _BadRequest("'queries' must be a list of query objects")
        requests = [Query.from_dict(entry) for entry in queries]
        answers = self.server.service.query_batch(requests)
        self._send_json(200, {"answers": [answer.as_dict() for answer in answers]})

    # ------------------------------------------------------------- plumbing

    def _instrumented(self, handler) -> None:
        telemetry = active()
        start = time.perf_counter()
        status = 500
        with telemetry.span("api.request", path=self.path, method=self.command):
            try:
                handler()
                status = 200
            except _BadRequest as error:
                status = 400
                self._send_error(400, str(error))
            except ReproError as error:
                status = 400
                self._send_error(400, str(error))
            except BrokenPipeError:
                status = 499  # client went away mid-response; nothing to answer
            except Exception as error:  # never kill the handler thread silently
                _log.error("http.internal", error=repr(error), path=self.path)
                self._send_error(500, "internal error")
        telemetry.counter(f"api.http.{status}")
        telemetry.observe("api.request.seconds", time.perf_counter() - start)

    def _read_json(self):
        try:
            length = int(self.headers.get("Content-Length", 0))
        except (TypeError, ValueError):
            raise _BadRequest("missing or malformed Content-Length") from None
        if length <= 0:
            raise _BadRequest("the request needs a JSON body")
        if length > MAX_BODY_BYTES:
            raise _BadRequest(f"request body exceeds {MAX_BODY_BYTES} bytes")
        body = self.rfile.read(length)
        try:
            return json.loads(body)
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise _BadRequest(f"invalid JSON body: {error}") from None

    def _send_json(self, status: int, payload) -> None:
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        try:
            self.wfile.write(data)
        except BrokenPipeError:
            pass  # client hung up after we committed the status line

    def _send_error(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})


def make_server(
    service: QueryService | None = None,
    host: str = "127.0.0.1",
    port: int = 0,
) -> QueryHTTPServer:
    """Bind (but do not run) a server; ``port=0`` picks a free port."""
    return QueryHTTPServer((host, port), service or QueryService())


def run_server(
    host: str = "127.0.0.1",
    port: int = 8765,
    *,
    service: QueryService | None = None,
    stop: threading.Event | None = None,
) -> int:
    """Serve until SIGTERM/SIGINT, then drain in-flight requests; exit 0.

    Prints the bound address on startup (``port=0`` reports the actual
    port) so wrappers and smoke tests can scrape it; the signal handlers
    are installed first, so a signal sent as soon as the line is read
    drains the server too.  ``stop`` lets embedders (tests) trigger the
    drain without a signal.  The drain always shuts the server down, even
    when printing fails (a stdout reader that went away raises
    ``BrokenPipeError``, which propagates once the server is closed).
    """
    server = make_server(service, host, port)
    bound_host, bound_port = server.server_address[:2]
    stop = stop or threading.Event()

    def _request_drain(signum, frame) -> None:
        stop.set()

    previous: dict[int, object] = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[signum] = signal.signal(signum, _request_drain)
        except ValueError:
            pass  # not the main thread (embedded use): rely on `stop`
    loop = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.1})
    loop.start()
    try:
        print(f"serving on http://{bound_host}:{bound_port} (POST /v1/query)", flush=True)
        stop.wait()
        print("draining in-flight requests ...", flush=True)
    finally:
        server.shutdown()
        loop.join()
        server.server_close()
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    stats = server.service.stats()
    print(
        f"served {stats['queries']} queries "
        f"({stats['cache_hits']} cache hits, {stats['solved']} solved); bye",
        flush=True,
    )
    return 0
