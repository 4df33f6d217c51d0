"""Read-only HTTP serving of a loaded pipeline artifact.

Three endpoints over one immutable artifact snapshot:

    GET /v1/health
    GET /v1/users/{user_id}/recommendations?k=N
    GET /v1/films/{film_id}/similar?k=N

Any other method gets 405 with ``Allow: GET`` and a JSON error (no body for
HEAD). No endpoint reads a request body, but a declared ``Content-Length`` of
up to ``MAX_BODY_BYTES`` is read and dropped before the answer: closing a
socket with unread input resets the connection, and the client could lose
the response. A larger body gets 413, an unreadable length 400 and any
``Transfer-Encoding`` 411, each with ``Connection: close``; the server then
stops writing and drops the rest of the upload for at most ``DRAIN_SECONDS``
before it closes. A read that waits longer than ``READ_TIMEOUT_SECONDS``
(headers or body) closes the connection without an answer.

Each open connection has a handler thread of its own, so a stalled client
holds up no other; a thread that finishes a connection leaves an idle token
and waits for the next one instead of exiting, and a new thread starts only
when no token is left (``HandlerReusingServer``). The listen backlog is the
system's largest (``socket.SOMAXCONN``), so a burst of connects is queued
rather than left to retry its handshake a second later.

Requests read the artifact without locks. ``create_server`` computes the
graph's path-kernel result (``FilmGraph.paths``) before it returns, so every
server is prepared before its first request and no request writes to the
artifact.

A client that goes away mid-request is logged at DEBUG; any other failure
of a connection is logged with its traceback at ERROR.
"""

from __future__ import annotations

import json
import logging
import queue
import re
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, unquote, urlparse

from .artifact import FORMAT_VERSION, PipelineArtifact
from .errors import DomainError
from .pipeline import is_cold_start, recommend

logger = logging.getLogger(__name__)

DEFAULT_K = 10
MAX_BODY_BYTES = 1 << 20
DRAIN_SECONDS = 2.0
READ_TIMEOUT_SECONDS = 10.0
_CHUNK_BYTES = 1 << 16

_RECOMMEND_RE = re.compile(r"^/v1/users/([^/]+)/recommendations$")
_SIMILAR_RE = re.compile(r"^/v1/films/([^/]+)/similar$")


def _parse_k(query: dict[str, list[str]]) -> int:
    raw = query.get("k", [str(DEFAULT_K)])[-1]
    try:
        k = int(raw)
    except ValueError:
        raise ValueError(f"k must be an integer, got {raw!r}")
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    return k


class ArtifactHandler(BaseHTTPRequestHandler):
    timeout = READ_TIMEOUT_SECONDS  # socket timeout, set by StreamRequestHandler.setup
    # Buffer the response, so its status line, headers and body leave in one
    # write when http.server flushes after the request, not in two.
    wbufsize = -1

    def do_GET(self):  # noqa: N802 (http.server API)
        parsed = urlparse(self.path)
        query = parse_qs(parsed.query, keep_blank_values=True)
        path = parsed.path
        try:
            if path == "/v1/health":
                self._respond(200, self._health())
                return
            match = _RECOMMEND_RE.match(path)
            if match:
                self._respond(200, self._recommendations(unquote(match.group(1)), _parse_k(query)))
                return
            match = _SIMILAR_RE.match(path)
            if match:
                film = unquote(match.group(1))
                if film not in self.server.artifact.similarity:
                    self._respond(404, {"error": f"unknown film: {film}"})
                    return
                self._respond(200, self._similar(film, _parse_k(query)))
                return
            self._respond(404, {"error": f"no such endpoint: {path}"})
        except ValueError as exc:
            self._respond(400, {"error": str(exc)})
        except ConnectionError:  # the client went away; there is no one to answer
            raise
        except Exception:  # pragma: no cover - defensive
            logger.exception("request failed: %s", self.path)
            self._respond(500, {"error": "internal error"})

    def parse_request(self) -> bool:
        return super().parse_request() and self._discard_body()

    def _discard_body(self) -> bool:
        """Read and drop the declared body; False once a 4xx is sent."""
        encoding = self.headers.get("Transfer-Encoding")
        if encoding is not None:
            return self._refuse_body(411, f"Transfer-Encoding {encoding!r} is not accepted; send Content-Length")
        declared = self.headers.get("Content-Length")
        if declared is None:
            return True
        try:
            size = int(declared)
        except ValueError:
            size = -1
        if size < 0:
            return self._refuse_body(400, f"bad Content-Length: {declared!r}")
        if size > MAX_BODY_BYTES:
            return self._refuse_body(413, f"request body of {size} bytes exceeds {MAX_BODY_BYTES}")
        while size > 0:
            chunk = self.rfile.read(min(size, _CHUNK_BYTES))
            if not chunk:
                break
            size -= len(chunk)
        return True

    def _refuse_body(self, status: int, message: str) -> bool:
        """Answer with ``Connection: close``, stop writing, then drop input
        until EOF or for at most ``DRAIN_SECONDS``."""
        self._respond(status, {"error": message}, close=True)
        self.wfile.flush()
        deadline = time.monotonic() + DRAIN_SECONDS
        try:
            self.connection.shutdown(socket.SHUT_WR)
            while (left := deadline - time.monotonic()) > 0:
                self.connection.settimeout(left)
                if not self.rfile.read1(_CHUNK_BYTES):
                    break
        except OSError:  # a timeout or a reset; the connection closes next either way
            pass
        return False

    def __getattr__(self, name: str):
        # http.server dispatches a request to do_<METHOD> and answers 501 when
        # that attribute is missing; every method but GET is refused here.
        if name.startswith("do_"):
            return self._method_not_allowed
        raise AttributeError(name)

    def _method_not_allowed(self) -> None:
        self._respond(405, {"error": f"method not allowed: {self.command}"})

    def _health(self) -> dict:
        artifact = self.server.artifact
        return {
            "status": "ok",
            "format_version": FORMAT_VERSION,
            "films": len(artifact.similarity.films),
            "users": len(artifact.profiles),
            "created_at": artifact.created_at,
            "config": artifact.config.to_dict(),
        }

    def _recommendations(self, user_id: str, k: int) -> dict:
        ranked = recommend(self.server.artifact, user_id, k)
        return {
            "user_id": user_id,
            "cold_start": is_cold_start(self.server.artifact, user_id),
            "items": [{"film_id": film, "score": score} for film, score in ranked.entries],
        }

    def _similar(self, film_id: str, k: int) -> list:
        return [
            {"film_id": other, "similarity": value}
            for other, value in self.server.artifact.similarity.top_similar(film_id, k)
        ]

    def _respond(self, status: int, payload, close: bool = False) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if status == 405:
            self.send_header("Allow", "GET")
        if close:
            self.send_header("Connection", "close")
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(body)

    def log_message(self, format, *args):  # noqa: A002 (http.server API)
        logger.debug("%s - " + format, self.address_string(), *args)


class HandlerReusingServer(ThreadingHTTPServer):
    """A threading HTTP server whose handler threads serve one connection
    after another.

    ``process_request`` puts each accepted connection on a queue, then takes
    an idle token from a second queue, or starts a handler thread when none
    is there. A handler thread takes connections from the queue in turn and
    leaves one token after each it finishes, so a token stands for one
    future take: every queued connection has a thread that will take it, and
    concurrency is not capped. A thread that has not yet left its token can
    only cause a spare thread to start. The thread count is thus the most
    connections open at once so far (plus any spares); it shrinks only at
    ``server_close``, which stops the threads once their connections finish.
    """

    request_queue_size = socket.SOMAXCONN

    def __init__(self, *args, **kwargs):
        self._connections: queue.SimpleQueue = queue.SimpleQueue()
        self._idle_tokens: queue.SimpleQueue = queue.SimpleQueue()
        self._workers: list[threading.Thread] = []
        super().__init__(*args, **kwargs)

    def process_request(self, request, client_address):
        self._connections.put((request, client_address))
        try:
            self._idle_tokens.get_nowait()
        except queue.Empty:
            worker = threading.Thread(target=self._work, name="filmrec-handler", daemon=self.daemon_threads)
            self._workers.append(worker)
            worker.start()

    def _work(self) -> None:
        while (connection := self._connections.get()) is not None:
            self.process_request_thread(*connection)
            self._idle_tokens.put(None)

    def server_close(self):
        super().server_close()
        for _ in self._workers:
            self._connections.put(None)
        for worker in self._workers:
            worker.join()

    def handle_error(self, request, client_address):
        if isinstance(sys.exc_info()[1], ConnectionError):
            logger.debug("%s - connection lost", client_address[0], exc_info=True)
        else:
            logger.exception("%s - request failed", client_address[0])


def create_server(artifact: PipelineArtifact, host: str, port: int) -> HandlerReusingServer:
    """Bind a server whose handlers read ``artifact`` as ``server.artifact``,
    and compute its path kernel, so that no request writes to the artifact."""
    server = HandlerReusingServer((host, port), ArtifactHandler)
    server.artifact = artifact
    start = time.perf_counter()
    artifact.graph.paths()
    logger.info("path kernel ready: %.1f ms", (time.perf_counter() - start) * 1e3)
    return server


def parse_bind(bind: str) -> tuple[str, int]:
    """Split ``host:port``: a non-empty host and a decimal port in 0-65535."""
    host, _, port = bind.rpartition(":")
    if host and port.isascii() and port.isdigit() and len(port) <= 5 and int(port) <= 65535:
        return host, int(port)
    raise DomainError(f"bind address must be host:port with a port in 0-65535, got {bind!r}")


def serve(artifact: PipelineArtifact, host: str, port: int) -> None:
    """Serve until interrupted."""
    server = create_server(artifact, host, port)
    try:
        logger.info("serving on %s:%d", *server.server_address[:2])
        server.serve_forever()
    finally:
        server.server_close()
