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
holds up no other; a thread that finishes a connection waits for the next
one instead of exiting (``HandlerReusingServer``). The listen backlog is the
system's largest (``socket.SOMAXCONN``), so a burst of connects is queued
rather than left to retry its handshake a second later.

Requests read the artifact without locks. ``serve`` computes the graph's
path-kernel result (``FilmGraph.paths``) before it accepts a connection, so
on that path no request writes to the artifact. A server from
``create_server`` alone computes it on the first personalized request: it is
deterministic, so requests racing on a freshly loaded artifact at worst
repeat that one pass.

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
    artifact: PipelineArtifact  # set on the subclass by create_server
    timeout = READ_TIMEOUT_SECONDS  # socket timeout, set by StreamRequestHandler.setup
    # Buffer the response, so its status line, headers and body leave in one
    # write when http.server flushes after the request, not in two.
    wbufsize = -1

    def do_GET(self):  # noqa: N802 (http.server API)
        parsed = urlparse(self.path)
        query = parse_qs(parsed.query)
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
                if film not in self.artifact.similarity:
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
        return {
            "status": "ok",
            "format_version": FORMAT_VERSION,
            "films": len(self.artifact.similarity.films),
            "users": len(self.artifact.profiles),
            "created_at": self.artifact.created_at,
            "config": self.artifact.config.to_dict(),
        }

    def _recommendations(self, user_id: str, k: int) -> dict:
        ranked = recommend(self.artifact, user_id, k)
        return {
            "user_id": user_id,
            "cold_start": is_cold_start(self.artifact, user_id),
            "items": [{"film_id": film, "score": score} for film, score in ranked.entries],
        }

    def _similar(self, film_id: str, k: int) -> list:
        return [
            {"film_id": other, "similarity": value}
            for other, value in self.artifact.similarity.top_similar(film_id, k)
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

    An accepted connection goes to an idle handler thread through a queue. A
    new thread, started only when none is idle, is handed its first
    connection directly, so every open connection still has a thread of its
    own and concurrency is not capped. A thread that has finished a
    connection counts itself idle and waits on the queue for the next one.
    ``process_request`` takes one from the idle count for each connection it
    queues, so every queued connection has a thread that will take it; a
    thread about to mark itself idle is not counted yet, which can only start
    a spare thread. The thread count is thus the most connections open at
    once so far (plus any spares); it shrinks only at ``server_close``, which
    stops the threads once their connections finish.
    """

    request_queue_size = socket.SOMAXCONN

    def __init__(self, *args, **kwargs):
        self._connections: queue.SimpleQueue = queue.SimpleQueue()
        self._idle = 0
        self._idle_lock = threading.Lock()
        self._workers: list[threading.Thread] = []
        super().__init__(*args, **kwargs)

    def process_request(self, request, client_address):
        with self._idle_lock:
            start = self._idle == 0
            if not start:
                self._idle -= 1
        if start:
            worker = threading.Thread(
                target=self._work, args=(request, client_address), name="filmrec-handler", daemon=self.daemon_threads
            )
            self._workers.append(worker)
            worker.start()
        else:
            self._connections.put((request, client_address))

    def _work(self, request, client_address) -> None:
        while request is not None:
            self.process_request_thread(request, client_address)
            with self._idle_lock:
                self._idle += 1
            request, client_address = self._connections.get()

    def server_close(self):
        super().server_close()
        for _ in self._workers:
            self._connections.put((None, None))
        for worker in self._workers:
            worker.join()

    def handle_error(self, request, client_address):
        if isinstance(sys.exc_info()[1], ConnectionError):
            logger.debug("%s - connection lost", client_address[0], exc_info=True)
        else:
            logger.exception("%s - request failed", client_address[0])


def create_server(artifact: PipelineArtifact, host: str, port: int) -> HandlerReusingServer:
    handler = type("BoundArtifactHandler", (ArtifactHandler,), {"artifact": artifact})
    return HandlerReusingServer((host, port), handler)


def parse_bind(bind: str) -> tuple[str, int]:
    """Split ``host:port``: a non-empty host and a decimal port in 0-65535."""
    host, _, port = bind.rpartition(":")
    if host and port.isascii() and port.isdigit() and len(port) <= 5 and int(port) <= 65535:
        return host, int(port)
    raise DomainError(f"bind address must be host:port with a port in 0-65535, got {bind!r}")


def serve(artifact: PipelineArtifact, host: str, port: int) -> None:
    """Serve until interrupted."""
    server = create_server(artifact, host, port)
    logger.info("serving on %s:%d", host, port)
    try:
        start = time.perf_counter()
        artifact.graph.paths()
        logger.info("path kernel ready: %.1f ms", (time.perf_counter() - start) * 1e3)
        server.serve_forever()
    finally:
        server.server_close()
