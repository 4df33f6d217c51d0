"""Read-only HTTP serving of a loaded pipeline artifact.

Three endpoints over one immutable artifact snapshot:

    GET /v1/health
    GET /v1/users/{user_id}/recommendations?k=N
    GET /v1/films/{film_id}/similar?k=N

Any other method gets 405 with ``Allow: GET`` and a JSON error (no body for
HEAD). The threading server answers them concurrently without locks. The only
shared write is the graph's hop-distance memo (``FilmGraph.hops``): each key
gets a deterministic value, so a race on a cold key only repeats one BFS.
"""

from __future__ import annotations

import json
import logging
import re
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, unquote, urlparse

from .artifact import PipelineArtifact
from .pipeline import is_cold_start, recommend

logger = logging.getLogger(__name__)

DEFAULT_K = 10

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
        except Exception:  # pragma: no cover - defensive
            logger.exception("request failed: %s", self.path)
            self._respond(500, {"error": "internal error"})

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
            "format_version": self.artifact.format_version,
            "films": len(self.artifact.similarity.films),
            "users": len(self.artifact.profiles),
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

    def _respond(self, status: int, payload) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if status == 405:
            self.send_header("Allow", "GET")
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(body)

    def log_message(self, format, *args):  # noqa: A002 (http.server API)
        logger.debug("%s - %s", self.address_string(), format % args)


def create_server(artifact: PipelineArtifact, host: str, port: int) -> ThreadingHTTPServer:
    handler = type("BoundArtifactHandler", (ArtifactHandler,), {"artifact": artifact})
    return ThreadingHTTPServer((host, port), handler)


def parse_bind(bind: str) -> tuple[str, int]:
    host, _, port = bind.rpartition(":")
    if not host or not port:
        raise ValueError(f"bind address must be host:port, got {bind!r}")
    return host, int(port)


def serve(artifact: PipelineArtifact, bind: str) -> None:
    """Serve until interrupted."""
    host, port = parse_bind(bind)
    server = create_server(artifact, host, port)
    logger.info("serving on %s:%d", host, port)
    try:
        server.serve_forever()
    finally:
        server.server_close()
