import http.client
import json
import logging
import random
import socket
import struct
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from filmrec import (
    DomainError,
    PipelineArtifact,
    PipelineConfig,
    SyntheticSpec,
    generate_synthetic,
    recommend,
    run_pipeline_from_view,
)
from filmrec.server import MAX_BODY_BYTES, READ_TIMEOUT_SECONDS, ArtifactHandler, create_server, parse_bind


@pytest.fixture(scope="module")
def artifact():
    view = generate_synthetic(
        SyntheticSpec(film_count=10, user_count=16, planted_cluster_count=2, seed=9)
    )
    return run_pipeline_from_view(view, PipelineConfig())


def serving(artifact):
    """A server for ``artifact`` on a free port, its serving thread and its
    base URL; stop both with ``stop``."""
    server = create_server(artifact, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    return server, thread, f"http://{host}:{port}"


def stop(server, thread) -> None:
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


@pytest.fixture(scope="module")
def base_url(artifact):
    server, thread, url = serving(artifact)
    yield url
    stop(server, thread)


def get(url: str):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, json.loads(response.read())


def get_error(url: str) -> tuple[int, dict]:
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def test_health(base_url, artifact):
    status, payload = get(f"{base_url}/v1/health")
    assert status == 200
    assert payload["status"] == "ok"
    assert payload["films"] == 10
    assert payload["created_at"] == artifact.created_at
    assert payload["config"] == artifact.config.to_dict()
    assert payload["format_version"] == 2


@pytest.mark.parametrize("version", [1, 2])
def test_health_reports_the_version_of_the_loaded_file(tmp_path, version):
    view = generate_synthetic(SyntheticSpec(film_count=6, user_count=8, seed=2))
    built = run_pipeline_from_view(view, PipelineConfig())
    path = tmp_path / "artifact.json"
    if version == 1:
        path.write_text(json.dumps(built.to_payload()))
    else:
        built.save(path)
    server = create_server(PipelineArtifact.load(path), "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = server.server_address[:2]
        assert get(f"http://{host}:{port}/v1/health")[1]["format_version"] == version
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def test_recommendations_for_known_user(base_url, artifact):
    user = next(u for u, p in artifact.profiles.items() if p.preferred)
    status, payload = get(f"{base_url}/v1/users/{user}/recommendations?k=3")
    assert status == 200
    assert payload["user_id"] == user
    assert payload["cold_start"] is False
    assert 0 < len(payload["items"]) <= 3
    assert all(set(item) == {"film_id", "score"} for item in payload["items"])


def test_recommendations_unknown_user_is_cold_start(base_url):
    status, payload = get(f"{base_url}/v1/users/stranger/recommendations?k=4")
    assert status == 200
    assert payload["cold_start"] is True
    assert len(payload["items"]) == 4


def test_identical_requests_identical_responses(base_url):
    url = f"{base_url}/v1/users/stranger/recommendations?k=5"
    assert get(url) == get(url)


def test_similar_films(base_url, artifact):
    film = artifact.similarity.films[0]
    status, payload = get(f"{base_url}/v1/films/{film}/similar?k=3")
    assert status == 200
    assert isinstance(payload, list) and len(payload) == 3
    scores = [item["similarity"] for item in payload]
    assert scores == sorted(scores, reverse=True)
    assert all(item["film_id"] != film for item in payload)


def test_similar_unknown_film_404(base_url):
    status, payload = get_error(f"{base_url}/v1/films/nope/similar")
    assert status == 404
    assert "unknown film" in payload["error"]


def test_malformed_k_400(base_url):
    status, payload = get_error(f"{base_url}/v1/users/u/recommendations?k=banana")
    assert status == 400
    assert "k" in payload["error"]
    status, _ = get_error(f"{base_url}/v1/users/u/recommendations?k=0")
    assert status == 400


def test_unknown_route_404(base_url):
    status, _ = get_error(f"{base_url}/v2/anything")
    assert status == 404


@pytest.mark.parametrize(
    "method, body",
    [("POST", b'{"k": 3}'), ("PUT", b"x" * 5000), ("DELETE", None), ("PATCH", b""), ("OPTIONS", None), ("BREW", None)],
)
def test_other_methods_get_405_with_allow_get(base_url, method, body):
    connection = http.client.HTTPConnection(base_url.removeprefix("http://"), timeout=10)
    try:
        connection.request(method, "/v1/users/u/recommendations?k=3", body=body)
        response = connection.getresponse()
        assert response.status == 405
        assert response.getheader("Allow") == "GET"
        assert response.getheader("Content-Type") == "application/json"
        assert method in json.loads(response.read())["error"]
    finally:
        connection.close()


def test_head_gets_405_without_body(base_url):
    connection = http.client.HTTPConnection(base_url.removeprefix("http://"), timeout=10)
    try:
        connection.request("HEAD", "/v1/health")
        response = connection.getresponse()
        assert response.status == 405
        assert response.getheader("Allow") == "GET"
        assert response.read() == b""
    finally:
        connection.close()


def test_concurrent_requests_on_a_cold_memo_match_sequential(tmp_path):
    """Four clients at once against a freshly loaded artifact, whose hop
    memo is empty, get exactly the bodies a sequential in-process recommend
    gives."""
    view = generate_synthetic(SyntheticSpec(film_count=40, user_count=120, seed=13))
    path = tmp_path / "artifact.json"
    run_pipeline_from_view(view, PipelineConfig(edge_threshold=0.3)).save(path)
    reference = PipelineArtifact.load(path)
    users = [user for user, profile in reference.profiles.items() if profile.preferred]
    k = len(reference.similarity.films)
    expected = {
        user: {
            "user_id": user,
            "cold_start": False,
            "items": [{"film_id": f, "score": s} for f, s in recommend(reference, user, k).entries],
        }
        for user in users
    }

    server = create_server(PipelineArtifact.load(path), "127.0.0.1", 0)
    serving = threading.Thread(target=server.serve_forever, daemon=True)
    serving.start()
    host, port = server.server_address[:2]
    start = threading.Barrier(4)
    bodies: dict[int, list] = {}

    def client(index: int) -> None:
        order = users[:]
        random.Random(index).shuffle(order)
        start.wait()
        bodies[index] = [
            (user, get(f"http://{host}:{port}/v1/users/{user}/recommendations?k={k}")) for user in order
        ]

    clients = [threading.Thread(target=client, args=(i,)) for i in range(4)]
    try:
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join(timeout=60)
    finally:
        server.shutdown()
        server.server_close()
        serving.join(timeout=5)
    assert sorted(bodies) == [0, 1, 2, 3]
    for responses in bodies.values():
        assert len(responses) == len(users)
        for user, (status, payload) in responses:
            assert status == 200 and payload == expected[user]


def test_parse_bind():
    assert parse_bind("0.0.0.0:80") == ("0.0.0.0", 80)
    assert parse_bind("localhost:0") == ("localhost", 0)
    assert parse_bind("::1:65535") == ("::1", 65535)
    bad_binds = ["8080", ":8080", "localhost:", "localhost:abc", "localhost:65536", "127.0.0.1:99999", "localhost: 80"]
    for bad in bad_binds + ["localhost:-1", "localhost:\u0663", "localhost:" + "9" * 5000]:
        with pytest.raises(DomainError, match="bind address"):
            parse_bind(bad)


def post(base_url: str, path: str, body: bytes) -> tuple[int, str | None, dict]:
    connection = http.client.HTTPConnection(base_url.removeprefix("http://"), timeout=10)
    try:
        connection.request("POST", path, body=body)
        response = connection.getresponse()
        return response.status, response.getheader("Connection"), json.loads(response.read())
    finally:
        connection.close()


def test_large_bodies_are_read_before_the_answer(base_url):
    body = b"x" * 1_000_000
    statuses = [post(base_url, "/v1/health", body)[0] for _ in range(50)]
    assert statuses == [405] * 50


def test_body_over_the_cap_gets_413_and_close(base_url):
    status, connection, payload = post(base_url, "/v1/health", b"x" * (MAX_BODY_BYTES + 1))
    assert status == 413
    assert connection == "close"
    assert str(MAX_BODY_BYTES) in payload["error"]
    status, _ = get(f"{base_url}/v1/health")
    assert status == 200


@pytest.mark.parametrize("declared", ["-1", "many"])
def test_bad_content_length_gets_400(base_url, declared):
    connection = http.client.HTTPConnection(base_url.removeprefix("http://"), timeout=10)
    try:
        connection.putrequest("POST", "/v1/health")
        connection.putheader("Content-Length", declared)
        connection.endheaders()
        response = connection.getresponse()
        assert response.status == 400
        assert response.getheader("Connection") == "close"
        assert "Content-Length" in json.loads(response.read())["error"]
    finally:
        connection.close()


def address(base_url: str) -> tuple[str, int]:
    host, _, port = base_url.removeprefix("http://").rpartition(":")
    return host, int(port)


def read_to_eof(sock: socket.socket) -> bytes:
    chunks = []
    while chunk := sock.recv(1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)


@pytest.mark.parametrize(
    "request_start",
    [b"POST /v1/health HTTP/1.1\r\nContent-Length: 1000\r\n\r\n", b"GET /v1/health HTTP/1.1\r\nHost: x"],
    ids=["body-never-sent", "headers-never-finished"],
)
def test_a_stalled_request_is_closed_after_the_read_timeout(base_url, monkeypatch, request_start):
    assert ArtifactHandler.timeout == READ_TIMEOUT_SECONDS
    monkeypatch.setattr(ArtifactHandler, "timeout", 0.5)
    with socket.create_connection(address(base_url), timeout=10) as sock:
        sock.sendall(request_start)
        start = time.monotonic()
        assert read_to_eof(sock) == b""
        assert time.monotonic() - start < 5
    assert get(f"{base_url}/v1/health")[0] == 200


def test_chunked_bodies_get_411_and_close_without_a_reset(base_url):
    body = b"x" * (1 << 20)
    request = (
        b"POST /v1/health HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n"
        + f"{len(body):x}\r\n".encode()
        + body
        + b"\r\n0\r\n\r\n"
    )
    for _ in range(10):
        with socket.create_connection(address(base_url), timeout=10) as sock:
            sock.sendall(request)
            sock.shutdown(socket.SHUT_WR)
            response = read_to_eof(sock)
        head, _, payload = response.partition(b"\r\n\r\n")
        assert head.split(b"\r\n")[0].split()[1] == b"411"
        assert b"Connection: close" in head.split(b"\r\n")
        assert "Transfer-Encoding" in json.loads(payload)["error"]


def test_each_response_leaves_in_one_write(base_url, artifact, monkeypatch):
    """Status line, headers and body go out in one socket write instead of
    the head and then the body, for answers and refusals alike."""
    writes = []
    for name in ("send", "sendall"):

        def counted(sock, data, *args, _write=getattr(socket.socket, name)):
            if threading.current_thread().name == "filmrec-handler":
                writes.append(bytes(data))
            return _write(sock, data, *args)

        monkeypatch.setattr(socket.socket, name, counted)
    user = next(u for u, p in artifact.profiles.items() if p.preferred)
    requests = [
        f"GET /v1/users/{user}/recommendations?k=3 HTTP/1.1\r\nHost: x\r\n\r\n",
        f"GET /v1/films/{artifact.similarity.films[0]}/similar?k=3 HTTP/1.1\r\nHost: x\r\n\r\n",
        "GET /v1/health HTTP/1.1\r\nHost: x\r\n\r\n",
        "GET /nowhere HTTP/1.1\r\nHost: x\r\n\r\n",
        "POST /v1/health HTTP/1.1\r\nHost: x\r\nContent-Length: many\r\n\r\n",
    ]
    for request in requests:
        writes.clear()
        with socket.create_connection(address(base_url), timeout=10) as sock:
            sock.sendall(request.encode())
            response = read_to_eof(sock)
        assert writes == [response]


def test_each_request_is_logged_at_debug(base_url, caplog):
    caplog.set_level(logging.DEBUG, logger="filmrec.server")
    assert get(f"{base_url}/v1/health")[0] == 200
    assert '127.0.0.1 - "GET /v1/health HTTP/1.1" 200 -' in [record.getMessage() for record in caplog.records]


def reset(sock: socket.socket) -> None:
    """Close with a TCP reset instead of an orderly shutdown."""
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    sock.close()


@pytest.mark.parametrize("request_start", ["full-request", "headers-never-finished"])
def test_a_client_that_resets_is_not_a_server_error(artifact, caplog, capfd, monkeypatch, request_start):
    """A reset while the server reads or answers is logged at DEBUG only:
    no ERROR record, nothing written straight to stderr, and the server
    keeps answering. A recommendation is held until its client has reset,
    so the server always answers a connection that is gone."""
    user = next(iter(artifact.profiles))
    sent = {
        "full-request": f"GET /v1/users/{user}/recommendations?k=5 HTTP/1.1\r\nHost: x\r\n\r\n".encode(),
        "headers-never-finished": b"GET /v1/health HTTP/1.1\r\nHost: x",
    }[request_start]
    gates: list[threading.Event] = []

    def held_recommend(*args):
        # The newest gate opens only after the reset of the newest client,
        # which is this request's client or a later one.
        assert gates[-1].wait(timeout=10)
        return recommend(*args)

    monkeypatch.setattr("filmrec.server.recommend", held_recommend)
    caplog.set_level(logging.DEBUG, logger="filmrec.server")
    server, thread, base_url = serving(artifact)
    try:
        for _ in range(5):
            gates.append(threading.Event())
            sock = socket.create_connection(address(base_url), timeout=10)
            sock.sendall(sent)
            reset(sock)
            gates[-1].set()
        assert get(f"{base_url}/v1/health")[0] == 200
    finally:
        stop(server, thread)  # server_close waits for every handler thread
    assert [record for record in caplog.records if record.levelno >= logging.WARNING] == []
    assert any(record.getMessage().endswith("connection lost") for record in caplog.records)
    assert capfd.readouterr().err == ""


def test_stalled_connections_do_not_hold_up_other_clients(base_url):
    stalled = []
    try:
        for _ in range(20):
            sock = socket.create_connection(address(base_url), timeout=10)
            sock.sendall(b"GET /v1/health HTTP/1.1\r\nHost: x")
            stalled.append(sock)
            # Let the server's thread, which shares this process, accept it,
            # so each stalled connection holds a handler thread of its own.
            time.sleep(0.01)
        start = time.monotonic()
        with urllib.request.urlopen(f"{base_url}/v1/health", timeout=5) as response:
            assert response.status == 200
        assert time.monotonic() - start < 1
    finally:
        for sock in stalled:
            sock.close()


def test_a_burst_of_connects_is_queued_not_dropped(base_url):
    """Thirty connects back to back, faster than the server's thread (which
    shares this process) accepts them: each completes at once, with no SYN
    retry a second later for a full listen backlog, and each gets a 200."""
    connections = []
    try:
        for _ in range(30):
            start = time.monotonic()
            connections.append(socket.create_connection(address(base_url), timeout=10))
            assert time.monotonic() - start < 0.5
        for sock in connections:
            sock.sendall(b"GET /v1/health HTTP/1.0\r\n\r\n")
        for sock in connections:
            assert read_to_eof(sock).split(b"\r\n")[0].split()[1] == b"200"
    finally:
        for sock in connections:
            sock.close()


def handler_threads() -> set[threading.Thread]:
    return {thread for thread in threading.enumerate() if thread.name == "filmrec-handler"}


def test_handler_threads_are_reused_then_stopped_at_close(artifact):
    before = handler_threads()
    server, thread, base_url = serving(artifact)
    try:
        statuses = [get(f"{base_url}/v1/health")[0] for _ in range(50)]
        started = handler_threads() - before
    finally:
        stop(server, thread)
    assert statuses == [200] * 50
    assert 1 <= len(started) <= 2
    deadline = time.monotonic() + 5
    for worker in started:
        worker.join(timeout=max(0.0, deadline - time.monotonic()))
    assert not any(worker.is_alive() for worker in started)


def test_the_idle_count_survives_many_concurrent_clients(artifact):
    """Six clients at once with a short switch interval: every request is
    answered, and once the handlers have finished every thread counts
    itself idle exactly once, which a lost update of the count would break."""
    server, thread, base_url = serving(artifact)
    statuses: list[int] = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        clients = [
            threading.Thread(target=lambda: statuses.extend(get(f"{base_url}/v1/health")[0] for _ in range(30)))
            for _ in range(6)
        ]
        for client in clients:
            client.start()
        for client in clients:
            client.join(timeout=30)
        assert not any(client.is_alive() for client in clients)
        deadline = time.monotonic() + 5
        while server._idle != len(server._workers) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert server._idle == len(server._workers)
    finally:
        sys.setswitchinterval(interval)
        stop(server, thread)
    assert statuses == [200] * 180
