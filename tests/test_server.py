import http.client
import json
import random
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from filmrec import PipelineArtifact, PipelineConfig, SyntheticSpec, generate_synthetic, recommend, run_pipeline_from_view
from filmrec.server import MAX_BODY_BYTES, READ_TIMEOUT_SECONDS, ArtifactHandler, create_server, parse_bind


@pytest.fixture(scope="module")
def artifact():
    view = generate_synthetic(
        SyntheticSpec(film_count=10, user_count=16, planted_cluster_count=2, seed=9)
    )
    return run_pipeline_from_view(view, PipelineConfig())


@pytest.fixture(scope="module")
def base_url(artifact):
    server = create_server(artifact, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def get(url: str):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, json.loads(response.read())


def get_error(url: str) -> tuple[int, dict]:
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def test_health(base_url):
    status, payload = get(f"{base_url}/v1/health")
    assert status == 200
    assert payload["status"] == "ok"
    assert payload["films"] == 10


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
    with pytest.raises(ValueError):
        parse_bind("8080")


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
