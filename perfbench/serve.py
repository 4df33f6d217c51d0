"""The server under test and the client side of the serve workload.

The server is ``python -m filmrec serve`` in its own process, so the client
threads do not share its interpreter lock. The server speaks HTTP/1.0, so
every request opens its own connection.
"""

from __future__ import annotations

import http.client
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

START_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 30.0


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def get(port: int, path: str) -> tuple[int | None, bytes]:
    """One request on a fresh connection: (status, body), or (None, error
    text) when the connection fails."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    except OSError as exc:
        return None, repr(exc).encode()
    finally:
        conn.close()


class Server:
    def __init__(self, env: dict, artifact: Path, log: Path):
        self.port = free_port()
        self._log = open(log, "ab")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "filmrec", "serve", str(artifact), "--bind", f"127.0.0.1:{self.port}"],
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=self._log,
            stderr=self._log,
        )

    def wait_healthy(self) -> float:
        """Poll /v1/health; the time of the first 200."""
        while time.perf_counter() - self.started < START_TIMEOUT_S:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with code {self.proc.returncode}")
            status, _ = get(self.port, "/v1/health")
            if status == 200:
                return time.perf_counter()
            time.sleep(0.002)
        raise RuntimeError("server did not become healthy")

    def peak_rss_kb(self) -> int:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._log.close()


def closed_loop(port: int, requests, connections: int, seconds: float):
    """Each of ``connections`` clients sends its next request only after the
    previous answer arrived. Returns (request, status, body, latency) for
    every completed request, in send order."""
    lock = threading.Lock()
    results = []
    sent = [0]
    start = time.perf_counter()
    deadline = start + seconds

    def client() -> None:
        while time.perf_counter() < deadline:
            with lock:
                index = sent[0]
                sent[0] += 1
                request = next(requests)
            begin = time.perf_counter()
            status, body = get(port, request.path)
            results.append((index, request, status, body, time.perf_counter() - begin))

    threads = [threading.Thread(target=client) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    results.sort(key=lambda row: row[0])
    return [row[1:] for row in results]
