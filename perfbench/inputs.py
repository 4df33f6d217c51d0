"""Seeded inputs: viewing-log CSV files and the serving request mix.

The events file is written from ``generate_synthetic`` and then roughened
the way real logs are: every film gets its own runtime, and a seeded share
of (film, user) pairs gets extra re-watch rows with a lower percentage, in
shuffled row order. Folding the file with ``build_view_matrix`` (max over
repeats) must give back exactly the generator's matrix.

Runtimes are powers of two, so ``pct * total / total`` reproduces ``pct``
bit for bit and the fold can be compared with ``==``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from filmrec import SyntheticSpec, ViewMatrix, generate_synthetic

RUNTIMES_S = (2048.0, 4096.0, 8192.0)
RUNTIME_WEIGHTS = (1, 5, 2)
REWATCH_SHARE = 0.15


def write_events(path: Path, spec: SyntheticSpec) -> ViewMatrix:
    """Write the roughened events CSV for ``spec`` and return the matrix it
    must fold back to. The same spec always gives byte-identical files."""
    view = generate_synthetic(spec)
    rng = random.Random(f"events-{spec.seed}")
    rows = []
    for film in view.films:
        total = rng.choices(RUNTIMES_S, RUNTIME_WEIGHTS)[0]
        for user, pct in view.film_views(film).items():
            rows.append((film, user, pct * total, total))
            if pct > 0.0 and rng.random() < REWATCH_SHARE:
                for _ in range(rng.randint(1, 2)):
                    rows.append((film, user, pct * rng.uniform(0.05, 0.95) * total, total))
    rng.shuffle(rows)
    with open(path, "w", newline="", encoding="utf-8") as stream:
        stream.write("film_id,user_id,watch_seconds,total_seconds\n")
        for film, user, watch, total in rows:
            stream.write(f"{film},{user},{watch!r},{total!r}\n")
    return view


@dataclass(frozen=True)
class Request:
    kind: str  # "rec" (known user), "cold" (unknown user) or "similar"
    subject: str  # user id or film id
    path: str


class RequestStream:
    """Endless seeded request sequence: 80% personalized recommendations for
    known users, 10% unknown-user cold starts, 10% similar-film lookups."""

    def __init__(self, seed: int, known_users: list[str], films: list[str], k: int):
        self._rng = random.Random(f"requests-{seed}")
        self._users = known_users
        self._films = films
        self._k = k

    def __iter__(self):
        return self

    def __next__(self) -> Request:
        draw = self._rng.random()
        if draw < 0.8:
            user = self._rng.choice(self._users)
            return Request("rec", user, f"/v1/users/{user}/recommendations?k={self._k}")
        if draw < 0.9:
            user = f"new-{self._rng.randrange(10**9)}"
            return Request("cold", user, f"/v1/users/{user}/recommendations?k={self._k}")
        film = self._rng.choice(self._films)
        return Request("similar", film, f"/v1/films/{film}/similar?k={self._k}")
