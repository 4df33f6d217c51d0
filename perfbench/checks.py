"""Output checks. Every operation the benchmark times and every check it
makes on an output is one attempt; a wrong or failed one is one failure,
and ``error_share`` is failures over attempts."""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from filmrec import (
    NOT_COMPARABLE,
    FilmRecError,
    PipelineArtifact,
    ViewMatrix,
    build_view_matrix,
    dual_similarity,
    ego_centrality,
    modularity_score,
    parse_events,
    recommendation_score,
)
from filmrec.ingest import ident_sort_key
from filmrec.pipeline import is_cold_start, recommend


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def error_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def digest(document) -> str:
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_fold(checks: Checks, events_path: Path, expected: ViewMatrix) -> None:
    """The events file must fold back to the generator's matrix."""
    with open(events_path, newline="", encoding="utf-8") as stream:
        view = build_view_matrix(parse_events(stream))
    checks.expect(view == expected, "folded events differ from the generated matrix")


def sample_pairs(film_count: int, seed: int, count: int) -> list[tuple[int, int]]:
    pairs = [(i, j) for i in range(film_count) for j in range(i + 1, film_count)]
    rng = random.Random(f"cells-{seed}")
    return pairs if count >= len(pairs) else rng.sample(pairs, count)


def scalar_similarity(view: ViewMatrix, film_i: str, film_j: str) -> float:
    """One averaged similarity cell from the scalar ``dual_similarity``,
    summed in ascending user order as the pipeline promises."""
    views_i, views_j = view.film_views(film_i), view.film_views(film_j)
    total, comparable = 0.0, 0
    for user in view.users:
        ds = dual_similarity(views_i.get(user), views_j.get(user))
        if ds != NOT_COMPARABLE:
            total += ds
            comparable += 1
    return total / comparable if comparable else 0.0


def check_similarity_cells(checks: Checks, view: ViewMatrix, artifact: PipelineArtifact, seed: int, count: int) -> None:
    films = artifact.similarity.films
    for i, j in sample_pairs(len(films), seed, count):
        expected = scalar_similarity(view, films[i], films[j])
        checks.expect(
            artifact.similarity.value(films[i], films[j]) == expected,
            f"similarity cell ({films[i]}, {films[j]}) differs from the scalar recomputation",
        )


def check_artifact(checks: Checks, path: Path, view: ViewMatrix, digests: list[str], seed: int, cells: int) -> None:
    """Reload the saved artifact; it must validate, reproduce the digest of
    every timed build, hold exact similarity cells and report the
    modularity of its own cluster assignment."""
    try:
        artifact = PipelineArtifact.load(path)
        artifact.validate()
    except FilmRecError as exc:
        checks.expect(False, f"reloaded artifact does not validate: {exc}")
        return
    checks.expect(True, "reloaded artifact validates")
    reloaded = digest(artifact.payload_without_timestamp())
    for i, build_digest in enumerate(digests):
        checks.expect(build_digest == reloaded, f"build {i} payload digest differs from the reloaded artifact")
    check_similarity_cells(checks, view, artifact, seed, cells)
    checks.expect(
        artifact.clustering.modularity == modularity_score(artifact.graph, artifact.clustering.assignment),
        "stored modularity differs from modularity_score of the stored assignment",
    )


def expected_body(artifact: PipelineArtifact, kind: str, subject: str, k: int):
    if kind == "similar":
        return [{"film_id": f, "similarity": v} for f, v in artifact.similarity.top_similar(subject, k)]
    ranked = recommend(artifact, subject, k)
    return {
        "user_id": subject,
        "cold_start": is_cold_start(artifact, subject),
        "items": [{"film_id": f, "score": s} for f, s in ranked.entries],
    }


def check_responses(checks: Checks, responses, artifact: PipelineArtifact, k: int) -> None:
    """``responses`` holds (request, status, body bytes). Every response
    must be a 200 whose body equals the in-process answer, and cold_start
    must be set exactly for unknown users."""
    expected: dict[str, object] = {}
    for request, status, body in responses:
        if not checks.expect(status == 200, f"{request.path}: status {status}"):
            continue
        if request.path not in expected:
            expected[request.path] = expected_body(artifact, request.kind, request.subject, k)
        try:
            payload = json.loads(body)
        except ValueError:
            payload = None
        ok = payload == expected[request.path]
        if ok and request.kind != "similar":
            ok = payload["cold_start"] is (request.kind == "cold")
        checks.expect(ok, f"{request.path}: body differs from in-process recommend")


def check_ego_scores(checks: Checks, pipeline_artifact: PipelineArtifact, cases, judgments, threshold: float) -> None:
    """Each sampled ego_graph judgment must equal the ranking module's ego
    score over a pipeline built from the same training users: the two ego
    implementations must agree bit for bit."""
    graph, ac = pipeline_artifact.graph, pipeline_artifact.centrality
    for user, film, rs_value in judgments:
        context = cases[user].context
        prefs = sorted((f for f, pct in context.items() if pct > threshold), key=ident_sort_key)
        nonprefs = sorted((f for f, pct in context.items() if pct <= threshold), key=ident_sort_key)
        expected = recommendation_score(
            [ego_centrality(graph, ac, film, ego).value for ego in prefs],
            [ego_centrality(graph, ac, film, ego).value for ego in nonprefs],
        )
        checks.expect(rs_value == expected, f"ego_graph score for user {user}, film {film} differs from ranking")
