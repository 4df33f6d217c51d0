"""End-to-end pipeline orchestration and recommendation lookups.

``run_stages`` is the one place the stage order lives: similarity, graph,
centrality, cluster, profiles. ``run_pipeline_from_view`` runs them all
into an artifact; a CLI stage command runs them only up to its own.
"""

from __future__ import annotations

import logging
import time
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

from .artifact import PipelineArtifact
from .community import louvain
from .config import PipelineConfig
from .errors import DomainError, StageError
from .graph import CentralityTable, FilmGraph, build_graph
from .ingest import ViewMatrix, read_view_matrix
from .profiles import build_profiles
from .ranking import RecommendationList, rank_cold_start, rank_for_user
from .similarity import average_similarity

logger = logging.getLogger(__name__)


@contextmanager
def _stage(name: str):
    """Names the stage on any failure (``StageError``) and logs its time at INFO."""
    start = time.perf_counter()
    try:
        yield
    except Exception as exc:
        raise StageError(name, exc) from exc
    logger.info("stage %s: %.1f ms", name, (time.perf_counter() - start) * 1e3)


def load_view_matrix(events_path: str | Path, config: PipelineConfig, *, skip_bad_rows: bool = False) -> ViewMatrix:
    with _stage("ingest"):
        with open(events_path, newline="", encoding="utf-8-sig") as stream:
            return read_view_matrix(stream, clamp=config.clamp, skip_bad_rows=skip_bad_rows)


def run_stages(view: ViewMatrix, config: PipelineConfig) -> Iterator[tuple[str, object]]:
    """Runs similarity, graph, centrality, cluster and profiles in that
    order, yielding ``(stage, output)`` after each. A caller that stops
    asking stops the run: no later stage starts. Each stage's INFO time and
    ``StageError`` cover that stage's own work only."""
    with _stage("similarity"):
        similarity = average_similarity(view, config.averaging_policy)
    yield "similarity", similarity
    with _stage("graph"):
        graph = build_graph(similarity, config.edge_threshold)
    _warn_if_complete_or_edgeless(graph, config.edge_threshold)
    yield "graph", graph
    with _stage("centrality"):
        centrality = CentralityTable.compute(graph)
    _warn_if_constant_centrality(graph, centrality, config.edge_threshold)
    yield "centrality", centrality
    with _stage("cluster"):
        clustering = louvain(graph)
    yield "cluster", clustering
    with _stage("profiles"):
        profiles = build_profiles(view, config.preference_threshold)
    yield "profiles", profiles


def run_pipeline_from_view(view: ViewMatrix, config: PipelineConfig) -> PipelineArtifact:
    return PipelineArtifact.build(config, *(output for _, output in run_stages(view, config)))


def _warn_if_complete_or_edgeless(graph: FilmGraph, edge_threshold: float) -> None:
    """In a complete or an edgeless graph every film has the same degree,
    closeness and betweenness, so centrality cannot tell films apart."""
    nodes, edges = graph.node_count(), graph.edge_count()
    if nodes >= 2 and edges in (0, nodes * (nodes - 1) // 2):
        shape = "edgeless" if edges == 0 else "complete"
        logger.warning("similarity graph is %s: %d edges at edge_threshold %s", shape, edges, edge_threshold)


def _warn_if_constant_centrality(graph: FilmGraph, centrality: CentralityTable, edge_threshold: float) -> None:
    """A graph that is neither complete nor edgeless (those are warned about
    after the graph stage) can still give every film the same degree,
    closeness or betweenness."""
    nodes = graph.node_count()
    if not 0 < graph.edge_count() < nodes * (nodes - 1) // 2:
        return
    columns = zip(*((row.degree_c, row.closeness_c, row.betweenness_c) for row in centrality.rows.values()))
    constant = [name for name, column in zip(("degree", "closeness", "betweenness"), columns) if len(set(column)) == 1]
    if constant:
        logger.warning(
            "centrality is constant over all %d films at edge_threshold %s: %s",
            nodes, edge_threshold, ", ".join(constant),
        )


def run_pipeline(events_path: str | Path, config: PipelineConfig, *, skip_bad_rows: bool = False) -> PipelineArtifact:
    """Events file to finished artifact, with stage names on failures."""
    view = load_view_matrix(events_path, config, skip_bad_rows=skip_bad_rows)
    return run_pipeline_from_view(view, config)


def is_cold_start(artifact: PipelineArtifact, user_id: str) -> bool:
    profile = artifact.profiles.get(user_id)
    return profile is None or not profile.preferred


def recommend(artifact: PipelineArtifact, user_id: str, k: int) -> RecommendationList:
    """Personalized list for known users with preferences; global top-AC
    list for unknown or history-less users."""
    if k < 1:
        raise DomainError(f"k must be at least 1, got {k}")
    if is_cold_start(artifact, user_id):
        ranked = rank_cold_start(artifact.centrality, k)
        return replace(ranked, user_id=user_id)
    profile = artifact.profiles[user_id]
    ranked = rank_for_user(
        artifact.graph,
        artifact.centrality,
        artifact.clustering,
        profile,
        exclude_non_preferred=artifact.config.exclude_non_preferred,
    )
    return ranked.top(k)
