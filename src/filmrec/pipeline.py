"""End-to-end pipeline orchestration and recommendation lookups."""

from __future__ import annotations

import logging
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

from .artifact import PipelineArtifact
from .community import louvain
from .config import PipelineConfig, validate_config
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


def run_pipeline_from_view(view: ViewMatrix, config: PipelineConfig) -> PipelineArtifact:
    validate_config(config)
    with _stage("similarity"):
        similarity = average_similarity(view, config.averaging_policy)
    with _stage("graph"):
        graph = build_graph(similarity, config.edge_threshold)
    with _stage("centrality"):
        centrality = CentralityTable.compute(graph)
    _warn_if_degenerate(graph, centrality, config.edge_threshold)
    with _stage("cluster"):
        clustering = louvain(graph)
    with _stage("profiles"):
        profiles = build_profiles(view, config.preference_threshold)
    return PipelineArtifact.build(config, similarity, graph, centrality, clustering, profiles)


def _warn_if_degenerate(graph: FilmGraph, centrality: CentralityTable, edge_threshold: float) -> None:
    """In a complete or an edgeless graph every film has the same degree,
    closeness and betweenness, so centrality cannot tell films apart; in
    any other graph one of the three can still be the same for every film."""
    nodes = graph.node_count()
    edges = graph.edge_count()
    if nodes < 2:
        return
    if 0 < edges < nodes * (nodes - 1) // 2:
        rows = centrality.rows.values()
        constant = [
            name
            for name, values in (
                ("degree", {row.degree_c for row in rows}),
                ("closeness", {row.closeness_c for row in rows}),
                ("betweenness", {row.betweenness_c for row in rows}),
            )
            if len(values) == 1
        ]
        if constant:
            logger.warning(
                "centrality is constant over all %d films at edge_threshold %s: %s",
                nodes, edge_threshold, ", ".join(constant),
            )
        return
    shape = "edgeless" if edges == 0 else "complete"
    logger.warning("similarity graph is %s: %d edges at edge_threshold %s", shape, edges, edge_threshold)


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
