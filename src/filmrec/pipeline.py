"""End-to-end pipeline orchestration and recommendation lookups."""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

from .artifact import PipelineArtifact
from .community import louvain
from .config import PipelineConfig, validate_config
from .errors import DomainError, StageError
from .graph import CentralityTable, build_graph
from .ingest import ViewMatrix, build_view_matrix, parse_events
from .profiles import build_profiles
from .ranking import RecommendationList, rank_cold_start, rank_for_user
from .similarity import average_similarity


@contextmanager
def _stage(name: str):
    try:
        yield
    except Exception as exc:
        raise StageError(name, exc) from exc


def load_view_matrix(events_path: str | Path, config: PipelineConfig, *, skip_bad_rows: bool = False) -> ViewMatrix:
    with _stage("ingest"):
        with open(events_path, newline="", encoding="utf-8") as stream:
            events = parse_events(stream, skip_bad_rows=skip_bad_rows)
        return build_view_matrix(events, clamp=config.clamp)


def run_pipeline_from_view(view: ViewMatrix, config: PipelineConfig) -> PipelineArtifact:
    validate_config(config)
    with _stage("similarity"):
        similarity = average_similarity(view, config.averaging_policy)
    with _stage("graph"):
        graph = build_graph(similarity, config.edge_threshold)
    with _stage("centrality"):
        centrality = CentralityTable.compute(graph)
    with _stage("cluster"):
        clustering = louvain(graph)
    with _stage("profiles"):
        profiles = build_profiles(view, config.preference_threshold)
    return PipelineArtifact.build(config, similarity, graph, centrality, clustering, profiles)


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
