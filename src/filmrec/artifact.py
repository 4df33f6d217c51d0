"""Versioned on-disk pipeline artifact.

One JSON document holds everything the serving layer needs: the similarity
matrix, the graph's edge list, the centrality table, the clustering, and the
per-user preference profiles, together with the config snapshot that
produced them. Serialization is canonical (sorted keys, shortest-round-trip
floats), so the same pipeline state always produces the same bytes and a
load/save cycle is lossless. Readers refuse documents written by a newer
format version.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .community import Clustering, modularity_score
from .config import PipelineConfig, validate_config
from .errors import DataError, DomainError
from .graph import CentralityRow, CentralityTable, FilmGraph, average_centrality, build_graph
from .profiles import PreferenceProfile
from .similarity import SimilarityMatrix

FORMAT_VERSION = 1


@dataclass(frozen=True)
class PipelineArtifact:
    format_version: int
    config: PipelineConfig
    similarity: SimilarityMatrix
    graph: FilmGraph
    centrality: CentralityTable
    clustering: Clustering
    profiles: dict[str, PreferenceProfile]
    created_at: str

    @classmethod
    def build(
        cls,
        config: PipelineConfig,
        similarity: SimilarityMatrix,
        graph: FilmGraph,
        centrality: CentralityTable,
        clustering: Clustering,
        profiles: dict[str, PreferenceProfile],
    ) -> "PipelineArtifact":
        created = datetime.now(timezone.utc).isoformat()
        return cls(FORMAT_VERSION, config, similarity, graph, centrality, clustering, profiles, created)

    def to_payload(self) -> dict:
        return {
            "format_version": self.format_version,
            "created_at": self.created_at,
            "config": self.config.to_dict(),
            "films": list(self.similarity.films),
            "similarity": [[float(v) for v in row] for row in self.similarity.values],
            "edges": [[a, b, weight] for a, b, weight in self.graph.edges()],
            "centrality": {
                film: [row.degree_c, row.closeness_c, row.betweenness_c, row.avg_c]
                for film, row in self.centrality.rows.items()
            },
            "clustering": {
                "assignment": dict(self.clustering.assignment),
                "modularity": self.clustering.modularity,
            },
            "profiles": {
                user: {
                    "preferred": list(profile.preferred),
                    "non_preferred": list(profile.non_preferred),
                }
                for user, profile in self.profiles.items()
            },
        }

    def payload_without_timestamp(self) -> dict:
        payload = self.to_payload()
        payload.pop("created_at")
        return payload

    def save(self, path: str | Path) -> None:
        text = json.dumps(self.to_payload(), sort_keys=True, separators=(",", ":"))
        Path(path).write_text(text, encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "PipelineArtifact":
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise DataError(f"artifact is not valid JSON: {exc}")
        return cls.from_payload(payload)

    @classmethod
    def from_payload(cls, payload: dict) -> "PipelineArtifact":
        if not isinstance(payload, dict):
            raise DataError(f"artifact is not a JSON object: {type(payload).__name__}")
        version = payload.get("format_version")
        if not isinstance(version, int) or isinstance(version, bool):
            raise DataError("artifact missing integer format_version")
        if version > FORMAT_VERSION:
            raise DataError(
                f"artifact format_version {version} is newer than supported {FORMAT_VERSION}"
            )
        for section in ("config", "centrality", "clustering", "profiles"):
            if not isinstance(payload.get(section), dict):
                raise DataError(f"malformed artifact payload: {section} is not an object")
        try:
            config = PipelineConfig.from_dict(payload["config"])
            films = tuple(payload["films"])
            values = np.array(payload["similarity"], dtype=np.float64)
            if values.shape != (len(films), len(films)):
                raise DataError("similarity matrix shape does not match film list")
            similarity = SimilarityMatrix(films, values)
            graph = FilmGraph(films, [(a, b, w) for a, b, w in payload["edges"]])
            centrality = CentralityTable(
                {
                    film: CentralityRow(d, c, b, avg)
                    for film, (d, c, b, avg) in payload["centrality"].items()
                }
            )
            clustering = Clustering(
                dict(payload["clustering"]["assignment"]),
                payload["clustering"]["modularity"],
            )
            profiles = {
                user: PreferenceProfile(user, tuple(entry["preferred"]), tuple(entry["non_preferred"]))
                for user, entry in payload["profiles"].items()
            }
            created_at = payload["created_at"]
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"malformed artifact payload: {exc!r}")
        if not isinstance(created_at, str):
            raise DataError(f"artifact created_at is not a string: {created_at!r}")
        artifact = cls(
            version,
            config,
            similarity,
            graph,
            centrality,
            clustering,
            profiles,
            created_at,
        )
        artifact.validate()
        return artifact

    def validate(self) -> None:
        """Cheap self-consistency checks: the config passes
        ``validate_config``; the similarity is symmetric, in [0, 1] and has
        a 0.0/1.0 diagonal; the centrality components are in range;
        clustering and centrality cover exactly the film set with dense
        cluster ids; profiles name only known films; the stored graph, the
        modularity and the average-centrality column are exactly what the
        similarity, threshold, partition and components produce."""
        try:
            validate_config(self.config)
        except DomainError as exc:
            raise DataError(f"artifact config: {exc}")
        values = self.similarity.values
        if not np.all((values >= 0.0) & (values <= 1.0)):
            raise DataError("artifact similarity has an entry that is not finite or outside [0, 1]")
        if not np.array_equal(values, values.T):
            raise DataError("artifact similarity is not symmetric")
        if not np.isin(values.diagonal(), (0.0, 1.0)).all():
            raise DataError("artifact similarity diagonal holds a value other than 0.0 or 1.0")
        films = set(self.similarity.films)
        if set(self.clustering.assignment) != films:
            raise DataError("artifact clustering does not cover exactly the film set")
        cluster_ids = set(self.clustering.assignment.values())
        if cluster_ids != set(range(len(cluster_ids))):
            raise DataError("artifact cluster ids are not dense from 0")
        if set(self.centrality.rows) != films:
            raise DataError("artifact centrality table does not cover exactly the film set")
        for user, profile in self.profiles.items():
            if not profile.watched() <= films:
                raise DataError(f"artifact profile for {user} names films outside the film set")
        rebuilt = build_graph(self.similarity, self.config.edge_threshold)
        stored_edges = {(a, b): w for a, b, w in self.graph.edges()}
        rebuilt_edges = {(a, b): w for a, b, w in rebuilt.edges()}
        if stored_edges != rebuilt_edges:
            raise DataError("artifact graph does not match similarity matrix and threshold")
        modularity = self.clustering.modularity
        if not isinstance(modularity, float) or modularity != modularity_score(rebuilt, self.clustering.assignment):
            raise DataError(f"artifact modularity {modularity!r} is not the modularity of the stored partition")
        for film, row in self.centrality.rows.items():
            components = (row.degree_c, row.closeness_c, row.betweenness_c)
            if not all(isinstance(c, float) and 0.0 <= c <= 1.0 for c in components):
                raise DataError(f"artifact centrality row for {film} has a component outside [0, 1]")
            if row.avg_c != average_centrality(*components):
                raise DataError(f"artifact centrality row for {film} is inconsistent")
