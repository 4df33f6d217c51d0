"""Versioned on-disk pipeline artifact.

One JSON document holds everything the serving layer needs. Its state is
the config snapshot, the films, the similarity matrix, the three
centrality components, the cluster assignment and the per-user preference
profiles; it also stores the graph's edges, the average-centrality (AC)
column and the modularity, which loading derives once from the state and
requires the stored copies to equal. Serialization is canonical (sorted
keys, shortest-round-trip floats), so the same state always produces the
same bytes and a load/save cycle is byte-identical. Readers refuse
documents written by a newer format version, and versions below 1.
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
from .graph import CentralityTable, FilmGraph, build_graph
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
        """Read and check the state, derive the graph, the AC column and the
        modularity from it, and require the stored copies to equal them."""
        if not isinstance(payload, dict):
            raise DataError(f"artifact is not a JSON object: {type(payload).__name__}")
        version = payload.get("format_version")
        if not isinstance(version, int) or isinstance(version, bool):
            raise DataError("artifact missing integer format_version")
        if version < 1:
            raise DataError(f"artifact format_version {version} is below 1, the first version")
        if version > FORMAT_VERSION:
            raise DataError(
                f"artifact format_version {version} is newer than supported {FORMAT_VERSION}"
            )
        for section in ("config", "centrality", "clustering", "profiles"):
            if not isinstance(payload.get(section), dict):
                raise DataError(f"malformed artifact payload: {section} is not an object")
        try:
            config = PipelineConfig.from_dict(payload["config"])
            films = _film_ids(payload["films"], "films")
            values = np.array(payload["similarity"], dtype=np.float64)
            if values.shape != (len(films), len(films)):
                raise DataError("similarity matrix shape does not match film list")
            similarity = SimilarityMatrix(films, values)
            components, stored_ac = {}, {}
            for film, (d, c, b, avg) in payload["centrality"].items():
                components[film] = (d, c, b)
                stored_ac[film] = avg
            assignment = dict(payload["clustering"]["assignment"])
            stored_modularity = payload["clustering"]["modularity"]
            stored_edges = payload["edges"]
            profiles = {}
            for user, entry in payload["profiles"].items():
                what = f"profile for {user}"
                preferred, non_preferred = _film_ids(entry["preferred"], what), _film_ids(entry["non_preferred"], what)
                profiles[user] = PreferenceProfile(user, preferred, non_preferred)
            created_at = payload["created_at"]
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"malformed artifact payload: {exc!r}")
        if not isinstance(created_at, str):
            raise DataError(f"artifact created_at is not a string: {created_at!r}")
        _check_state(config, similarity, components, assignment, profiles)
        graph = build_graph(similarity, config.edge_threshold)
        centrality = CentralityTable.from_components(components)
        clustering = Clustering(assignment, modularity_score(graph, assignment))
        if stored_edges != [[a, b, weight] for a, b, weight in graph.edges()]:
            raise DataError("artifact graph does not match similarity matrix and threshold")
        if stored_ac != {film: row.avg_c for film, row in centrality.rows.items()}:
            raise DataError("artifact average-centrality column is not the mean of the stored components")
        if not isinstance(stored_modularity, float) or stored_modularity != clustering.modularity:
            raise DataError(f"artifact modularity {stored_modularity!r} is not the modularity of the stored partition")
        return cls(version, config, similarity, graph, centrality, clustering, profiles, created_at)

    def validate(self) -> None:
        """State checks only: the config passes ``validate_config``; the
        similarity is symmetric, in [0, 1] and has a 0.0/1.0 diagonal; the
        films are distinct; the centrality components are floats in [0, 1];
        clustering and centrality cover exactly the film set with dense
        integer cluster ids; profiles name only known films, each at most
        once. The graph, the AC column and the modularity are derived from
        the state, so they are not rebuilt."""
        components = {film: (r.degree_c, r.closeness_c, r.betweenness_c) for film, r in self.centrality.rows.items()}
        _check_state(self.config, self.similarity, components, self.clustering.assignment, self.profiles)


def _film_ids(value, what: str) -> tuple[str, ...]:
    if not isinstance(value, list) or not set(map(type, value)) <= {str}:
        raise DataError(f"artifact {what} is not a list of film ids")
    return tuple(value)


def _check_state(
    config: PipelineConfig, similarity: SimilarityMatrix, components: dict, assignment: dict, profiles: dict
) -> None:
    try:
        validate_config(config)
    except DomainError as exc:
        raise DataError(f"artifact config: {exc}")
    values = similarity.values
    if not np.all((values >= 0.0) & (values <= 1.0)):
        raise DataError("artifact similarity has an entry that is not finite or outside [0, 1]")
    if not np.array_equal(values, values.T):
        raise DataError("artifact similarity is not symmetric")
    if not np.isin(values.diagonal(), (0.0, 1.0)).all():
        raise DataError("artifact similarity diagonal holds a value other than 0.0 or 1.0")
    positions = {film: i for i, film in enumerate(similarity.films)}
    repeated = [film for i, film in enumerate(similarity.films) if positions[film] != i]
    if repeated:
        raise DataError(f"artifact films name {repeated[0]} twice")
    films = set(similarity.films)
    if set(assignment) != films:
        raise DataError("artifact clustering does not cover exactly the film set")
    cluster_ids = set(assignment.values())
    if not set(map(type, assignment.values())) <= {int} or cluster_ids != set(range(len(cluster_ids))):
        raise DataError("artifact cluster ids are not integers dense from 0")
    if set(components) != films:
        raise DataError("artifact centrality table does not cover exactly the film set")
    for film, row in components.items():
        if not all(isinstance(c, float) and 0.0 <= c <= 1.0 for c in row):
            raise DataError(f"artifact centrality row for {film} has a component outside [0, 1]")
    for user, profile in profiles.items():
        named = profile.preferred + profile.non_preferred
        if not films.issuperset(named):
            raise DataError(f"artifact profile for {user} names films outside the film set")
        if len(set(named)) < len(named):
            raise DataError(f"artifact profile for {user} names a film twice")
