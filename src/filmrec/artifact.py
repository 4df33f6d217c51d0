"""Versioned on-disk pipeline artifact.

``save`` writes one canonical JSON document of format 3. It holds only the
pipeline's state:

- ``format_version`` and ``created_at``, the build time;
- ``config``, the config snapshot, with every field named;
- ``films``, the film ids in similarity order. Every list below that
  follows or names films uses this order;
- ``similarity``, the upper triangle of the similarity matrix, diagonal
  included, row-major as ``np.triu_indices`` gives it, in one flat list;
- ``clustering``, whose ``assignment`` lists one cluster id per film;
- ``profiles``, per user the ``preferred`` and ``non_preferred`` lists of
  indices into ``films``.

Load derives the rest once, with the pipeline's own functions: the
symmetric matrix, the graph (from the similarity and the config's edge
threshold), the centrality table with its average-centrality (AC) column,
and the modularity. Computing the centrality runs the graph's path kernel,
so a loaded artifact needs no further preparation before it ranks. Load
refuses a key outside the schema, a config that lacks a field, an empty
film list, a similarity entry that is not a JSON float, and a profile
index that is not an integer, falls outside the film list or repeats,
besides the state checks that ``validate`` repeats.

Load reads format 3 only. An artifact is a cache: a file of any other
version is refused, and ``filmrec run`` rebuilds it.

Serialization is canonical (sorted keys, shortest-round-trip floats), so
the same state always produces the same bytes and a load/save cycle is
byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .community import Clustering, modularity_score
from .config import PipelineConfig
from .errors import DataError, DomainError
from .graph import CentralityTable, FilmGraph, build_graph
from .profiles import PreferenceProfile
from .similarity import SimilarityMatrix

FORMAT_VERSION = 3

# the keys a document and each of its fixed-key sections may hold
_KEYS = {
    "document": {"format_version", "created_at", "config", "films", "similarity", "clustering", "profiles"},
    "clustering": {"assignment"},
}
_PROFILE_KEYS = {"preferred", "non_preferred"}


@dataclass(frozen=True)
class PipelineArtifact:
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
        return cls(config, similarity, graph, centrality, clustering, profiles, created)

    def to_payload(self) -> dict:
        """The artifact rendered in the shape of format 1, derived data
        included. No reader accepts this document; it is the stable shape
        that the payload hashes are taken of."""
        return {
            "format_version": 1,
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

    def _state_payload(self) -> dict:
        """The artifact as the format-3 document ``save`` writes: the state only."""
        films = self.similarity.films
        index = {film: i for i, film in enumerate(films)}
        return {
            "format_version": FORMAT_VERSION,
            "created_at": self.created_at,
            "config": self.config.to_dict(),
            "films": list(films),
            "similarity": self.similarity.values[np.triu_indices(len(films))].tolist(),
            "clustering": {"assignment": [self.clustering.assignment[film] for film in films]},
            "profiles": {
                user: {
                    "preferred": [index[film] for film in profile.preferred],
                    "non_preferred": [index[film] for film in profile.non_preferred],
                }
                for user, profile in self.profiles.items()
            },
        }

    def save(self, path: str | Path) -> None:
        text = json.dumps(self._state_payload(), sort_keys=True, separators=(",", ":"))
        Path(path).write_text(text, encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "PipelineArtifact":
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise DataError(f"artifact is not valid UTF-8 JSON: {exc}")
        return cls.from_payload(payload)

    @classmethod
    def from_payload(cls, payload: dict) -> "PipelineArtifact":
        """Read and check a format-3 document's state and derive the graph,
        the centrality table and the modularity from it."""
        if not isinstance(payload, dict):
            raise DataError(f"artifact is not a JSON object: {type(payload).__name__}")
        version = payload.get("format_version")
        if not isinstance(version, int) or isinstance(version, bool):
            raise DataError("artifact missing integer format_version")
        if version > FORMAT_VERSION:
            raise DataError(
                f"artifact format_version {version} is newer than supported {FORMAT_VERSION}"
            )
        if version < FORMAT_VERSION:
            raise DataError(
                f"artifact format_version {version} is older than supported {FORMAT_VERSION}; "
                "rebuild it with `filmrec run`"
            )
        _check_keys(payload, _KEYS["document"], "document")
        for section in ("config", "clustering", "profiles"):
            if not isinstance(payload.get(section), dict):
                raise DataError(f"malformed artifact payload: {section} is not an object")
            if section in _KEYS:
                _check_keys(payload[section], _KEYS[section], section)
        missing = {option.name for option in fields(PipelineConfig)} - payload["config"].keys()
        if missing:
            raise DataError(f"artifact config is missing key {min(missing)!r}")
        try:
            config = PipelineConfig.from_dict(payload["config"])
        except DomainError as exc:
            raise DataError(f"artifact config: {exc}")
        try:
            films = _film_ids(payload["films"])
            values, assignment, profiles = _read_state(payload, films)
            created_at = payload["created_at"]
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"malformed artifact payload: {exc!r}")
        if not isinstance(created_at, str):
            raise DataError(f"artifact created_at is not a string: {created_at!r}")
        similarity = SimilarityMatrix(films, values)
        _check_state(similarity, assignment, profiles)
        graph = build_graph(similarity, config.edge_threshold)
        centrality = CentralityTable.compute(graph)
        clustering = Clustering(assignment, modularity_score(graph, assignment))
        return cls(config, similarity, graph, centrality, clustering, profiles, created_at)

    def validate(self) -> None:
        """State checks only (the config checked itself when it was built): the
        similarity is symmetric, in [0, 1] and has a 0.0/1.0 diagonal; the
        films are distinct; the clustering covers exactly the film set with
        dense integer cluster ids; profiles name only known films, each at
        most once. The graph, the centrality table and the modularity are
        derived from the state, so they are not rebuilt."""
        _check_state(self.similarity, self.clustering.assignment, self.profiles)


def _check_keys(section: dict, allowed: set[str], what: str) -> None:
    if not section.keys() <= allowed:
        raise DataError(f"artifact {what} has unknown key {min(section.keys() - allowed)!r}")


def _film_ids(value) -> tuple[str, ...]:
    if not isinstance(value, list) or not set(map(type, value)) <= {str}:
        raise DataError("artifact films is not a list of film ids")
    if not value:
        # a graph without nodes has no centrality to derive
        raise DataError("artifact films is empty")
    return tuple(value)


def _read_state(payload: dict, films: tuple[str, ...]):
    """The document's state, with films named by position."""
    count = len(films)
    upper = payload["similarity"]
    if not isinstance(upper, list) or len(upper) != count * (count + 1) // 2:
        raise DataError("artifact similarity is not the upper triangle of a film-by-film matrix")
    # np.array(..., float64) would take "0.5", true or 0 as a number
    if not set(map(type, upper)) <= {float}:
        raise DataError("artifact similarity has an entry that is not a float")
    values = np.empty((count, count))
    rows, cols = np.triu_indices(count)
    values[rows, cols] = values[cols, rows] = np.array(upper, dtype=np.float64)
    assignment = payload["clustering"]["assignment"]
    if not isinstance(assignment, list) or len(assignment) != count:
        raise DataError("artifact clustering does not hold one cluster id per film")
    profiles = {}
    for user, entry in payload["profiles"].items():
        what = f"profile for {user}"
        if not isinstance(entry, dict):
            raise DataError(f"artifact {what} is not an object")
        _check_keys(entry, _PROFILE_KEYS, what)
        profiles[user] = PreferenceProfile(
            user, _films_at(entry["preferred"], films, what), _films_at(entry["non_preferred"], films, what)
        )
    return values, dict(zip(films, assignment)), profiles


def _films_at(value, films: tuple[str, ...], what: str) -> tuple[str, ...]:
    if not isinstance(value, list) or not set(map(type, value)) <= {int}:
        raise DataError(f"artifact {what} is not a list of film indices")
    if value and not (0 <= min(value) and max(value) < len(films)):
        raise DataError(f"artifact {what} names a film index outside the film list")
    return tuple(map(films.__getitem__, value))


def _check_state(similarity: SimilarityMatrix, assignment: dict, profiles: dict) -> None:
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
    for user, profile in profiles.items():
        named = profile.preferred + profile.non_preferred
        if not films.issuperset(named):
            raise DataError(f"artifact profile for {user} names films outside the film set")
        if len(set(named)) < len(named):
            raise DataError(f"artifact profile for {user} names a film twice")
