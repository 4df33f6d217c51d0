"""Ego-centric candidate scoring and per-user recommendation lists.

A candidate film is scored against each film the user has judged (the
"ego"): the candidate's average centrality divided by the hop distance
between the two, so globally important films count for more the closer they
sit to something the user actually watched. Per candidate, scores toward
preferred egos add and scores toward non-preferred egos subtract.

Distance conventions: a film is at distance 1 from itself (a film appearing
in its own evidence list contributes its full centrality), and an
unreachable ego contributes nothing.

``score_candidate`` is the one scorer, for serving and offline evaluation
alike. It reads hops from rows of the graph's hop matrix (``FilmGraph.hops``),
which one all-sources path kernel computes once per graph, so no request
runs a BFS. ``ego_centrality`` keeps its own BFS as the independent
single-ego reference.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from typing import Iterable, TextIO

from .community import Clustering
from .errors import DomainError
from .graph import CentralityTable, FilmGraph, hop_distances
from .ingest import ident_sort_key
from .profiles import PreferenceProfile

UNREACHABLE = None


@dataclass(frozen=True)
class EgoScore:
    candidate: str
    ego: str
    distance: int | None
    value: float


@dataclass(frozen=True)
class RecommendationList:
    user_id: str | None
    entries: tuple[tuple[str, float], ...]

    def films(self) -> list[str]:
        return [film for film, _ in self.entries]

    def top(self, k: int) -> "RecommendationList":
        return replace(self, entries=self.entries[:k])


def ego_centrality(g: FilmGraph, ac: CentralityTable, candidate: str, ego: str) -> EgoScore:
    """Candidate's average centrality attenuated by hop distance to the ego."""
    if candidate not in g:
        raise KeyError(candidate)
    if ego not in g:
        raise KeyError(ego)
    hops = hop_distances(g, ego).get(candidate)
    if hops is None:
        return EgoScore(candidate, ego, UNREACHABLE, 0.0)
    distance = max(hops, 1)  # self-distance is defined as 1
    return EgoScore(candidate, ego, distance, ac.ac(candidate) / distance)


def recommendation_score(prefs: Iterable[float], nonprefs: Iterable[float]) -> float:
    """Sum of preferred-ego scores minus sum of non-preferred-ego scores."""
    return sum(prefs) - sum(nonprefs)


def score_candidate(
    g: FilmGraph, ac: CentralityTable, film: str, preferred: Iterable[str], non_preferred: Iterable[str]
) -> float:
    """The film's recommendation score against the given egos, summed in the
    order given; egos outside the graph are skipped."""
    value = ac.ac(film)
    target = g.index(film)

    def toward(ego: str) -> float:
        hops = g.hops(ego)[target]
        return 0.0 if hops < 0 else value / max(hops, 1)

    return recommendation_score(
        [toward(ego) for ego in preferred if ego in g],
        [toward(ego) for ego in non_preferred if ego in g],
    )


def candidate_set(
    clustering: Clustering,
    profile: PreferenceProfile,
    *,
    exclude_non_preferred: bool = False,
) -> set[str]:
    """Films sharing a cluster with anything the user prefers, minus the
    preferred films themselves. Non-preferred films stay eligible unless
    explicitly excluded (re-offering abandoned titles is allowed). A user
    with no preferred films gets no candidates; ``is_cold_start`` decides
    when to serve the cold-start list instead."""
    wanted = {clustering.assignment[film] for film in profile.preferred if film in clustering.assignment}
    candidates = {
        film
        for film, cluster in clustering.assignment.items()
        if cluster in wanted and film not in profile.preferred
    }
    if exclude_non_preferred:
        candidates -= set(profile.non_preferred)
    return candidates


def rank_for_user(
    g: FilmGraph,
    ac: CentralityTable,
    clustering: Clustering,
    profile: PreferenceProfile,
    *,
    exclude_non_preferred: bool = False,
) -> RecommendationList:
    """Score every candidate against the user's full judged history."""
    candidates = candidate_set(clustering, profile, exclude_non_preferred=exclude_non_preferred)
    scored = [
        (film, score_candidate(g, ac, film, profile.preferred, profile.non_preferred))
        for film in candidates
    ]
    scored.sort(key=lambda pair: (-pair[1], ident_sort_key(pair[0])))
    return RecommendationList(profile.user_id, tuple(scored))


def rank_cold_start(ac: CentralityTable, k: int) -> RecommendationList:
    """Global fallback for users without history: top films by centrality."""
    if k < 1:
        raise DomainError(f"k must be at least 1, got {k}")
    films = sorted(ac.rows, key=lambda film: (-ac.ac(film), ident_sort_key(film)))
    entries = tuple((film, ac.ac(film)) for film in films[:k])
    return RecommendationList(None, entries)


def write_recommendations_csv(rec: RecommendationList, stream: TextIO) -> None:
    writer = csv.writer(stream)
    writer.writerow(["user_id", "rank", "film_id", "rs_ef"])
    for rank, (film, score) in enumerate(rec.entries, start=1):
        writer.writerow([rec.user_id if rec.user_id is not None else "", rank, film, repr(score)])
