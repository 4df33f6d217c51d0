"""Ego-centric candidate scoring and per-user recommendation lists.

A candidate film is scored against each film the user has judged (the
"ego"): the candidate's average centrality divided by the hop distance
between the two, so globally important films count for more the closer they
sit to something the user actually watched. Per candidate, scores toward
preferred egos add and scores toward non-preferred egos subtract.

Distance conventions: a film is at distance 1 from itself (a film appearing
in its own evidence list contributes its full centrality), and an
unreachable ego contributes nothing.

``score_candidates`` is the one scorer, for serving and offline evaluation
alike. It scores a whole candidate list from one egos x films slice of the
graph's hop matrix (``FilmGraph.paths().hops``), which one all-sources path
kernel computes once per graph, so no request runs a BFS, and adds each
side's terms down the ego axis with ``column_sums``. ``ego_centrality``
keeps its own BFS as the independent single-ego reference.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from typing import Iterable, Sequence, TextIO

import numpy as np

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


def score_candidates(
    g: FilmGraph, ac: CentralityTable, films: Sequence[str], preferred: Iterable[str], non_preferred: Iterable[str]
) -> list[float]:
    """Each film's recommendation score against the given egos, in film order,
    from one slice of the hop matrix; egos outside the graph are skipped.
    Each side adds its egos' terms left to right in the order given, so a
    score equals ``recommendation_score`` of the per-ego values bit for bit.
    With no ego in the graph every score is the int 0, as
    ``sum([]) - sum([])`` is."""
    prefs, nonprefs = g.positions(preferred), g.positions(non_preferred)
    if not prefs and not nonprefs:
        return [0] * len(films)
    hops = g.paths().hops.take(prefs + nonprefs, axis=0).take([g.index(film) for film in films], axis=1)
    values = np.array([ac.ac(film) for film in films])
    terms = np.where(hops < 0, 0.0, values / np.maximum(hops, 1))
    # A side without egos adds up to 0.0. On the other side, sum's leading 0
    # would change nothing, as every term is >= +0.0.
    sides = (terms[: len(prefs)], terms[len(prefs) :])
    pref_sums, nonpref_sums = (column_sums(side) if len(side) else 0.0 for side in sides)
    return (pref_sums - nonpref_sums).tolist()


def column_sums(terms: np.ndarray) -> np.ndarray:
    """Sum along axis 0 strictly top to bottom, as ``sum`` adds left to right.

    numpy reduces axis 0 of a C-contiguous array with more than one column
    one row at a time, so each column is added in order. It reduces a run
    of values that are adjacent in memory pairwise instead: a transposed
    array is copied to C order first, and a 1-D array or a single column
    goes through ``cumsum``."""
    terms = np.ascontiguousarray(terms)
    if terms.ndim == 1 or terms.shape[1] == 1:
        return np.cumsum(terms, axis=0)[-1]
    return terms.sum(axis=0)


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
    preferred = set(profile.preferred)
    wanted = {clustering.assignment[film] for film in preferred if film in clustering.assignment}
    candidates = {
        film
        for film, cluster in clustering.assignment.items()
        if cluster in wanted and film not in preferred
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
    candidates = list(candidate_set(clustering, profile, exclude_non_preferred=exclude_non_preferred))
    scores = score_candidates(g, ac, candidates, profile.preferred, profile.non_preferred)
    scored = sorted(zip(candidates, scores), key=lambda pair: (-pair[1], ident_sort_key(pair[0])))
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
