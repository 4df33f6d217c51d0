"""Per-user dual similarity and the averaged film-by-film similarity matrix.

Dual similarity compares how much of two films one user watched:

    DS = 2 * min(n_i, n_j) / (n_i + n_j)

with two sentinel conventions. A user who watched neither film carries no
information (NOT_COMPARABLE, exported as -1); a user who watched exactly one
film is hard evidence of dissimilarity (DS = 0). Both percentages being
exactly zero also yields NOT_COMPARABLE, since the ratio is 0/0.

Averaging across users supports two denominators, because "divide by the
number of users" and "divide by the number of informative users" give
different matrices on sparse data:

* COMPARABLE_COUNT (default): divide by the number of users whose DS is not
  the sentinel. Zeros stay in the numerator; they are evidence.
* ALL_USERS: divide by the total user count, the literal averaging rule.

The average is accumulated user-major over a pair vector: one entry per
upper-triangle film pair (``np.triu_indices``), a float64 running total and
an integer comparable count. Users are taken in ascending user order; for
each one, the dual similarity of every pair is computed with a few
vectorised numpy operations and added to the total. Per film pair this is
exactly the scalar definition, with the users summed sequentially in the
same order: every pair sees the same IEEE operations (``2 * min / sum``,
then one addition per user), and a pair the user cannot compare adds
``0.0``, which leaves the running total bit-for-bit unchanged (``x + 0.0``
is ``x`` for every x but -0.0, and a total that starts at +0.0 never
becomes -0.0). Users with no views add only such zeros and are skipped.
The result is therefore bit-identical to looping ``dual_similarity`` over
films x films x users, which the tests keep as the reference.

Work is O(films^2 x users), as in the scalar loop, but it runs in numpy.
Memory is O(films^2): the result matrix plus a handful of per-user arrays
of ``films * (films - 1) / 2`` entries. The films x films x users tensor is
never built.
"""

from __future__ import annotations

import csv
from enum import Enum
from typing import TextIO

import numpy as np

from .errors import DomainError
from .ingest import ViewMatrix, ident_sort_key

NOT_COMPARABLE = -1.0


class AveragingPolicy(Enum):
    COMPARABLE_COUNT = "comparable_count"
    ALL_USERS = "all_users"


def dual_similarity(n_i: float | None, n_j: float | None) -> float:
    """One user's similarity between two films given viewing percentages.

    ``None`` means the user never watched that film. Returns a value in
    [0, 1], or ``NOT_COMPARABLE`` when the user contributes no information.
    """
    for value in (n_i, n_j):
        if value is not None and not 0.0 <= value <= 1.0:
            raise DomainError(f"viewing percentage outside [0, 1]: {value}")
    if n_i is None and n_j is None:
        return NOT_COMPARABLE
    if n_i is None or n_j is None:
        return 0.0
    if n_i == 0.0 and n_j == 0.0:
        return NOT_COMPARABLE
    return 2.0 * min(n_i, n_j) / (n_i + n_j)


class SimilarityMatrix:
    """Dense symmetric film-by-film average similarity, values in [0, 1]."""

    def __init__(self, films: tuple[str, ...], values: np.ndarray):
        self.films = films
        self.values = values
        self._index = {film: i for i, film in enumerate(films)}

    def __contains__(self, film: str) -> bool:
        return film in self._index

    def value(self, film_i: str, film_j: str) -> float:
        return float(self.values[self._index[film_i], self._index[film_j]])

    def top_similar(self, film: str, k: int) -> list[tuple[str, float]]:
        """The k most similar other films, by descending similarity then id."""
        i = self._index[film]
        scored = [
            (other, float(self.values[i, j]))
            for j, other in enumerate(self.films)
            if j != i
        ]
        scored.sort(key=lambda pair: (-pair[1], ident_sort_key(pair[0])))
        return scored[:k]

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimilarityMatrix):
            return NotImplemented
        return self.films == other.films and np.array_equal(self.values, other.values)


def average_similarity(
    view: ViewMatrix,
    policy: AveragingPolicy = AveragingPolicy.COMPARABLE_COUNT,
) -> SimilarityMatrix:
    """Average dual similarity over users for every film pair.

    A pair with no informative user gets 0. The diagonal is 1 for any film
    with at least one watcher; films nobody watched stay all-zero (they end
    up isolated in the graph).
    """
    films = view.films
    users = view.users
    n = len(films)
    index = {film: i for i, film in enumerate(films)}
    rows, cols = np.triu_indices(n, 1)
    total = np.zeros(rows.size, dtype=np.float64)
    comparable = np.zeros(rows.size, dtype=np.int64)
    # Unwatched films read as 0.0 in pct; `watched` tells them apart from a
    # stored 0.0. ViewMatrix guarantees every stored value is in [0, 1].
    pct = np.zeros(n, dtype=np.float64)
    watched = np.zeros(n, dtype=bool)
    seen = np.zeros(n, dtype=bool)
    for user in users:
        views = view.user_views(user)
        if not views:
            continue
        pct.fill(0.0)
        watched.fill(False)
        for film, value in views.items():
            pct[index[film]] = value
            watched[index[film]] = True
        seen |= watched
        n_i = pct[rows]
        n_j = pct[cols]
        pair_sum = n_i + n_j
        ds = np.minimum(n_i, n_j)
        ds *= 2.0
        # pair_sum == 0 only when both percentages are 0 (stored or
        # unwatched), where ds is already 0: NOT_COMPARABLE adds nothing.
        informative = pair_sum > 0.0
        np.divide(ds, pair_sum, out=ds, where=informative)
        total += ds
        # One-sided pairs are comparable (DS = 0) even when the watched
        # side is 0.0; neither-watched and both-at-zero pairs are not.
        comparable += informative | (watched[rows] != watched[cols])

    if policy is AveragingPolicy.COMPARABLE_COUNT:
        denominator = comparable
    else:
        denominator = np.full(rows.size, len(users), dtype=np.int64)
    averages = np.zeros(rows.size, dtype=np.float64)
    np.divide(total, denominator, out=averages, where=denominator > 0)

    values = np.zeros((n, n), dtype=np.float64)
    values[rows, cols] = averages
    values[cols, rows] = averages
    np.fill_diagonal(values, seen)
    return SimilarityMatrix(films, values)


def write_dual_similarity_csv(view: ViewMatrix, stream: TextIO) -> None:
    """Debug dump of the full per-user DS tensor in long form, one row per
    (film pair, user), with -1 standing for NOT_COMPARABLE."""
    writer = csv.writer(stream)
    writer.writerow(["film_i", "film_j", "user", "ds"])
    films = view.films
    film_views = [view.film_views(film) for film in films]
    for i, film_i in enumerate(films):
        views_i = film_views[i]
        for film_j, views_j in zip(films[i + 1 :], film_views[i + 1 :]):
            for user in view.users:
                ds = dual_similarity(views_i.get(user), views_j.get(user))
                writer.writerow([film_i, film_j, user, repr(ds)])


def write_similarity_csv(sim: SimilarityMatrix, stream: TextIO) -> None:
    """Square matrix dump: header row of film ids, one row per film."""
    writer = csv.writer(stream)
    writer.writerow(["film_id", *sim.films])
    for i, film in enumerate(sim.films):
        writer.writerow([film, *[repr(float(v)) for v in sim.values[i]]])
