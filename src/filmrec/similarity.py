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
upper-triangle film pair (``np.triu_indices``) and a float64 running total.
Each user's percentages are one row of the matrix's dense arrays
(``ViewMatrix.dense``: float64 ``pct`` and bool ``watched``, users x films,
the matrix's only store). Users are taken in ascending user order; for each
one, the dual similarity of every pair is computed with a few vectorised
numpy operations into preallocated pair buffers and added to the total. Per
film pair this is exactly the scalar definition, with the users summed
sequentially in the same order: every pair sees the same IEEE operations
(``2 * min / sum``, then one addition per user), and a pair the user cannot
compare adds ``±0.0`` (its ``2 * min`` is ±0 and is divided by the smallest
positive double instead of 0), which leaves the running total bit-for-bit
unchanged (``x + ±0.0`` is ``x`` for every x but -0.0, and a total that
starts at +0.0 never becomes -0.0). Users with no views add only such zeros
and are skipped. The result is therefore bit-identical to looping
``dual_similarity`` over films x films x users, which the tests keep as the
reference.

The comparable count needs no per-user work. A user is not comparable on a
pair when they watched neither film, or both at ±0.0; with W_i the
watchers of film i and Z_i those who watched it at ±0.0, the count is
``|W_i| + |W_j| - |W_i & W_j| - |Z_i & Z_j|``. Each film's W and Z are
packed into 64-bit words along users and each intersection is a popcount
(``np.bitwise_count``), so every count is an exact integer. The same counts
are the 0/1 products ``(1-W)ᵀ(1-W) + ZᵀZ`` subtracted from the user count,
but as float products they run through the BLAS, whose threads made the
whole build slower on a 2-core machine; the popcounts take about a
millisecond at 120 films x 500 users.

Work is O(films^2 x users), as in the scalar loop, but it runs in numpy.
Memory is O(users x films + films^2): the dense arrays, the result matrix,
a handful of pair buffers of ``films * (films - 1) / 2`` entries, and the
packed user sets. The films x films x users tensor is never built.
"""

from __future__ import annotations

import csv
from enum import Enum
from typing import TextIO

import numpy as np

from .errors import DomainError
from .ingest import ViewMatrix, ident_sort_key

NOT_COMPARABLE = -1.0
_TINY = np.nextafter(0.0, 1.0)  # the smallest positive double, 5e-324


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
    n = len(films)
    pct, watched = view.dense
    rows, cols = np.triu_indices(n, 1)
    total = np.zeros(rows.size)
    n_i, n_j, pair_sum, ds = (np.empty(rows.size) for _ in range(4))
    # Users with no views add only +0.0 and are skipped.
    for user_pct in pct[watched.any(axis=1)]:
        np.take(user_pct, rows, out=n_i, mode="clip")
        np.take(user_pct, cols, out=n_j, mode="clip")
        np.add(n_i, n_j, out=pair_sum)
        np.minimum(n_i, n_j, out=ds)
        ds *= 2.0
        # pair_sum is 0 only where both percentages are ±0 and ds is ±0
        # already; the smallest double leaves ds as it is there, and every
        # other pair_sum as it is.
        np.maximum(pair_sum, _TINY, out=pair_sum)
        ds /= pair_sum
        total += ds

    if policy is AveragingPolicy.COMPARABLE_COUNT:
        denominator = comparable_counts(pct, watched)
    else:
        denominator = np.full(rows.size, len(view.users), dtype=np.int64)
    averages = np.zeros(rows.size, dtype=np.float64)
    np.divide(total, denominator, out=averages, where=denominator > 0)

    values = np.zeros((n, n), dtype=np.float64)
    values[rows, cols] = averages
    values[cols, rows] = averages
    np.fill_diagonal(values, watched.any(axis=0))
    return SimilarityMatrix(films, values)


def comparable_counts(pct: np.ndarray, watched: np.ndarray) -> np.ndarray:
    """Per upper-triangle film pair (``np.triu_indices`` order), the number
    of users whose dual similarity is not NOT_COMPARABLE: the users who
    watched either film, less those who watched both at ±0.0.

    With W_i the watchers of film i and Z_i those who watched it at ±0.0,
    that is ``|W_i| + |W_j| - |W_i & W_j| - |Z_i & Z_j|``. Each film's two
    user sets are packed into 64-bit words, and each intersection is a
    popcount, so every count is an exact integer."""
    n = watched.shape[1]
    by_film = np.concatenate([_pack_users(watched), _pack_users(watched & (pct == 0.0))], axis=1)
    counts = watched.sum(axis=0, dtype=np.int64)
    rows, cols = np.triu_indices(n, 1)
    overlap = np.empty(rows.size, dtype=np.int64)
    # film by film, so no pairs x words array is built
    start = 0
    for i in range(n - 1):
        stop = start + n - 1 - i
        np.bitwise_count(by_film[i] & by_film[i + 1 :]).sum(axis=1, out=overlap[start:stop])
        start = stop
    return counts[rows] + counts[cols] - overlap


def _pack_users(members: np.ndarray) -> np.ndarray:
    """A bool users x films array as one row of uint64 words per film."""
    packed = np.packbits(members, axis=0)
    words = np.zeros((members.shape[1], -(-packed.shape[0] // 8) * 8), dtype=np.uint8)
    words[:, : packed.shape[0]] = packed.T
    return words.view(np.uint64)


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
