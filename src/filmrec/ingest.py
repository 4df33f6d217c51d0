"""Viewing-log ingestion: raw event rows to a user viewing-percentage matrix.

The matrix stores, per (film, user), the fraction of the film's runtime the
user actually watched. A pair that never occurs means "never watched", which
is deliberately distinct from a stored 0.0 ("started but watched nothing");
the similarity layer treats the two cases differently. It keeps one store,
``dense``: two read-only users x films arrays, ``pct`` and ``watched``,
built when the matrix is made, with one id -> position map per axis. Every
read comes off those arrays, a user's films in film order and a film's
users in user order, so nothing depends on the order the rows came in; a
user restriction gathers the kept users' rows. ``derived`` keeps any other
value computed from a matrix with it.

Rows are checked once, by ``_valid_rows`` over ``csv.reader`` (with
``csv.DictReader``'s header, blank-row and short-row rules), and folded
once, by ``_fold``, which keeps each pair's maximum in per-user dicts and
writes them into the arrays. ``read_view_matrix`` joins the two in one pass
with no per-row objects; ``parse_events`` and ``build_view_matrix`` are the
same two steps with ``ViewingEvent``s in between.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, TextIO, TypeVar

import numpy as np

from .errors import DataError, FormatError, RowError

logger = logging.getLogger(__name__)

CSV_COLUMNS = ("film_id", "user_id", "watch_seconds", "total_seconds")
T = TypeVar("T")


def ident_sort_key(ident: str) -> tuple[int, int, str]:
    """Sort key for opaque identifiers: numeric ids compare as numbers,
    everything else falls back to lexicographic order after them."""
    try:
        return (0, int(ident), ident)
    except ValueError:
        return (1, 0, ident)


def _duration_error(watch: float, total: float) -> str | None:
    """Why a pair of durations is invalid, or None if it is valid."""
    # A chained comparison is False for nan, so each check also rejects
    # every non-finite duration.
    if not 0.0 < total < math.inf:
        return f"total_seconds must be finite and positive, got {total}"
    if not 0.0 <= watch < math.inf:
        return f"watch_seconds must be finite and non-negative, got {watch}"
    return None


@dataclass(frozen=True)
class ViewingEvent:
    film_id: str
    user_id: str
    watch_seconds: float
    total_seconds: float

    def __post_init__(self):
        error = _duration_error(self.watch_seconds, self.total_seconds)
        if error is not None:
            raise DataError(error)


_Row = tuple[str, str, float, float]


def _valid_rows(stream: Iterable[str] | TextIO, skip_bad_rows: bool) -> Iterator[_Row]:
    """``(film, user, watch, total)`` per valid data row, read as
    ``csv.DictReader`` would: the first physical row is the header (for a
    repeated name the last column wins), blank rows are skipped and missing
    fields read as None. A malformed row raises ``RowError`` with its line
    number; with ``skip_bad_rows`` it is skipped, and one WARNING per read
    gives the count and the first one."""
    reader = csv.reader(stream)
    header = next(reader, None)
    if header is None:
        raise FormatError("empty input: no header row")
    missing = [c for c in CSV_COLUMNS if c not in header]
    if missing:
        raise FormatError(f"missing required columns: {', '.join(missing)}")
    column = {name: index for index, name in enumerate(header)}
    i_film, i_user, i_watch, i_total = (column[c] for c in CSV_COLUMNS)
    width = max(i_film, i_user, i_watch, i_total) + 1

    skipped, first_skipped = 0, None
    for row in reader:
        if len(row) < width:
            if not row:
                continue
            row = row + [None] * (width - len(row))
        try:
            film_id = (row[i_film] or "").strip()
            user_id = (row[i_user] or "").strip()
            if not film_id or not user_id:
                raise RowError(reader.line_num, "empty film_id or user_id")
            try:
                watch = float(row[i_watch])
                total = float(row[i_total])
            except (TypeError, ValueError):
                raise RowError(reader.line_num, f"non-numeric durations: {row[i_watch]!r}, {row[i_total]!r}")
            error = _duration_error(watch, total)
            if error is not None:
                raise RowError(reader.line_num, error)
        except RowError as exc:
            if not skip_bad_rows:
                raise
            logger.debug("skipping malformed row: %s", exc)
            skipped += 1
            first_skipped = first_skipped or exc
            continue
        yield film_id, user_id, watch, total
    if skipped:
        logger.warning("skipped %d malformed rows; first at %s", skipped, first_skipped)


def parse_events(stream: Iterable[str] | TextIO, *, skip_bad_rows: bool = False) -> list[ViewingEvent]:
    """Parse a CSV event log into viewing events.

    The stream must have a header row with the columns in ``CSV_COLUMNS``
    (extra columns are ignored). Malformed rows raise ``RowError`` with the
    offending line number, or are skipped when ``skip_bad_rows`` is set.
    """
    return [ViewingEvent(*row) for row in _valid_rows(stream, skip_bad_rows)]


class DenseViews(NamedTuple):
    """A view matrix as arrays; rows follow its users, columns its films."""

    pct: np.ndarray  # float64; 0.0 where unwatched, a stored -0.0 keeps its sign
    watched: np.ndarray  # bool


class ViewMatrix:
    """Sparse (film, user) -> viewing percentage map, stored as its dense
    users x films arrays, with deterministic film/user orderings. Immutable
    after construction."""

    def __init__(
        self,
        entries: Mapping[tuple[str, str], float],
        *,
        films: Iterable[str] | None = None,
        users: Iterable[str] | None = None,
    ):
        # one object per film id, so the array build looks each up by identity
        film_ids = {film: film for film in films or ()}
        by_user: dict[str, dict[str, float]] = {}
        for (film, user), value in entries.items():
            if not 0.0 <= value <= 1.0:
                raise DataError(f"viewing percentage out of range for ({film}, {user}): {value}")
            by_user.setdefault(user, {})[film_ids.setdefault(film, film)] = value
        self._fill(by_user, film_ids, chain(by_user, users or ()))

    @classmethod
    def _of(cls, by_user: dict[str, dict[str, float]], films: Iterable[str]) -> "ViewMatrix":
        """A matrix over per-user dicts of values in [0, 1], taken as they
        are; ``films`` holds every film of ``by_user``."""
        view = object.__new__(cls)
        view._fill(by_user, films, by_user)
        return view

    def _index(self, films: Iterable[str], users: Iterable[str]) -> None:
        self._films = tuple(sorted(set(films), key=ident_sort_key))
        self._users = tuple(sorted(set(users), key=ident_sort_key))
        self._film_index = {film: i for i, film in enumerate(self._films)}
        self._user_index = {user: i for i, user in enumerate(self._users)}

    def _fill(self, by_user: dict[str, dict[str, float]], films: Iterable[str], users: Iterable[str]) -> None:
        """Index the films and users, which hold every key of ``by_user``,
        then write its cells into the arrays with one ``np.fromiter`` pass."""
        self._index(films, users)
        lengths = [len(views) for views in by_user.values()]
        count = sum(lengths)
        rows = np.fromiter(map(self._user_index.__getitem__, by_user), np.int32, len(by_user))
        cols = np.fromiter(map(self._film_index.__getitem__, chain.from_iterable(by_user.values())), np.int32, count)
        cells = (np.repeat(rows, lengths), cols)
        pct = np.zeros((len(self._users), len(self._films)))
        pct[cells] = np.fromiter(chain.from_iterable(v.values() for v in by_user.values()), np.float64, count)
        watched = np.zeros(pct.shape, dtype=bool)
        watched[cells] = True
        self._set(pct, watched)

    def _set(self, pct: np.ndarray, watched: np.ndarray) -> None:
        pct.flags.writeable = watched.flags.writeable = False
        self._dense = DenseViews(pct, watched)

    @property
    def films(self) -> tuple[str, ...]:
        return self._films

    @property
    def users(self) -> tuple[str, ...]:
        return self._users

    @property
    def dense(self) -> DenseViews:
        """The matrix as its read-only ``pct`` and ``watched`` arrays."""
        return self._dense

    def pct(self, film: str, user: str) -> float | None:
        """Viewing percentage, or None if the user never watched the film."""
        u, f = self._user_index.get(user), self._film_index.get(film)
        if u is None or f is None or not self._dense.watched[u, f]:
            return None
        return float(self._dense.pct[u, f])

    def film_views(self, film: str) -> dict[str, float]:
        """The film's watchers and percentages, in user order."""
        f = self._film_index.get(film)
        return {} if f is None else self._line(self._users, self._dense.pct[:, f], self._dense.watched[:, f])

    def user_views(self, user: str) -> dict[str, float]:
        """The user's films and percentages, in film order."""
        u = self._user_index.get(user)
        return {} if u is None else self._line(self._films, self._dense.pct[u], self._dense.watched[u])

    @staticmethod
    def _line(ids: tuple[str, ...], pct: np.ndarray, watched: np.ndarray) -> dict[str, float]:
        cells = np.flatnonzero(watched)
        return dict(zip(map(ids.__getitem__, cells.tolist()), pct[cells].tolist()))

    @cached_property
    def _derived(self) -> dict[Callable, object]:
        return {}

    def derived(self, build: Callable[["ViewMatrix"], T]) -> T:
        """``build(self)``, computed on first use and kept with the matrix:
        one value per ``build``, which dies with the matrix and cannot go
        stale, as the matrix never changes."""
        if build not in self._derived:
            self._derived[build] = build(self)
        return self._derived[build]

    def entry_count(self) -> int:
        return int(np.count_nonzero(self._dense.watched))

    def entries(self) -> dict[tuple[str, str], float]:
        rows, cols = np.nonzero(self._dense.watched)
        values = self._dense.pct[rows, cols].tolist()
        return {(self._films[f], self._users[u]): v for u, f, v in zip(rows.tolist(), cols.tolist(), values)}

    def restrict_users(self, users: Iterable[str]) -> "ViewMatrix":
        """Sub-matrix of the given users, their rows gathered; a user the
        matrix lacks gets an empty row. The film list is kept intact so both
        sides of a split share one film universe."""
        view = object.__new__(ViewMatrix)
        view._index(self._films, users)
        rows = np.array([self._user_index.get(user, -1) for user in view._users], dtype=np.intp)
        known, shape = rows >= 0, (rows.size, len(self._films))
        pct, watched = np.zeros(shape), np.zeros(shape, dtype=bool)
        pct[known], watched[known] = self._dense.pct[rows[known]], self._dense.watched[rows[known]]
        view._set(pct, watched)
        return view

    def __eq__(self, other) -> bool:
        if not isinstance(other, ViewMatrix):
            return NotImplemented
        return (
            self._films == other._films
            and self._users == other._users
            and all(map(np.array_equal, self._dense, other._dense))
        )

    def __repr__(self) -> str:
        return f"ViewMatrix({len(self._films)} films, {len(self._users)} users, {self.entry_count()} entries)"


def build_view_matrix(events: Iterable[ViewingEvent], clamp: bool = True) -> ViewMatrix:
    """Fold events into a ViewMatrix.

    Repeated (film, user) events keep the maximum percentage, so re-watches
    count once and the result does not depend on event order. Ratios above 1
    (replays within one event) are clamped to 1 by default; with
    ``clamp=False`` they are rejected.
    """
    return _fold(((e.film_id, e.user_id, e.watch_seconds, e.total_seconds) for e in events), clamp)


def read_view_matrix(
    stream: Iterable[str] | TextIO, *, clamp: bool = True, skip_bad_rows: bool = False
) -> ViewMatrix:
    """``build_view_matrix(parse_events(stream, …), clamp)`` in one pass:
    each valid row is folded as it is read, with no event objects."""
    return _fold(_valid_rows(stream, skip_bad_rows), clamp)


def _fold(rows: Iterable[_Row], clamp: bool) -> ViewMatrix:
    """Max-fold valid rows into per-user dicts, with one object per film id,
    from which the matrix's arrays are built. With ``clamp=False`` the first
    ratio above 1 is raised once every row has been read, so a malformed
    later row is reported first."""
    film_ids: dict[str, str] = {}
    by_user: dict[str, dict[str, float]] = {}
    excess = None
    for film, user, watch, total in rows:
        ratio = watch / total + 0.0  # a -0 watch time stores +0.0, whichever row comes first
        if ratio > 1.0:
            if not clamp:
                excess = excess or (film, user, watch, total)
                continue
            ratio = 1.0
        views = by_user.get(user)
        if views is None:
            views = by_user[user] = {}
        prev = views.get(film)
        if prev is None:
            views[film_ids.setdefault(film, film)] = ratio
        elif ratio > prev:
            views[film] = ratio
    if excess is not None:
        film, user, watch, total = excess
        raise DataError(f"watch time exceeds duration for film {film}, user {user}: {watch}s of {total}s")
    if not by_user:
        raise DataError("no viewing events")
    return ViewMatrix._of(by_user, film_ids)


def write_view_matrix_csv(view: ViewMatrix, stream: TextIO) -> None:
    """Long-form dump: one row per stored (film, user) percentage."""
    writer = csv.writer(stream)
    writer.writerow(["film_id", "user_id", "pct"])
    for film in view.films:
        for user, value in view.film_views(film).items():
            writer.writerow([film, user, repr(value)])
