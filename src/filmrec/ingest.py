"""Viewing-log ingestion: raw event rows to a user viewing-percentage matrix.

The matrix stores, per (film, user), the fraction of the film's runtime the
user actually watched. A pair that never occurs means "never watched", which
is deliberately distinct from a stored 0.0 ("started but watched nothing");
the similarity layer treats the two cases differently. It keeps one store,
keyed by user: each user's ``{film: pct}`` dict, with one string object per
film id. A film's column (``film_views``) is gathered from the users on each
call, at O(users) cost; a user restriction shares the kept users' dicts.
Array kernels read ``dense``: the same data as two read-only users x films
arrays, built from the dicts on first use and kept with the matrix.
``derived`` keeps any other value computed from a matrix the same way.

Rows are checked once, by ``_valid_rows`` over ``csv.reader`` (with
``csv.DictReader``'s header, blank-row and short-row rules), and folded
once, by ``_fold``, which keeps each pair's maximum straight in the per-user
dicts. ``read_view_matrix`` joins the two in one pass with no per-row
objects; ``parse_events`` and ``build_view_matrix`` are the same two steps
with ``ViewingEvent``s in between.
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
    """Sparse (film, user) -> viewing percentage map, stored once per user,
    with deterministic film/user orderings. Immutable after construction."""

    def __init__(
        self,
        entries: Mapping[tuple[str, str], float],
        *,
        films: Iterable[str] | None = None,
        users: Iterable[str] | None = None,
    ):
        # one object per film id, so lookups across users' dicts match by identity
        film_ids = {film: film for film in films or ()}
        by_user: dict[str, dict[str, float]] = {}
        for (film, user), value in entries.items():
            if not 0.0 <= value <= 1.0:
                raise DataError(f"viewing percentage out of range for ({film}, {user}): {value}")
            film = film_ids.setdefault(film, film)
            by_user.setdefault(user, {})[film] = value
        self._films = tuple(sorted(film_ids, key=ident_sort_key))
        self._users = tuple(sorted(set(by_user).union(users or ()), key=ident_sort_key))
        self._by_user = by_user

    @classmethod
    def _of(cls, by_user: dict[str, dict[str, float]], films: tuple[str, ...], users: Iterable[str]) -> "ViewMatrix":
        """A matrix over prepared per-user dicts (values in [0, 1], one
        object per film id) and films already in ``ident_sort_key`` order,
        taken as they are; ``users`` holds every key of ``by_user`` and may
        add users without views."""
        view = object.__new__(cls)
        view._films = films
        view._users = tuple(sorted(users, key=ident_sort_key))
        view._by_user = by_user
        return view

    @property
    def films(self) -> tuple[str, ...]:
        return self._films

    @property
    def users(self) -> tuple[str, ...]:
        return self._users

    def pct(self, film: str, user: str) -> float | None:
        """Viewing percentage, or None if the user never watched the film."""
        return self._by_user.get(user, {}).get(film)

    def film_views(self, film: str) -> Mapping[str, float]:
        """The film's watchers and percentages, gathered in O(users)."""
        return {user: views[film] for user, views in self._by_user.items() if film in views}

    def user_views(self, user: str) -> Mapping[str, float]:
        return self._by_user.get(user, {})

    @cached_property
    def dense(self) -> DenseViews:
        """The matrix as read-only ``pct`` and ``watched`` arrays, built once
        per matrix with one ``np.fromiter`` pass over the per-user dicts."""
        index = {film: i for i, film in enumerate(self._films)}
        views = [self._by_user.get(user, {}) for user in self._users]
        lengths = [len(v) for v in views]
        count = sum(lengths)
        cols = np.fromiter(map(index.__getitem__, chain.from_iterable(views)), np.intp, count)
        cells = np.repeat(np.arange(len(views)) * len(index), lengths) + cols
        pct = np.zeros((len(views), len(index)))
        np.put(pct, cells, np.fromiter(chain.from_iterable(v.values() for v in views), np.float64, count))
        watched = np.zeros(pct.shape, dtype=bool)
        np.put(watched, cells, True)
        pct.flags.writeable = watched.flags.writeable = False
        return DenseViews(pct, watched)

    @cached_property
    def _derived(self) -> dict[Callable, object]:
        return {}

    def derived(self, build: Callable[["ViewMatrix"], T]) -> T:
        """``build(self)``, computed on first use and kept with the matrix,
        as ``dense`` is: one value per ``build``, which dies with the
        matrix and cannot go stale, as the matrix never changes."""
        if build not in self._derived:
            self._derived[build] = build(self)
        return self._derived[build]

    def entry_count(self) -> int:
        return sum(len(v) for v in self._by_user.values())

    def entries(self) -> dict[tuple[str, str], float]:
        return {
            (film, user): value
            for user, views in self._by_user.items()
            for film, value in views.items()
        }

    def restrict_users(self, users: Iterable[str]) -> "ViewMatrix":
        """Sub-matrix of the given users, sharing their dicts; the film list
        is kept intact so both sides of a split share one film universe."""
        keep = set(users)
        kept = {user: views for user, views in self._by_user.items() if user in keep}
        return ViewMatrix._of(kept, self._films, keep)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ViewMatrix):
            return NotImplemented
        return (
            self._films == other._films
            and self._users == other._users
            and self._by_user == other._by_user
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
    """Max-fold valid rows straight into the per-user dicts. Users and each
    user's films keep first-sighting order. With ``clamp=False`` the first
    ratio above 1 is raised once every row has been read, so a malformed
    later row is reported first."""
    film_ids: dict[str, str] = {}
    by_user: dict[str, dict[str, float]] = {}
    excess = None
    for film, user, watch, total in rows:
        ratio = watch / total
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
    return ViewMatrix._of(by_user, tuple(sorted(film_ids, key=ident_sort_key)), by_user)


def write_view_matrix_csv(view: ViewMatrix, stream: TextIO) -> None:
    """Long-form dump: one row per stored (film, user) percentage."""
    writer = csv.writer(stream)
    writer.writerow(["film_id", "user_id", "pct"])
    for film in view.films:
        views = view.film_views(film)
        for user in sorted(views, key=ident_sort_key):
            writer.writerow([film, user, repr(views[user])])
