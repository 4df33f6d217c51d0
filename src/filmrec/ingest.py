"""Viewing-log ingestion: raw event rows to a user viewing-percentage matrix.

The matrix stores, per (film, user), the fraction of the film's runtime the
user actually watched. A pair that never occurs means "never watched", which
is deliberately distinct from a stored 0.0 ("started but watched nothing");
the similarity layer treats the two cases differently. It keeps one store,
keyed by user: each user's ``{film: pct}`` dict, with one string object per
film id. A film's column (``film_views``) is gathered from the users on each
call, at O(users) cost; a user restriction shares the kept users' dicts.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, TextIO

from .errors import DataError, FormatError, RowError

logger = logging.getLogger(__name__)

CSV_COLUMNS = ("film_id", "user_id", "watch_seconds", "total_seconds")


def ident_sort_key(ident: str) -> tuple[int, int, str]:
    """Sort key for opaque identifiers: numeric ids compare as numbers,
    everything else falls back to lexicographic order after them."""
    try:
        return (0, int(ident), ident)
    except ValueError:
        return (1, 0, ident)


@dataclass(frozen=True)
class ViewingEvent:
    film_id: str
    user_id: str
    watch_seconds: float
    total_seconds: float

    def __post_init__(self):
        # A chained comparison is False for nan, so each check also rejects
        # every non-finite duration.
        if not 0.0 < self.total_seconds < math.inf:
            raise DataError(f"total_seconds must be finite and positive, got {self.total_seconds}")
        if not 0.0 <= self.watch_seconds < math.inf:
            raise DataError(f"watch_seconds must be finite and non-negative, got {self.watch_seconds}")


def parse_events(stream: Iterable[str] | TextIO, *, skip_bad_rows: bool = False) -> list[ViewingEvent]:
    """Parse a CSV event log into viewing events.

    The stream must have a header row with the columns in ``CSV_COLUMNS``
    (extra columns are ignored). Malformed rows raise ``RowError`` with the
    offending line number, or are logged and skipped when ``skip_bad_rows``
    is set.
    """
    reader = csv.DictReader(stream)
    if reader.fieldnames is None:
        raise FormatError("empty input: no header row")
    missing = [c for c in CSV_COLUMNS if c not in reader.fieldnames]
    if missing:
        raise FormatError(f"missing required columns: {', '.join(missing)}")

    events: list[ViewingEvent] = []
    for row in reader:
        line = reader.line_num
        try:
            film_id = (row["film_id"] or "").strip()
            user_id = (row["user_id"] or "").strip()
            if not film_id or not user_id:
                raise RowError(line, "empty film_id or user_id")
            try:
                watch = float(row["watch_seconds"])
                total = float(row["total_seconds"])
            except (TypeError, ValueError):
                raise RowError(line, f"non-numeric durations: {row['watch_seconds']!r}, {row['total_seconds']!r}")
            try:
                events.append(ViewingEvent(film_id, user_id, watch, total))
            except DataError as exc:
                raise RowError(line, str(exc))
        except RowError as exc:
            if not skip_bad_rows:
                raise
            logger.warning("skipping malformed row: %s", exc)
    return events


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
        sub = object.__new__(ViewMatrix)
        sub._films = self._films
        sub._users = tuple(sorted(keep, key=ident_sort_key))
        sub._by_user = {user: views for user, views in self._by_user.items() if user in keep}
        return sub

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
    entries: dict[tuple[str, str], float] = {}
    seen_any = False
    for event in events:
        seen_any = True
        ratio = event.watch_seconds / event.total_seconds
        if ratio > 1.0:
            if not clamp:
                raise DataError(
                    f"watch time exceeds duration for film {event.film_id}, user {event.user_id}: "
                    f"{event.watch_seconds}s of {event.total_seconds}s"
                )
            ratio = 1.0
        key = (event.film_id, event.user_id)
        prev = entries.get(key)
        if prev is None or ratio > prev:
            entries[key] = ratio
    if not seen_any:
        raise DataError("no viewing events")
    return ViewMatrix(entries)


def write_view_matrix_csv(view: ViewMatrix, stream: TextIO) -> None:
    """Long-form dump: one row per stored (film, user) percentage."""
    writer = csv.writer(stream)
    writer.writerow(["film_id", "user_id", "pct"])
    for film in view.films:
        views = view.film_views(film)
        for user in sorted(views, key=ident_sort_key):
            writer.writerow([film, user, repr(views[user])])
