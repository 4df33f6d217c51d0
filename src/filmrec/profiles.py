"""Per-user preference lists derived from viewing percentages.

A watched film is preferred when its viewing percentage is strictly above
the threshold (default 50%), non-preferred otherwise. Watching 0% still
counts as watched: the user saw it and walked away, which is signal.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .errors import DomainError
from .ingest import ViewMatrix, ident_sort_key


@dataclass(frozen=True)
class PreferenceProfile:
    user_id: str
    preferred: tuple[str, ...]
    non_preferred: tuple[str, ...]

    def watched(self) -> frozenset[str]:
        return frozenset(self.preferred) | frozenset(self.non_preferred)


def build_profiles(view: ViewMatrix, threshold: float = 0.5) -> dict[str, PreferenceProfile]:
    """Split every user's watched films into preferred / non-preferred.

    Preferred films are ordered by descending percentage, non-preferred by
    ascending percentage (most-rejected first); ties fall back to film id.
    """
    if not 0.0 < threshold < 1.0:
        raise DomainError(f"threshold must be in (0, 1), got {threshold}")
    # view.films is in ident_sort_key order, so a column's index is its
    # film id's rank; lexsort's last key leads, and -0.0 ties with 0.0
    films = np.array(view.films, dtype=object)
    profiles: dict[str, PreferenceProfile] = {}
    for user, pct, watched in zip(view.users, *view.dense):
        cols = np.flatnonzero(watched)
        values = pct[cols]
        above = values > threshold
        below = ~above
        preferred, non_preferred = cols[above], cols[below]
        preferred = preferred[np.lexsort((preferred, -values[above]))]
        non_preferred = non_preferred[np.lexsort((non_preferred, values[below]))]
        profiles[user] = PreferenceProfile(
            user, tuple(films[preferred].tolist()), tuple(films[non_preferred].tolist())
        )
    return profiles


def write_profiles_csv(profiles: dict[str, PreferenceProfile], stream: TextIO) -> None:
    writer = csv.writer(stream)
    writer.writerow(["user_id", "film_id", "label"])
    for user in sorted(profiles, key=ident_sort_key):
        profile = profiles[user]
        for film in profile.preferred:
            writer.writerow([user, film, "preferred"])
        for film in profile.non_preferred:
            writer.writerow([user, film, "non_preferred"])
