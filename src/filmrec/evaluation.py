"""Offline evaluation of ranking policies, plus baselines and synthetic data.

The protocol: split users into train and test pools, fit a policy on the
training pool only, then for each test user hold out their two most-watched
and two least-watched films. The policy scores each held-out film from the
user's remaining history; a score is judged +1 when its sign matches the
held-out label (positive for the most-watched, negative for the
least-watched), 0 when the score is exactly zero, and -1 otherwise.
Accuracy is the fraction of +1 judgments; zeros count against.

Baselines are deliberately simple: a cosine k-nearest-neighbor vote over
viewing vectors, a per-film Bernoulli Naive Bayes over binarized labels, and
a symmetric random scorer whose expected accuracy is one third.
"""

from __future__ import annotations

import csv
import logging
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Protocol, TextIO

import numpy as np

from .community import louvain
from .config import PipelineConfig, validate_config
from .errors import DomainError
from .graph import CentralityTable, FilmGraph, build_graph
from .ingest import ViewMatrix, ViewingEvent, ident_sort_key
from .ranking import score_candidate
from .similarity import average_similarity

logger = logging.getLogger(__name__)

PREFERRED = "preferred"
NON_PREFERRED = "non_preferred"


# ---------------------------------------------------------------------------
# Splitting and judging


@dataclass(frozen=True)
class SplitSpec:
    sample_size: int
    train_fraction: float
    seed: int


def split_users(
    view: ViewMatrix, sample_size: int, train_fraction: float, seed: int
) -> tuple[ViewMatrix, ViewMatrix]:
    """Sample users without replacement and partition them by user.

    Films are shared across both sides; only the user pools differ. The same
    seed always produces the same split.
    """
    if sample_size < 1:
        raise DomainError(f"sample_size must be at least 1, got {sample_size}")
    if sample_size > len(view.users):
        raise DomainError(f"sample_size {sample_size} exceeds user count {len(view.users)}")
    if not 0.0 < train_fraction < 1.0:
        raise DomainError(f"train_fraction must be in (0, 1), got {train_fraction}")
    rng = random.Random(seed)
    sample = rng.sample(list(view.users), sample_size)
    n_train = int(round(sample_size * train_fraction))
    if n_train == 0 or n_train == sample_size:
        raise DomainError(f"train_fraction {train_fraction} leaves an empty split side")
    train_users = sample[:n_train]
    test_users = sample[n_train:]
    return view.restrict_users(train_users), view.restrict_users(test_users)


def judge(rs_value: float, label: str) -> int:
    """+1 when the score's sign agrees with the label, 0 on exact zero,
    -1 on disagreement."""
    if label not in (PREFERRED, NON_PREFERRED):
        raise DomainError(f"unknown label: {label}")
    if rs_value == 0.0:
        return 0
    agrees = rs_value > 0.0 if label == PREFERRED else rs_value < 0.0
    return 1 if agrees else -1


@dataclass(frozen=True)
class EvalCase:
    """One test user: two held-out extremes per label plus the remaining
    watched films (the observable context a policy may use)."""

    user_id: str
    held_preferred: tuple[str, str]
    held_non_preferred: tuple[str, str]
    context: dict[str, float]


def make_eval_case(user_id: str, views: Mapping[str, float]) -> EvalCase | None:
    """Build the held-out case, or None when the user watched fewer than
    four films."""
    if len(views) < 4:
        return None
    ordered = sorted(views, key=lambda film: (-views[film], ident_sort_key(film)))
    held_preferred = (ordered[0], ordered[1])
    held_non_preferred = (ordered[-1], ordered[-2])
    held = {*held_preferred, *held_non_preferred}
    context = {film: pct for film, pct in views.items() if film not in held}
    return EvalCase(user_id, held_preferred, held_non_preferred, context)


@dataclass(frozen=True)
class CaseJudgment:
    user_id: str
    film_id: str
    label: str
    rs_value: float
    score: int


@dataclass(frozen=True)
class EvalReport:
    method: str
    split: SplitSpec | None
    judgments: tuple[CaseJudgment, ...]
    skipped_users: tuple[str, ...]
    accuracy: float

    def histogram(self) -> dict[int, int]:
        counts = {1: 0, 0: 0, -1: 0}
        for judgment in self.judgments:
            counts[judgment.score] += 1
        return counts

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "split": None
            if self.split is None
            else {
                "sample_size": self.split.sample_size,
                "train_fraction": self.split.train_fraction,
                "seed": self.split.seed,
            },
            "accuracy": self.accuracy,
            "judgment_histogram": {str(k): v for k, v in self.histogram().items()},
            "skipped_users": list(self.skipped_users),
            "judgments": [
                {
                    "user_id": j.user_id,
                    "film_id": j.film_id,
                    "label": j.label,
                    "rs_value": j.rs_value,
                    "score": j.score,
                }
                for j in self.judgments
            ],
        }


class ScorePolicy(Protocol):
    name: str

    def fit(self, train: ViewMatrix) -> None: ...

    def score_film(self, case: EvalCase, film: str) -> float: ...


def evaluate_method(
    policy: ScorePolicy,
    train: ViewMatrix,
    test: ViewMatrix,
    *,
    split: SplitSpec | None = None,
) -> EvalReport:
    """Fit the policy on training users only and judge it on every test
    user's held-out extremes. Test users with fewer than four watched films
    are skipped (with a warning) and listed in the report."""
    policy.fit(train)
    judgments: list[CaseJudgment] = []
    skipped: list[str] = []
    for user in test.users:
        case = make_eval_case(user, test.user_views(user))
        if case is None:
            logger.warning("skipping test user %s: fewer than 4 watched films", user)
            skipped.append(user)
            continue
        for film in case.held_preferred:
            rs = policy.score_film(case, film)
            judgments.append(CaseJudgment(user, film, PREFERRED, rs, judge(rs, PREFERRED)))
        for film in case.held_non_preferred:
            rs = policy.score_film(case, film)
            judgments.append(CaseJudgment(user, film, NON_PREFERRED, rs, judge(rs, NON_PREFERRED)))
    correct = sum(1 for j in judgments if j.score == 1)
    accuracy = correct / len(judgments) if judgments else 0.0
    return EvalReport(policy.name, split, tuple(judgments), tuple(skipped), accuracy)


# ---------------------------------------------------------------------------
# Policies


class EgoGraphPolicy:
    """The full similarity-graph pipeline: fit builds the similarity matrix,
    thresholded graph, centrality table, and clustering from training users;
    scoring runs the ego-centric recommendation score over the test user's
    context films labeled by the preference threshold, through the same
    ``score_candidate`` that serving uses, with egos in film-id order.

    The keyword arguments are ``PipelineConfig`` fields; fit reads the
    averaging policy and edge threshold, scoring the preference threshold.
    """

    def __init__(self, **config):
        self.name = "ego_graph"
        self.config = PipelineConfig(**config)
        validate_config(self.config)
        self.graph: FilmGraph | None = None
        self.centrality: CentralityTable | None = None
        self.similarity = None
        self.clustering = None

    def fit(self, train: ViewMatrix) -> None:
        self.similarity = average_similarity(train, self.config.averaging_policy)
        self.graph = build_graph(self.similarity, self.config.edge_threshold)
        self.centrality = CentralityTable.compute(self.graph)
        self.clustering = louvain(self.graph)

    def score_film(self, case: EvalCase, film: str) -> float:
        assert self.graph is not None and self.centrality is not None, "fit() first"
        threshold = self.config.preference_threshold
        prefs = sorted((f for f, pct in case.context.items() if pct > threshold), key=ident_sort_key)
        nonprefs = sorted((f for f, pct in case.context.items() if pct <= threshold), key=ident_sort_key)
        return score_candidate(self.graph, self.centrality, film, prefs, nonprefs)


class RandomScorePolicy:
    """Symmetric random scorer: -1, 0, or +1 with equal probability, so the
    expected sign-agreement accuracy is 1/3."""

    def __init__(self, seed: int):
        self.name = "random"
        self._rng = random.Random(seed)

    def fit(self, train: ViewMatrix) -> None:
        pass

    def score_film(self, case: EvalCase, film: str) -> float:
        return self._rng.choice((-1.0, 0.0, 1.0))


class TrainingArrays:
    """The training matrix as arrays, built once per fit, from which both
    baselines predict.

    ``film_index`` maps a film to its column; one extra all-zero column
    stands for every film the matrix lacks. Rows follow ``train.users``.
    ``pct``, ``watched`` and ``liked`` (pct > 0.5) are dense; ``order`` and
    ``values`` hold each user's films and percentages in that user's own
    dict order, padded with the zero column, so a row sum can add in the
    order the dict loops add.
    """

    def __init__(self, train: ViewMatrix):
        self.film_index = {film: i for i, film in enumerate(train.films)}
        self.absent = len(self.film_index)
        self.user_keys = [ident_sort_key(user) for user in train.users]
        self.views = [train.user_views(user) for user in train.users]
        self.lengths = np.array([len(views) for views in self.views])
        # one trailing zero at least, so no row sum runs over an empty row
        width = int(self.lengths.max(initial=0)) + 1
        self.order = np.full((len(self.views), width), self.absent, dtype=np.intp)
        self.values = np.zeros((len(self.views), width))
        for row, views in enumerate(self.views):
            self.order[row, : len(views)] = [self.film_index[film] for film in views]
            self.values[row, : len(views)] = list(views.values())
        rows = np.arange(len(self.views))[:, None]
        self.pct = np.zeros((len(self.views), self.absent + 1))
        self.pct[rows, self.order] = self.values
        self.watched = np.zeros(self.pct.shape, dtype=np.int32)
        self.watched[rows, self.order] = 1
        self.watched[:, self.absent] = 0
        self.liked = self.watched * (self.pct > 0.5)
        self.norms = np.sqrt(_row_sums(self.values * self.values))

    def columns(self, films: Iterable[str]) -> list[int]:
        return [self.film_index.get(film, self.absent) for film in films]

    def cosines(self, context: Mapping[str, float]) -> np.ndarray:
        """Every training user's cosine with ``context`` (absent = 0),
        bit-identical to a dict loop that sums the smaller dict's products
        in its insertion order: both orders are summed, one is kept."""
        cols = self.columns(context)
        vals = np.array([*context.values(), 0.0])
        by_context = _row_sums(self.pct[:, [*cols, self.absent]] * vals)
        dense = np.zeros(self.absent + 1)
        dense[cols] = vals[:-1]
        dense[self.absent] = 0.0  # the training users' padding
        by_train = _row_sums(self.values * dense[self.order])
        dot = np.where(self.lengths < len(context), by_train, by_context)
        norm = np.sqrt(_row_sums(vals * vals))
        with np.errstate(divide="ignore", invalid="ignore"):
            cosine = dot / (norm * self.norms)
        return np.where((dot == 0.0) | (norm == 0.0) | (self.norms == 0.0), 0.0, cosine)


def _row_sums(products: np.ndarray) -> np.ndarray:
    """Sum along the last axis strictly left to right, as ``sum`` does."""
    return np.cumsum(products, axis=-1)[..., -1]


def knn_predict(
    arrays: TrainingArrays, user_views: Mapping[str, float], films: Iterable[str], k: int
) -> dict[str, bool]:
    """Predict preference per film from the k training users most similar to
    the given viewing vector (cosine, absent = 0): preferred when those
    neighbors' similarity-weighted mean percentage on the film exceeds 0.5;
    films none of them watched come back non-preferred. Cosine ties go to
    the lower user id."""
    cosines = arrays.cosines(user_views).tolist()
    similarities = sorted(zip((-c for c in cosines), arrays.user_keys, range(len(cosines))))
    neighbors = [(arrays.views[row], -neg_sim) for neg_sim, _, row in similarities[:k]]
    predictions: dict[str, bool] = {}
    for film in films:
        weight_total = 0.0
        weighted_pct = 0.0
        for views, sim in neighbors:
            pct = views.get(film)
            if pct is None or sim <= 0.0:
                continue
            weight_total += sim
            weighted_pct += sim * pct
        predictions[film] = weight_total > 0.0 and weighted_pct / weight_total > 0.5
    return predictions


def naive_bayes_predict(
    arrays: TrainingArrays, user_views: Mapping[str, float], films: Iterable[str]
) -> dict[str, bool]:
    """Per-film Bernoulli Naive Bayes over binarized labels (pct > 0.5) with
    add-one smoothing. Features are the given user's other watched films'
    binary labels; exact posterior ties resolve to non-preferred.

    Each class's match counts come from exact integer products of its
    watchers of a film with the features' watched and liked columns; the
    log terms are added one by one in feature order."""
    features = sorted(user_views, key=ident_sort_key)
    liked_feature = np.array([user_views[feature] > 0.5 for feature in features], dtype=bool)
    films = list(films)
    targets = arrays.columns(films)
    feature_cols = arrays.columns(features)
    seen_f = arrays.watched[:, feature_cols]
    liked_f = arrays.liked[:, feature_cols]

    def odds(watchers: np.ndarray) -> tuple[list[int], list[list[float]]]:
        # watchers: users x films, 1 where the user is in this class for the film
        seen = watchers.T @ seen_f
        liked = watchers.T @ liked_f
        match = np.where(liked_feature, liked, seen - liked)
        # the counts are small integers, so numpy's division is Python's int / int
        return watchers.sum(axis=0).tolist(), ((match + 1) / (seen + 2)).tolist()

    pref = arrays.liked[:, targets]
    n_pref, odds_pref = odds(pref)
    n_non, odds_non = odds(arrays.watched[:, targets] - pref)
    predictions: dict[str, bool] = {}
    for film, n_p, n_n, row_pref, row_non in zip(films, n_pref, n_non, odds_pref, odds_non):
        log_pref = math.log((n_p + 1) / (n_p + n_n + 2))
        log_non = math.log((n_n + 1) / (n_p + n_n + 2))
        for feature, odds_p, odds_n in zip(features, row_pref, row_non):
            if feature != film:
                log_pref += math.log(odds_p)
                log_non += math.log(odds_n)
        predictions[film] = log_pref > log_non
    return predictions


class BaselinePolicy:
    """A baseline's preferred / non-preferred prediction as a scoring policy
    (+1/-1). ``fit`` builds the training arrays once. The first score asked
    for a case predicts all four of its held-out films with one call; ``fit``
    drops the kept predictions. A film outside those four gets a call of
    its own."""

    def __init__(
        self, name: str, predict: Callable[[TrainingArrays, Mapping[str, float], list[str]], dict[str, bool]]
    ):
        self.name = name
        self._predict = predict
        self._arrays: TrainingArrays | None = None
        self._case: EvalCase | None = None
        self._predictions: dict[str, bool] = {}

    def fit(self, train: ViewMatrix) -> None:
        self._arrays = TrainingArrays(train)
        self._case = None
        self._predictions = {}

    def score_film(self, case: EvalCase, film: str) -> float:
        assert self._arrays is not None, "fit() first"
        if case is not self._case:
            self._case = case
            held = [*case.held_preferred, *case.held_non_preferred]
            self._predictions = self._predict(self._arrays, case.context, held)
        if film not in self._predictions:
            self._predictions[film] = self._predict(self._arrays, case.context, [film])[film]
        return 1.0 if self._predictions[film] else -1.0


def KnnPolicy(k: int = 5) -> BaselinePolicy:  # noqa: N802 (a policy constructor)
    """The k-nearest-neighbor baseline as a policy named ``knn{k}``;
    ``k < 1`` is a ``DomainError`` here, before anything is fitted."""
    if k < 1:
        raise DomainError(f"k must be at least 1, got {k}")
    return BaselinePolicy(f"knn{k}", lambda arrays, context, films: knn_predict(arrays, context, films, k))


def NaiveBayesPolicy() -> BaselinePolicy:  # noqa: N802 (a policy constructor)
    """The Naive Bayes baseline as a policy named ``naive_bayes``."""
    return BaselinePolicy("naive_bayes", naive_bayes_predict)


# ---------------------------------------------------------------------------
# Synthetic data


@dataclass(frozen=True)
class SyntheticSpec:
    """Block-structured stand-in for a real viewing log: films are split
    into planted clusters, every user gets a home cluster, and viewing
    percentages are drawn high inside the home cluster and low outside."""

    film_count: int = 80
    user_count: int = 328
    planted_cluster_count: int = 4
    in_cluster_pct: tuple[float, float] = (0.7, 1.0)
    out_cluster_pct: tuple[float, float] = (0.0, 0.3)
    watch_probability: float = 0.65
    seed: int = 7

    def __post_init__(self):
        if self.film_count < 1 or self.user_count < 1 or self.planted_cluster_count < 1:
            raise DomainError("film, user, and cluster counts must be positive")
        if self.planted_cluster_count > self.film_count:
            raise DomainError("more planted clusters than films")
        for lo, hi in (self.in_cluster_pct, self.out_cluster_pct):
            if not (0.0 <= lo <= hi <= 1.0):
                raise DomainError(f"percentage range outside [0, 1]: ({lo}, {hi})")
        if not 0.0 <= self.watch_probability <= 1.0:
            raise DomainError(f"watch_probability outside [0, 1]: {self.watch_probability}")

    def film_ids(self) -> list[str]:
        return [str(i + 1) for i in range(self.film_count)]

    def user_ids(self) -> list[str]:
        return [str(5000 + i + 1) for i in range(self.user_count)]


def planted_film_clusters(spec: SyntheticSpec) -> dict[str, int]:
    """The ground-truth film clusters (contiguous, balanced blocks)."""
    return {
        film: i * spec.planted_cluster_count // spec.film_count
        for i, film in enumerate(spec.film_ids())
    }


def generate_synthetic(spec: SyntheticSpec) -> ViewMatrix:
    """Draw a seeded block-structured view matrix from the given parameters."""
    rng = random.Random(spec.seed)
    films = spec.film_ids()
    users = spec.user_ids()
    film_cluster = planted_film_clusters(spec)
    home = {user: rng.randrange(spec.planted_cluster_count) for user in users}
    entries: dict[tuple[str, str], float] = {}
    for user in users:
        for film in films:
            if rng.random() >= spec.watch_probability:
                continue
            lo, hi = (
                spec.in_cluster_pct
                if film_cluster[film] == home[user]
                else spec.out_cluster_pct
            )
            entries[(film, user)] = rng.uniform(lo, hi)
    return ViewMatrix(entries, films=films, users=users)


def view_to_events(view: ViewMatrix, total_seconds: float = 3600.0) -> list[ViewingEvent]:
    """Expand a matrix back into one event per stored entry (for CSV dumps)."""
    events = []
    for film in view.films:
        views = view.film_views(film)
        for user in sorted(views, key=ident_sort_key):
            events.append(ViewingEvent(film, user, views[user] * total_seconds, total_seconds))
    return events


def comembership_f1(truth: Mapping[str, int], found: Mapping[str, int]) -> float:
    """Pairwise co-membership F1 between two clusterings of the same items."""
    items = sorted(set(truth) & set(found))
    tp = fp = fn = 0
    for i, a in enumerate(items):
        for b in items[i + 1 :]:
            same_truth = truth[a] == truth[b]
            same_found = found[a] == found[b]
            if same_truth and same_found:
                tp += 1
            elif same_found:
                fp += 1
            elif same_truth:
                fn += 1
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2.0 * precision * recall / (precision + recall)


def write_eval_summary_csv(reports: Iterable[EvalReport], stream: TextIO) -> None:
    writer = csv.writer(stream)
    writer.writerow(["method", "sample_size", "train_fraction", "seed", "judgments", "accuracy"])
    for report in reports:
        split = report.split
        writer.writerow(
            [
                report.method,
                split.sample_size if split else "",
                split.train_fraction if split else "",
                split.seed if split else "",
                len(report.judgments),
                repr(report.accuracy),
            ]
        )
