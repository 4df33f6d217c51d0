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
a symmetric random scorer whose expected accuracy is one third. Each
baseline scores all the eligible test users of a split in one batch, with
the same bits as one user at a time.
"""

from __future__ import annotations

import csv
import logging
import math
import random
from collections import Counter
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Callable, Iterable, Mapping, Protocol, Sequence, TextIO

import numpy as np

from .community import louvain
from .config import PipelineConfig
from .errors import DomainError
from .graph import CentralityTable, FilmGraph, build_graph
from .ingest import ViewMatrix, ViewingEvent, ident_sort_key
from .pipeline import _warn_if_complete_or_edgeless, _warn_if_constant_centrality
from .ranking import column_sums, score_candidates
from .similarity import _pack_users, average_similarity

logger = logging.getLogger(__name__)

PREFERRED = "preferred"
NON_PREFERRED = "non_preferred"
EVENT_TOTAL_SECONDS = 3600.0


# ---------------------------------------------------------------------------
# Splitting and judging


@dataclass(frozen=True)
class SplitSpec:
    """A user split: how many users to sample, the share that trains, and
    the sampling seed. Construction refuses a split that could never work,
    whatever the data."""

    sample_size: int
    train_fraction: float
    seed: int

    def __post_init__(self):
        if self.sample_size < 1:
            raise DomainError(f"sample_size must be at least 1, got {self.sample_size}")
        if not 0.0 < self.train_fraction < 1.0:
            raise DomainError(f"train_fraction must be in (0, 1), got {self.train_fraction}")
        if self.train_count() in (0, self.sample_size):
            raise DomainError(f"train_fraction {self.train_fraction} leaves an empty split side")

    def train_count(self) -> int:
        return int(round(self.sample_size * self.train_fraction))


def split_users(
    view: ViewMatrix, sample_size: int, train_fraction: float, seed: int
) -> tuple[ViewMatrix, ViewMatrix]:
    """Sample users without replacement and partition them by user.

    Films are shared across both sides; only the user pools differ. The same
    seed always produces the same split.
    """
    spec = SplitSpec(sample_size, train_fraction, seed)
    if sample_size > len(view.users):
        raise DomainError(f"sample_size {sample_size} exceeds user count {len(view.users)}")
    sample = random.Random(seed).sample(list(view.users), sample_size)
    n_train = spec.train_count()
    return view.restrict_users(sample[:n_train]), view.restrict_users(sample[n_train:])


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
    watched films (the observable context a policy may use), in film order."""

    user_id: str
    held_preferred: tuple[str, str]
    held_non_preferred: tuple[str, str]
    context: dict[str, float]


def make_eval_case(user_id: str, views: Mapping[str, float]) -> EvalCase | None:
    """Build the held-out case, or None when the user watched fewer than
    four films. The context keeps the order of ``views``, which is film
    order when they come from ``ViewMatrix.user_views``."""
    if len(views) < 4:
        return None
    # Only films at or beyond the second-highest and second-lowest pct can
    # be held out, so only those are sorted by (-pct, film id).
    pcts = sorted(views.values())
    low, high = pcts[1], pcts[-2]

    def rank(film: str) -> tuple:
        return -views[film], ident_sort_key(film)

    top = sorted([film for film, pct in views.items() if pct >= high], key=rank)
    bottom = sorted([film for film, pct in views.items() if pct <= low], key=rank)
    held_preferred = (top[0], top[1])
    held_non_preferred = (bottom[-1], bottom[-2])
    context = dict(views)
    for film in (*held_preferred, *held_non_preferred):
        del context[film]
    return EvalCase(user_id, held_preferred, held_non_preferred, context)


def eval_cases(test: ViewMatrix) -> dict[str, EvalCase | None]:
    """``make_eval_case`` of every user of ``test``, by user."""
    return {user: make_eval_case(user, test.user_views(user)) for user in test.users}


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
            "split": None if self.split is None else asdict(self.split),
            "accuracy": self.accuracy,
            "judgment_histogram": {str(k): v for k, v in self.histogram().items()},
            "skipped_users": list(self.skipped_users),
            "judgments": [asdict(judgment) for judgment in self.judgments],
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
    are skipped (with a warning on every call) and listed in the report.

    The cases come from ``test.derived(eval_cases)``, so every policy
    evaluated on one test matrix judges the same case objects, built once.
    A ``CaseBatchPolicy`` is handed every eligible case once, after the fit,
    and scores them all in one batch; the judging then reads its kept
    scores through ``score_film``, in the same order as for any policy."""
    policy.fit(train)
    cases = test.derived(eval_cases)
    if isinstance(policy, CaseBatchPolicy):
        policy.keep_scores([case for case in cases.values() if case is not None])
    judgments: list[CaseJudgment] = []
    skipped: list[str] = []
    for user in test.users:
        case = cases[user]
        if case is None:
            logger.warning("skipping test user %s: fewer than 4 watched films", user)
            skipped.append(user)
            continue
        for label, films in ((PREFERRED, case.held_preferred), (NON_PREFERRED, case.held_non_preferred)):
            for film in films:
                rs = policy.score_film(case, film)
                judgments.append(CaseJudgment(user, film, label, rs, judge(rs, label)))
    correct = sum(1 for j in judgments if j.score == 1)
    accuracy = correct / len(judgments) if judgments else 0.0
    return EvalReport(policy.name, split, tuple(judgments), tuple(skipped), accuracy)


# ---------------------------------------------------------------------------
# Policies


class CaseBatchPolicy:
    """A policy that scores the held-out films of a whole split in one
    batch. A subclass fits in ``_fit(train)`` and scores in
    ``_score_cases(cases, films)``, which takes one list of films per case
    and gives back one list of scores per case. After ``fit``,
    ``evaluate_method`` hands ``keep_scores`` the split's eligible cases
    once: one ``_score_cases`` call scores the four held-out films of every
    case, and ``score_film`` then reads the kept scores. A case not handed
    over has its four scored on its first ``score_film``, kept in place of
    the others; a film outside those four gets a call of its own. ``fit``
    drops the kept scores."""

    name: str

    def fit(self, train: ViewMatrix) -> None:
        self._kept: dict[int, tuple[EvalCase, dict[str, float]]] = {}
        self._fit(train)

    def keep_scores(self, cases: list[EvalCase]) -> None:
        held = [[*case.held_preferred, *case.held_non_preferred] for case in cases]
        scores = self._score_cases(cases, held)
        # Keyed by id, each beside its case: a kept case stays alive, so no
        # other case can take its id while the scores are kept.
        self._kept = {id(case): (case, dict(zip(films, row))) for case, films, row in zip(cases, held, scores)}

    def score_film(self, case: EvalCase, film: str) -> float:
        if id(case) not in self._kept:
            self.keep_scores([case])
        scores = self._kept[id(case)][1]
        if film not in scores:
            scores[film] = self._score_cases([case], [[film]])[0][0]
        return scores[film]


class EgoGraphPolicy(CaseBatchPolicy):
    """The full similarity-graph pipeline: fit builds the similarity matrix,
    thresholded graph, centrality table, and clustering from training users.
    Scoring goes case by case: it splits a case's context films by the
    preference threshold, each side in film-id order, and scores the case's
    films with one call of the ``score_candidates`` that serving uses.

    The keyword arguments are ``PipelineConfig`` fields; fit reads the
    averaging policy and edge threshold, scoring the preference threshold.
    """

    def __init__(self, **config):
        self.name = "ego_graph"
        self.config = PipelineConfig(**config)
        self.graph: FilmGraph | None = None
        self.centrality: CentralityTable | None = None
        self.similarity = None
        self.clustering = None

    def _fit(self, train: ViewMatrix) -> None:
        # not run_stages: perfbench's traced evaluate wraps these names on filmrec.evaluation
        self.similarity = average_similarity(train, self.config.averaging_policy)
        self.graph = build_graph(self.similarity, self.config.edge_threshold)
        _warn_if_complete_or_edgeless(self.graph, self.config.edge_threshold)
        self.centrality = CentralityTable.compute(self.graph)
        _warn_if_constant_centrality(self.graph, self.centrality, self.config.edge_threshold)
        self.clustering = louvain(self.graph)

    def _score_cases(self, cases: list[EvalCase], films: list[list[str]]) -> list[list[float]]:
        assert self.graph is not None and self.centrality is not None, "fit() first"
        threshold = self.config.preference_threshold
        scores = []
        for case, case_films in zip(cases, films):
            prefs = [film for film, pct in case.context.items() if pct > threshold]
            nonprefs = [film for film, pct in case.context.items() if pct <= threshold]
            scores.append(score_candidates(self.graph, self.centrality, case_films, prefs, nonprefs))
        return scores


class RandomScorePolicy:
    """Symmetric random scorer: -1, 0, or +1 with equal probability, so the
    expected sign-agreement accuracy is 1/3. ``fit`` re-seeds, so every
    evaluation with the policy draws the same scores."""

    def __init__(self, seed: int):
        self.name = "random"
        self._seed = seed

    def fit(self, train: ViewMatrix) -> None:
        self._rng = random.Random(self._seed)

    def score_film(self, case: EvalCase, film: str) -> float:
        return self._rng.choice((-1.0, 0.0, 1.0))


def _padded(rows: Sequence[Sequence], fill, width: int = 0) -> np.ndarray:
    """The rows as one array, each filled out with ``fill`` to the longest
    row's length plus ``width``."""
    out = np.full((len(rows), max(map(len, rows), default=0) + width), fill)
    for i, row in enumerate(rows):
        out[i, : len(row)] = row
    return out


class TrainingArrays:
    """The training matrix as arrays, from which both baselines predict all
    of a split's cases in one batch. A fit takes them from
    ``train.derived(TrainingArrays)``, so they are built once per training
    matrix and kept with it, whichever policies and how many evaluations
    use it.

    ``film_index`` maps a film to its row; one extra all-zero row stands for
    every film the matrix lacks. Columns follow ``train.users``. ``pct``
    (films x users, the matrix's ``dense`` array transposed) lays the terms
    of each user's sums down axis 0, so ``column_sums`` adds them in film
    order; ``seen`` marks the watched cells, and ``lengths`` counts each
    user's films. Naive Bayes reads every count from the film x film
    ``class_tables``.
    """

    def __init__(self, train: ViewMatrix):
        self.film_index = {film: i for i, film in enumerate(train.films)}
        self.absent = len(self.film_index)
        pct, watched = train.dense
        self.pct = np.vstack([pct.T, np.zeros((1, len(train.users)))])
        self.seen = np.vstack([watched.T, np.zeros((1, len(train.users)), dtype=bool)])
        self.lengths = watched.sum(axis=1)
        self.norms = np.sqrt(column_sums(self.pct * self.pct))

    @cached_property
    def class_tables(self) -> np.ndarray:
        """Naive Bayes's counts, built on first use, so that a run without
        Naive Bayes does not pay for them. Cell [side, class, feature, film]
        counts the users in the film's class, liked (pct > 0.5) or not, who
        watched the feature (side 0) or liked it (side 1): popcounts of the
        AND of the two films' users packed into 64-bit words, summed word by
        word. The users in a film's class are cell [0, class, film, film]."""
        seen = self.seen.T
        liked = seen & (self.pct.T > 0.5)
        seen_words, liked_words, disliked_words = map(_pack_users, (seen, liked, seen & ~liked))
        # axes: side, class, feature, film, word
        sides = np.stack([seen_words, liked_words])[:, None, :, None]
        classes = np.stack([liked_words, disliked_words])[None, :, None]
        tables = np.zeros((2, 2, len(self.pct), len(self.pct)), np.intp)
        for word in range(seen_words.shape[1]):
            tables += np.bitwise_count(sides[..., word] & classes[..., word])
        return tables

    def columns(self, films: Iterable[str]) -> list[int]:
        return [self.film_index.get(film, self.absent) for film in films]

    def cosines(self, context: Mapping[str, float]) -> np.ndarray:
        """Every training user's cosine with ``context``: one row of
        ``cosines_batch``."""
        return self.cosines_batch([context])[0]

    def cosines_batch(self, contexts: Sequence[Mapping[str, float]]) -> np.ndarray:
        """Every training user's cosine with each context (absent = 0), one
        row per context, each bit-identical to a dict loop that sums the
        smaller dict's products in its insertion order, a user's dict being
        in film order. The dot products are added one context position at a
        time, in context order, and for the users with fewer films than the
        context, in film order: the context's films sorted by row. Terms of
        films a user did not watch are +0.0, which change no partial sum but
        a -0.0 one, and that comes only before a zero dot, which gives a 0.0
        cosine either way. Each context and each user is added alone, so
        which others are in the batch changes no bit."""
        # one padding column at least, so that an empty context has a term to sum
        cols = _padded([self.columns(context) for context in contexts], self.absent, width=1)
        vals = _padded([list(context.values()) for context in contexts], 0.0, width=1)
        by_context = self._dots(cols, vals)
        order = np.argsort(cols, axis=1, kind="stable")
        film_cols = np.take_along_axis(cols, order, axis=1)
        if np.array_equal(film_cols, cols):
            by_film = by_context
        else:
            by_film = self._dots(film_cols, np.take_along_axis(vals, order, axis=1))
        sizes = np.array([len(context) for context in contexts])
        dot = np.where(self.lengths < sizes[:, None], by_film, by_context)
        norm = np.sqrt(column_sums((vals * vals).T))[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            cosine = dot / (norm * self.norms)
        return np.where((dot == 0.0) | (norm == 0.0) | (self.norms == 0.0), 0.0, cosine)

    def _dots(self, cols: np.ndarray, vals: np.ndarray) -> np.ndarray:
        """Row i: the sum over positions p, in order, of ``vals[i, p]``
        times every user's pct of film row ``cols[i, p]``."""
        dot = np.zeros((len(cols), self.pct.shape[1]))
        for col, val in zip(cols.T, vals.T[:, :, None]):
            dot += self.pct[col] * val
        return dot


def knn_predict(
    arrays: TrainingArrays, user_views: Mapping[str, float], films: Iterable[str], k: int
) -> dict[str, bool]:
    """Predict preference per film from the k training users most similar to
    the given viewing vector: one case of ``knn_predict_batch``."""
    return knn_predict_batch(arrays, [user_views], [list(films)], k)[0]


def knn_predict_batch(
    arrays: TrainingArrays, contexts: Sequence[Mapping[str, float]], films: Sequence[list[str]], k: int
) -> list[dict[str, bool]]:
    """Predict preference for each context's list of films from the k
    training users most similar to it (cosine, absent = 0): preferred when
    those neighbors' similarity-weighted mean percentage on the film exceeds
    0.5; films none of them watched come back non-preferred. Cosine ties go
    to the lower user id: the sort is stable, and the training users are in
    ``ident_sort_key`` order. Both sums run down the neighbours in rank
    order with ``column_sums``; a neighbour who did not watch the film, or
    whose similarity is not positive, adds 0.0."""
    cosines = arrays.cosines_batch(contexts)
    rows = np.argsort(-cosines, axis=1, kind="stable")[:, None, :k]
    near = np.take_along_axis(cosines, rows[:, 0], axis=1)[:, None, :]
    targets = _padded([arrays.columns(case_films) for case_films in films], arrays.absent)[:, :, None]
    weights = np.where(arrays.seen[targets, rows] & (near > 0.0), near, 0.0)
    weighted = weights * arrays.pct[targets, rows]
    # one row per neighbour rank, one column per (case, film)
    weight_total, weighted_pct = (column_sums(terms.reshape(-1, terms.shape[2]).T) for terms in (weights, weighted))
    with np.errstate(divide="ignore", invalid="ignore"):
        preferred = (weight_total > 0.0) & (weighted_pct / weight_total > 0.5)
    preferred = preferred.reshape(targets.shape[:2]).tolist()
    return [dict(zip(case_films, row)) for case_films, row in zip(films, preferred)]


_log_odds = np.zeros((0, 0))


def log_odds_table(size: int) -> np.ndarray:
    """A table of at least size x size whose cell [m, s] is
    ``math.log((m + 1) / (s + 2))``: the log of the add-one smoothed rate
    of m matches in s trials. One table serves the process, and it is rebuilt
    larger when a larger one is asked for. Each cell comes from
    ``math.log``, as ``np.log`` differs from it in the last bit on some
    inputs."""
    global _log_odds
    if len(_log_odds) < size:
        n = max(size, 2 * len(_log_odds))
        cells = (math.log((m + 1) / (s + 2)) for m in range(n) for s in range(n))
        _log_odds = np.fromiter(cells, dtype=np.float64, count=n * n).reshape(n, n)
    return _log_odds


def naive_bayes_predict(
    arrays: TrainingArrays, user_views: Mapping[str, float], films: Iterable[str]
) -> dict[str, bool]:
    """Per-film Bernoulli Naive Bayes for one viewing vector: one case of
    ``naive_bayes_predict_batch``."""
    return naive_bayes_predict_batch(arrays, [user_views], [list(films)])[0]


def naive_bayes_predict_batch(
    arrays: TrainingArrays, contexts: Sequence[Mapping[str, float]], films: Sequence[list[str]]
) -> list[dict[str, bool]]:
    """Per-film Bernoulli Naive Bayes over binarized labels (pct > 0.5) with
    add-one smoothing, for each context's list of films. Features are the
    context's other watched films' binary labels, in ``ident_sort_key``
    order; exact posterior ties resolve to non-preferred.

    Every count is a cell of the arrays' class tables, the match count of a
    not-liked feature being its seen count less its liked count. The log
    terms are read from ``log_odds_table`` and added in feature order with
    ``column_sums``. The film's own feature, and the padding after a
    context's last feature, add 0.0, which changes no partial sum, as each
    is negative."""
    features = [sorted(context, key=ident_sort_key) for context in contexts]
    # axes: feature, class (liked, not liked), case, film
    feature_cols = _padded([arrays.columns(names) for names in features], arrays.absent).T[:, None, :, None]
    labels = _padded([list(map(context.__getitem__, names)) for context, names in zip(contexts, features)], 0.0)
    targets = _padded([arrays.columns(case_films) for case_films in films], arrays.absent)
    seen_in_class, liked_in_class = arrays.class_tables
    classes = np.arange(2)[:, None, None]
    seen = seen_in_class[classes, feature_cols, targets]
    liked = liked_in_class[classes, feature_cols, targets]
    match = np.where((labels > 0.5).T[:, None, :, None], liked, seen - liked)
    in_class = seen_in_class[classes, targets, targets]
    table = log_odds_table(arrays.pct.shape[1] + 1)
    terms = np.empty((1 + len(feature_cols), *in_class.shape))
    terms[0] = table[in_class, in_class.sum(axis=0)]
    terms[1:] = table[match, seen]
    for case, (context, names, case_films) in enumerate(zip(contexts, features, films)):
        terms[1 + len(names) :, :, case] = 0.0
        for col, film in enumerate(case_films):
            if film in context:
                terms[1 + names.index(film), :, case, col] = 0.0
    log_pref, log_non = column_sums(terms.reshape(len(terms), -1)).reshape(in_class.shape)
    preferred = (log_pref > log_non).tolist()
    return [dict(zip(case_films, row)) for case_films, row in zip(films, preferred)]


class BaselinePolicy(CaseBatchPolicy):
    """A baseline's preferred / non-preferred prediction as a scoring policy
    (+1/-1). ``fit`` takes the training matrix's ``TrainingArrays`` from
    ``train.derived``, built by the first baseline fitted on that matrix
    and shared by the rest, and the held-out films of all the cases handed
    over are predicted with one batch call."""

    def __init__(
        self,
        name: str,
        predict: Callable[
            [TrainingArrays, Sequence[Mapping[str, float]], Sequence[list[str]]], list[dict[str, bool]]
        ],
    ):
        self.name = name
        self._predict = predict
        self._arrays: TrainingArrays | None = None

    def _fit(self, train: ViewMatrix) -> None:
        self._arrays = train.derived(TrainingArrays)

    def _score_cases(self, cases: list[EvalCase], films: list[list[str]]) -> list[list[float]]:
        assert self._arrays is not None, "fit() first"
        predictions = self._predict(self._arrays, [case.context for case in cases], films)
        return [[1.0 if row[film] else -1.0 for film in case_films] for row, case_films in zip(predictions, films)]


def KnnPolicy(k: int = 5) -> BaselinePolicy:  # noqa: N802 (a policy constructor)
    """The k-nearest-neighbor baseline as a policy named ``knn{k}``;
    ``k < 1`` is a ``DomainError`` here, before anything is fitted."""
    if k < 1:
        raise DomainError(f"k must be at least 1, got {k}")
    return BaselinePolicy(f"knn{k}", lambda arrays, contexts, films: knn_predict_batch(arrays, contexts, films, k))


def NaiveBayesPolicy() -> BaselinePolicy:  # noqa: N802 (a policy constructor)
    """The Naive Bayes baseline as a policy named ``naive_bayes``."""
    return BaselinePolicy("naive_bayes", naive_bayes_predict_batch)


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


def view_to_events(view: ViewMatrix) -> list[ViewingEvent]:
    """Expand a matrix back into one event per stored entry (for CSV dumps),
    each over a film of ``EVENT_TOTAL_SECONDS``."""
    events = []
    for film in view.films:
        for user, pct in view.film_views(film).items():
            events.append(ViewingEvent(film, user, pct * EVENT_TOTAL_SECONDS, EVENT_TOTAL_SECONDS))
    return events


def comembership_f1(truth: Mapping[str, int], found: Mapping[str, int]) -> float:
    """Pairwise co-membership F1 between two clusterings of the same items,
    each side's same-cluster pairs counted as C(n, 2) per cluster."""
    items = set(truth) & set(found)

    def pairs(labels) -> int:
        return sum(n * (n - 1) // 2 for n in Counter(labels).values())

    tp = pairs((truth[item], found[item]) for item in items)
    if tp == 0:
        return 0.0
    precision = tp / pairs(found[item] for item in items)
    recall = tp / pairs(truth[item] for item in items)
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
