import gc
import json
import logging
import math
import random
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import filmrec.evaluation
from filmrec import (
    DomainError,
    EgoGraphPolicy,
    KnnPolicy,
    NaiveBayesPolicy,
    RandomScorePolicy,
    SplitSpec,
    SyntheticSpec,
    ViewMatrix,
    comembership_f1,
    evaluate_method,
    generate_synthetic,
    judge,
    planted_film_clusters,
    split_users,
)
from filmrec.evaluation import (
    NON_PREFERRED,
    PREFERRED,
    EvalCase,
    TrainingArrays,
    knn_predict,
    log_odds_table,
    make_eval_case,
    naive_bayes_predict,
    view_to_events,
)
from filmrec.ingest import ident_sort_key

import oracles
from oracles import monte_carlo_random_judge_accuracy, pairwise_comembership_f1, per_pair_ego_scores


def synthetic_view(**overrides) -> ViewMatrix:
    defaults = dict(film_count=20, user_count=60, planted_cluster_count=2, seed=3)
    return generate_synthetic(SyntheticSpec(**{**defaults, **overrides}))


class TestSplitUsers:
    def test_standard_scenario_sizes(self):
        view = synthetic_view(user_count=328)
        for sample, expected_train, expected_test in [(50, 35, 15), (100, 70, 30), (200, 140, 60)]:
            train, test = split_users(view, sample, 0.7, seed=0)
            assert len(train.users) == expected_train
            assert len(test.users) == expected_test

    def test_partition_is_disjoint_and_films_shared(self):
        view = synthetic_view()
        train, test = split_users(view, 30, 0.7, seed=1)
        assert not set(train.users) & set(test.users)
        assert train.films == test.films == view.films

    def test_same_seed_same_split(self):
        view = synthetic_view()
        assert split_users(view, 30, 0.7, 5) == split_users(view, 30, 0.7, 5)

    def test_different_seed_usually_differs(self):
        view = synthetic_view()
        first, _ = split_users(view, 30, 0.7, 1)
        second, _ = split_users(view, 30, 0.7, 2)
        assert first.users != second.users

    def test_sample_too_large(self):
        with pytest.raises(DomainError):
            split_users(synthetic_view(), 10_000, 0.7, 0)

    @pytest.mark.parametrize("sample_size", [0, -1])
    def test_sample_below_one(self, sample_size):
        with pytest.raises(DomainError, match="sample_size"):
            split_users(synthetic_view(), sample_size, 0.7, 0)

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.2])
    def test_bad_fraction(self, fraction):
        with pytest.raises(DomainError):
            split_users(synthetic_view(), 30, fraction, 0)


class TestJudge:
    @pytest.mark.parametrize(
        "rs,label,expected",
        [
            (0.1541, PREFERRED, 1),
            (0.1008, NON_PREFERRED, -1),
            (0.0, PREFERRED, 0),
            (0.0, NON_PREFERRED, 0),
            (-0.3, PREFERRED, -1),
            (-0.3, NON_PREFERRED, 1),
        ],
    )
    def test_cases(self, rs, label, expected):
        assert judge(rs, label) == expected

    def test_antisymmetry(self):
        rng = random.Random(79)
        for _ in range(200):
            rs = rng.uniform(-1, 1)
            assert judge(rs, PREFERRED) == -judge(-rs, PREFERRED)
            assert judge(rs, PREFERRED) == judge(-rs, NON_PREFERRED)

    def test_unknown_label(self):
        with pytest.raises(DomainError):
            judge(0.5, "meh")


class TestEvalCase:
    def test_extremes_and_context(self):
        views = {"a": 0.9, "b": 0.8, "c": 0.5, "d": 0.2, "e": 0.1}
        case = make_eval_case("u", views)
        assert case.held_preferred == ("a", "b")
        assert case.held_non_preferred == ("e", "d")
        assert case.context == {"c": 0.5}

    def test_four_films_is_enough(self):
        case = make_eval_case("u", {"a": 0.9, "b": 0.8, "c": 0.2, "d": 0.1})
        assert case is not None
        assert case.context == {}

    def test_fewer_than_four_is_skipped(self):
        assert make_eval_case("u", {"a": 0.9, "b": 0.8, "c": 0.2}) is None

    def test_ties_broken_by_film_id(self):
        views = {"2": 0.5, "1": 0.5, "3": 0.5, "4": 0.5}
        case = make_eval_case("u", views)
        assert case.held_preferred == ("1", "2")
        assert case.held_non_preferred == ("4", "3")
        assert len({*case.held_preferred, *case.held_non_preferred}) == 4


@st.composite
def held_out_views(draw):
    """A user's views with ties at both ends likely: stored 0.0 and -0.0,
    repeated values, numeric and text film ids, in drawn dict order."""
    ids = draw(st.lists(st.integers(0, 40), min_size=4, max_size=14, unique=True))
    films = [str(i) if draw(st.booleans()) else f"f{i}" for i in ids]
    pcts = st.one_of(st.sampled_from([0.0, -0.0, 0.25, 1.0]), st.floats(0.0, 1.0))
    return {film: draw(pcts) for film in films}


@settings(max_examples=300, deadline=None)
@given(held_out_views())
@example({"3": -0.0, "f1": 0.0, "2": 1.0, "f0": 1.0})
@example({"10": 0.5, "9": 0.5, "f2": 0.5, "1": 0.5, "f1": 0.5})
def test_held_out_films_equal_the_full_sort(views):
    ordered = sorted(views, key=lambda film: (-views[film], ident_sort_key(film)))
    case = make_eval_case("u", views)
    assert case.held_preferred == (ordered[0], ordered[1])
    assert case.held_non_preferred == (ordered[-1], ordered[-2])
    held = {*ordered[:2], *ordered[-2:]}
    context = [(film, pct.hex()) for film, pct in views.items() if film not in held]
    assert [(film, pct.hex()) for film, pct in case.context.items()] == context


class _OraclePolicy:
    """Scores +1/-1 by peeking at the held-out labels."""

    def __init__(self, invert: bool = False):
        self.name = "oracle"
        self.sign = -1.0 if invert else 1.0

    def fit(self, train):
        pass

    def score_film(self, case: EvalCase, film: str) -> float:
        return self.sign if film in case.held_preferred else -self.sign


class TestEvaluateMethod:
    def test_perfect_oracle_scores_one(self):
        view = synthetic_view()
        train, test = split_users(view, 40, 0.7, 0)
        report = evaluate_method(_OraclePolicy(), train, test)
        assert report.accuracy == 1.0
        assert report.histogram() == {1: len(report.judgments), 0: 0, -1: 0}

    def test_inverted_oracle_scores_zero(self):
        view = synthetic_view()
        train, test = split_users(view, 40, 0.7, 0)
        assert evaluate_method(_OraclePolicy(invert=True), train, test).accuracy == 0.0

    def test_random_policy_accuracy_near_one_third(self):
        oracle_estimate = monte_carlo_random_judge_accuracy(200_000, seed=1)
        assert oracle_estimate == pytest.approx(1 / 3, abs=0.01)
        view = synthetic_view(user_count=150)
        accuracies = []
        for seed in range(8):
            train, test = split_users(view, 120, 0.7, seed)
            report = evaluate_method(RandomScorePolicy(seed), train, test)
            accuracies.append(report.accuracy)
        mean = sum(accuracies) / len(accuracies)
        assert mean == pytest.approx(oracle_estimate, abs=0.06)

    def test_users_with_thin_history_are_skipped(self):
        entries = {("f1", "thin"): 0.9, ("f2", "thin"): 0.2}
        for i in range(6):
            for u in ("full1", "full2"):
                entries[(f"f{i + 1}", u)] = 0.9 if i < 3 else 0.1
        view = ViewMatrix(entries)
        test = view.restrict_users(["thin", "full1"])
        train = view.restrict_users(["full2"])
        report = evaluate_method(_OraclePolicy(), train, test)
        assert report.skipped_users == ("thin",)
        assert {j.user_id for j in report.judgments} == {"full1"}

    def test_four_judgments_per_test_user(self):
        view = synthetic_view()
        train, test = split_users(view, 40, 0.7, 0)
        report = evaluate_method(_OraclePolicy(), train, test)
        assert len(report.judgments) == 4 * (len(test.users) - len(report.skipped_users))

    def test_report_split_metadata_round_trips(self):
        view = synthetic_view()
        split = SplitSpec(40, 0.7, 9)
        train, test = split_users(view, 40, 0.7, 9)
        report = evaluate_method(_OraclePolicy(), train, test, split=split)
        payload = report.to_json_dict()
        assert payload["split"] == {"sample_size": 40, "train_fraction": 0.7, "seed": 9}
        assert payload["accuracy"] == 1.0

    def test_training_ignores_test_user_data(self):
        view = synthetic_view()
        train, test = split_users(view, 40, 0.7, 2)
        policy = EgoGraphPolicy()
        evaluate_method(policy, train, test)
        baseline = policy.similarity.values.copy()

        # perturb one test user's percentages and rerun the whole protocol
        perturbed_entries = view.entries()
        victim = test.users[0]
        for film in view.films:
            if (film, victim) in perturbed_entries:
                perturbed_entries[(film, victim)] = 1.0 - perturbed_entries[(film, victim)] * 0.5
        perturbed = ViewMatrix(perturbed_entries, films=view.films, users=view.users)
        train2, test2 = split_users(perturbed, 40, 0.7, 2)
        policy2 = EgoGraphPolicy()
        evaluate_method(policy2, train2, test2)
        assert np.array_equal(policy2.similarity.values, baseline)

    def test_ego_policy_beats_random_on_planted_structure(self):
        view = synthetic_view(user_count=120, film_count=30)
        train, test = split_users(view, 60, 0.7, 0)
        proposed = evaluate_method(EgoGraphPolicy(), train, test)
        rand = evaluate_method(RandomScorePolicy(0), train, test)
        assert proposed.accuracy > rand.accuracy

    def test_ego_policy_scores_once_per_eligible_test_user(self, monkeypatch):
        calls = []
        scorer = filmrec.evaluation.score_candidates

        def counted(*args, **kwargs):
            calls.append(args[2])
            return scorer(*args, **kwargs)

        monkeypatch.setattr(filmrec.evaluation, "score_candidates", counted)
        train, test = split_users(synthetic_view(), 40, 0.7, 0)
        report = evaluate_method(EgoGraphPolicy(), train, test)
        eligible = len(test.users) - len(report.skipped_users)
        assert eligible > 0 and len(calls) == eligible
        assert all(len(films) == 4 for films in calls)

    def test_ego_policy_scores_equal_the_per_pair_loop_per_film(self):
        train, test = split_users(synthetic_view(), 40, 0.7, 1)
        policy = EgoGraphPolicy()
        policy.fit(train)
        cases = [make_eval_case(user, test.user_views(user)) for user in test.users]
        # a user with exactly four watched films has an empty context
        cases.append(make_eval_case("thin", dict(zip(train.films[:4], (0.9, 0.8, 0.2, 0.1)))))
        for case in filter(None, cases):
            context = sorted(case.context, key=ident_sort_key)
            prefs = [film for film in context if case.context[film] > 0.5]
            nonprefs = [film for film in context if case.context[film] <= 0.5]
            # context films are outside the four held out
            for film in [*case.held_preferred, *case.held_non_preferred, *case.context]:
                (expected,) = per_pair_ego_scores(policy.graph, policy.centrality, [film], prefs, nonprefs)
                score = policy.score_film(case, film)
                assert type(score) is type(expected) and float(score).hex() == float(expected).hex()
        assert policy.score_film(cases[-1], cases[-1].held_preferred[0]) == 0

    def test_ego_policy_warns_about_an_edgeless_fit(self, caplog):
        train, test = split_users(synthetic_view(), 40, 0.7, 0)
        with caplog.at_level(logging.WARNING, logger="filmrec.pipeline"):
            report = evaluate_method(EgoGraphPolicy(edge_threshold=1.0), train, test)
        assert [r.getMessage() for r in caplog.records] == [
            "similarity graph is edgeless: 0 edges at edge_threshold 1.0"
        ]
        assert report.judgments and {j.score for j in report.judgments} == {0}

    @pytest.mark.parametrize("key, value", [("preference_threshold", 1.5), ("edge_threshold", -0.1)])
    def test_ego_policy_rejects_an_out_of_range_config_when_constructed(self, key, value):
        with pytest.raises(DomainError, match=key):
            EgoGraphPolicy(**{key: value})


class TestKnnBaseline:
    TRAIN = ViewMatrix(
        {
            ("f1", "a"): 0.9, ("f2", "a"): 0.8,
            ("f1", "b"): 0.2, ("f3", "b"): 0.3,
            ("f2", "c"): 0.4, ("f3", "c"): 0.6,
        }
    )

    def test_hand_instance(self):
        # cosine sims: a=0.747, b=0.555, c=0; weighted means f1=0.602, f2=0.8, f3=0.3
        pred = knn_predict(TrainingArrays(self.TRAIN), {"f1": 1.0}, ["f1", "f2", "f3"], k=2)
        assert pred == {"f1": True, "f2": True, "f3": False}

    def test_identical_training_user_dominates(self):
        pred = knn_predict(TrainingArrays(self.TRAIN), {"f1": 0.9, "f2": 0.8}, ["f1", "f2", "f3"], k=1)
        assert pred == {"f1": True, "f2": True, "f3": False}

    def test_uniformly_high_data_prefers_everything(self):
        train = ViewMatrix({(f, u): 0.9 for f in ("x", "y") for u in ("a", "b", "c")})
        pred = knn_predict(TrainingArrays(train), {"x": 0.9}, ["x", "y"], k=3)
        assert pred == {"x": True, "y": True}

    def test_unwatched_film_defaults_non_preferred(self):
        pred = knn_predict(TrainingArrays(self.TRAIN), {"f1": 1.0}, ["f9"], k=2)
        assert pred == {"f9": False}


class TestNaiveBayesBaseline:
    TRAIN = ViewMatrix(
        {
            ("f1", "a"): 0.9, ("f2", "a"): 0.9, ("f3", "a"): 0.1,
            ("f1", "b"): 0.8, ("f2", "b"): 0.7,
            ("f1", "c"): 0.2, ("f3", "c"): 0.9,
            ("f2", "d"): 0.3, ("f3", "d"): 0.8,
        }
    )

    def test_hand_instance(self):
        # log posteriors for f1: preferred -1.2040, non-preferred -2.7081
        pred = naive_bayes_predict(TrainingArrays(self.TRAIN), {"f2": 0.9, "f3": 0.2}, ["f1"])
        assert pred == {"f1": True}

    def test_film_preferred_by_all_watchers(self):
        train = ViewMatrix(
            {
                ("g", "a"): 0.9, ("g", "b"): 0.95, ("g", "c"): 0.8,
                ("h", "a"): 0.9, ("h", "b"): 0.9,
            }
        )
        assert naive_bayes_predict(TrainingArrays(train), {"h": 0.8}, ["g"]) == {"g": True}

    def test_no_training_data_ties_to_non_preferred(self):
        train = ViewMatrix({("other", "z"): 0.4})
        assert naive_bayes_predict(TrainingArrays(train), {"h": 0.8}, ["g"]) == {"g": False}

    def test_priors_follow_watcher_majority(self):
        train = ViewMatrix({("g", "a"): 0.1, ("g", "b"): 0.2, ("g", "c"): 0.3})
        assert naive_bayes_predict(TrainingArrays(train), {}, ["g"]) == {"g": False}


class TestBaselineKernels:
    @pytest.mark.parametrize("seed", range(12))
    def test_single_training_user_matches_the_oracles(self, seed):
        # With one training user every sum is a single column, which numpy
        # would add pairwise; at 12 or more terms that order differs from sum's.
        rng = random.Random(seed)
        films = [str(i) for i in range(1, 41)]
        watched = rng.sample(films, rng.randint(12, 30))
        train = ViewMatrix({(film, "u1"): rng.random() for film in watched}, films=films, users=["u1"])
        context = {film: rng.random() for film in rng.sample([*films, "unseen"], rng.randint(12, 30))}
        arrays = TrainingArrays(train)
        cosines = [value.hex() for value in arrays.cosines(context).tolist()]
        assert cosines == [oracles._cosine(context, train.user_views("u1")).hex()]
        targets = [*rng.sample(films, 3), "unseen", "never-seen", *list(context)[:3]]
        for k in (1, 2):
            assert knn_predict(arrays, context, targets, k) == oracles.knn_baseline(train, context, targets, k)
        assert naive_bayes_predict(arrays, context, targets) == oracles.naive_bayes_baseline(train, context, targets)

    def test_knn_ties_go_to_the_lower_user_id(self):
        # The odd users' cosines tie, ahead of the even users'. Each user
        # alone watched their own film, so the predictions name the k nearest.
        entries = {}
        for user in range(1, 41):
            for film in ("c", f"t{user}", *(() if user % 2 else ("x",))):
                entries[(film, str(user))] = 1.0
        train = ViewMatrix(entries)
        arrays = TrainingArrays(train)
        assert len(set(arrays.cosines({"c": 1.0}).tolist())) == 2
        targets = [f"t{user}" for user in range(1, 41)]
        for k in range(1, 41):
            expected = oracles.knn_baseline(train, {"c": 1.0}, targets, k)
            assert knn_predict(arrays, {"c": 1.0}, targets, k) == expected

    FILMS = [str(i) for i in range(1, 61)]

    @pytest.mark.parametrize(
        "lengths, context_size",
        [
            ([12, 20, 29, 3, 0], 30),
            ([30, 41, 55, 30, 60], 30),
            ([12, 40, 45, 30, 60], 30),
            ([12, 15, 29, 28, 45], 30),
            ([0, 12, 40], 0),
        ],
        ids=["every_user_shorter", "no_user_shorter", "one_user_shorter", "one_user_not_shorter", "empty_context"],
    )
    @pytest.mark.parametrize("seed", range(4))
    def test_cosines_sum_in_the_dict_loops_order(self, lengths, context_size, seed):
        # A user with fewer films than the context is summed in the user's
        # order, any other in the context's; one user on a side is a single
        # column, which column_sums adds through cumsum.
        rng = random.Random(seed)
        users = [f"u{i}" for i in range(1, len(lengths) + 1)]
        entries = {}
        for user, length in zip(users, lengths):
            for film in rng.sample(self.FILMS, length):
                entries[(film, user)] = rng.random()
        train = ViewMatrix(entries, films=self.FILMS, users=users)
        context = {film: rng.random() for film in rng.sample([*self.FILMS, "unseen"], context_size)}
        expected = [oracles._cosine(context, train.user_views(user)).hex() for user in users]
        assert [value.hex() for value in TrainingArrays(train).cosines(context).tolist()] == expected

    def test_log_odds_table_cells_equal_math_log_after_growing(self):
        first = len(log_odds_table(250))
        table = log_odds_table(first + 1)
        assert len(table) > first
        cells = [[math.log((m + 1) / (s + 2)).hex() for s in range(len(table))] for m in range(len(table))]
        assert [[value.hex() for value in row] for row in table.tolist()] == cells


def perfbench_policies(seed: int) -> list:
    """The four policies the ``evaluate`` benchmark evaluates, in its order."""
    return [EgoGraphPolicy(edge_threshold=0.35), KnnPolicy(5), NaiveBayesPolicy(), RandomScorePolicy(seed)]


def report_json(reports) -> str:
    return json.dumps([report.to_json_dict() for report in reports])


class TestSplitMemo:
    def test_arrays_and_cases_are_built_once_per_split(self, monkeypatch, caplog):
        built, cased = [], []
        init, make = TrainingArrays.__init__, filmrec.evaluation.make_eval_case

        def counted_init(self, train):
            built.append(train)
            init(self, train)

        def counted_make(user, views):
            cased.append(user)
            return make(user, views)

        monkeypatch.setattr(TrainingArrays, "__init__", counted_init)
        monkeypatch.setattr(filmrec.evaluation, "make_eval_case", counted_make)
        view = synthetic_view()
        train, test = split_users(view, 40, 0.7, 0)
        test = ViewMatrix({**test.entries(), ("1", "thin"): 0.5}, films=view.films)
        with caplog.at_level(logging.WARNING, logger="filmrec.evaluation"):
            reports = [evaluate_method(policy, train, test) for policy in perfbench_policies(0)]
        assert len(built) == 1 and built[0] is train
        assert cased == list(test.users)
        assert [r.getMessage() for r in caplog.records].count("skipping test user thin: fewer than 4 watched films") == 4
        for report in reports:
            assert report.skipped_users == ("thin",)
            assert len(report.judgments) == 4 * (len(test.users) - 1)

    def test_only_naive_bayes_builds_the_class_tables(self):
        train, test = split_users(synthetic_view(), 40, 0.7, 0)
        evaluate_method(KnnPolicy(5), train, test)
        arrays = train.derived(TrainingArrays)
        assert "class_tables" not in vars(arrays)
        evaluate_method(NaiveBayesPolicy(), train, test)
        tables = arrays.class_tables
        evaluate_method(NaiveBayesPolicy(), train, test)
        assert arrays.class_tables is tables

    def test_a_second_split_gets_its_own_arrays_and_cases(self):
        view = synthetic_view()
        policies = perfbench_policies(3)
        first = split_users(view, 40, 0.7, 0)
        for policy in policies:
            evaluate_method(policy, *first)
        first_arrays, first_cases = first[0].derived(TrainingArrays), first[1].derived(filmrec.evaluation.eval_cases)
        del first
        gc.collect()
        train, test = split_users(view, 40, 0.7, 5)
        reports = [evaluate_method(policy, train, test) for policy in policies]
        assert train.derived(TrainingArrays) is not first_arrays
        assert test.derived(filmrec.evaluation.eval_cases) is not first_cases
        fresh = [view.restrict_users(side.users) for side in (train, test)]
        assert report_json(reports) == report_json(evaluate_method(p, *fresh) for p in perfbench_policies(3))

    @pytest.mark.parametrize("index", range(4), ids=["ego_graph", "knn5", "naive_bayes", "random"])
    def test_a_policy_repeats_itself_on_one_split(self, index):
        view = generate_synthetic(SyntheticSpec(20, 60, seed=1))
        train, test = split_users(view, 40, 0.7, 1)
        policy = perfbench_policies(1)[index]
        first = evaluate_method(policy, train, test)
        assert report_json([evaluate_method(policy, train, test)]) == report_json([first])


class TestBaselinePolicy:
    @pytest.mark.parametrize(
        "kernel, make_policy",
        [("knn_predict_batch", lambda: KnnPolicy(5)), ("naive_bayes_predict_batch", NaiveBayesPolicy)],
        ids=["knn5", "naive_bayes"],
    )
    def test_one_batched_prediction_per_split_covers_every_eligible_user(self, monkeypatch, kernel, make_policy):
        calls = []
        predict = getattr(filmrec.evaluation, kernel)

        def counted(arrays, contexts, films, *args):
            calls.append((contexts, films))
            return predict(arrays, contexts, films, *args)

        monkeypatch.setattr(filmrec.evaluation, kernel, counted)
        view = synthetic_view()
        train, test = split_users(view, 40, 0.7, 0)
        test = ViewMatrix({**test.entries(), ("1", "thin"): 0.5}, films=view.films)
        report = evaluate_method(make_policy(), train, test)
        eligible = [case for case in test.derived(filmrec.evaluation.eval_cases).values() if case is not None]
        assert report.skipped_users == ("thin",) and len(eligible) == len(test.users) - 1
        ((contexts, films),) = calls
        assert all(context is case.context for context, case in zip(contexts, eligible, strict=True))
        assert films == [[*case.held_preferred, *case.held_non_preferred] for case in eligible]
        assert len(report.judgments) == 4 * len(eligible)

    @pytest.mark.parametrize(
        "policy, baseline",
        [
            (KnnPolicy(3), lambda arrays, context, films: knn_predict(arrays, context, films, 3)),
            (NaiveBayesPolicy(), naive_bayes_predict),
        ],
        ids=["knn3", "naive_bayes"],
    )
    def test_scores_match_one_baseline_call_per_film(self, policy, baseline):
        train, test = split_users(synthetic_view(), 40, 0.7, 1)
        policy.fit(train)
        arrays = TrainingArrays(train)
        for user in test.users:
            case = make_eval_case(user, test.user_views(user))
            if case is None:
                continue
            # context films are outside the four held out
            for film in [*case.held_preferred, *case.held_non_preferred, *case.context]:
                expected = 1.0 if baseline(arrays, case.context, [film])[film] else -1.0
                assert policy.score_film(case, film) == expected

    @pytest.mark.parametrize("k", [0, -3])
    def test_knn_policy_rejects_k_below_one_when_constructed(self, k):
        with pytest.raises(DomainError, match="k must be at least 1"):
            KnnPolicy(k)

    def test_kept_scores_hold_their_cases_until_the_next_fit(self):
        # The scores are keyed by id(case); a case kept alive beside them
        # leaves its id to no later case.
        train, test = split_users(synthetic_view(), 40, 0.7, 1)
        policy = KnnPolicy(3)
        policy.fit(train)
        case = next(filter(None, (make_eval_case(user, test.user_views(user)) for user in test.users)))
        policy.keep_scores([case])
        kept = weakref.ref(case)
        del case
        gc.collect()
        assert kept() is not None
        policy.fit(train)
        gc.collect()
        assert kept() is None

    def test_fit_drops_kept_predictions(self):
        liked = ViewMatrix({(f, u): 0.9 for f in ("x", "y", "z", "w", "v") for u in ("a", "b")})
        disliked = ViewMatrix({(f, u): 0.1 for f in ("x", "y", "z", "w", "v") for u in ("a", "b")})
        case = make_eval_case("t", {"x": 0.9, "y": 0.8, "z": 0.2, "w": 0.1, "v": 0.5})
        policy = KnnPolicy(2)
        policy.fit(liked)
        assert policy.score_film(case, "x") == 1.0
        policy.fit(disliked)
        assert policy.score_film(case, "x") == -1.0


class TestSynthetic:
    def test_deterministic(self):
        spec = SyntheticSpec(film_count=10, user_count=12, planted_cluster_count=2, seed=7)
        assert generate_synthetic(spec) == generate_synthetic(spec)

    def test_degenerate_ranges_give_block_constant_matrix(self):
        spec = SyntheticSpec(
            film_count=6,
            user_count=4,
            planted_cluster_count=2,
            in_cluster_pct=(1.0, 1.0),
            out_cluster_pct=(0.0, 0.0),
            watch_probability=1.0,
            seed=1,
        )
        view = generate_synthetic(spec)
        clusters = planted_film_clusters(spec)
        for user in view.users:
            views = view.user_views(user)
            assert len(views) == 6
            home = {clusters[f] for f, pct in views.items() if pct == 1.0}
            assert len(home) == 1
            assert all(pct in (0.0, 1.0) for pct in views.values())

    def test_validation(self):
        with pytest.raises(DomainError):
            SyntheticSpec(film_count=0)
        with pytest.raises(DomainError):
            SyntheticSpec(in_cluster_pct=(0.9, 0.2))
        with pytest.raises(DomainError):
            SyntheticSpec(watch_probability=1.5)

    def test_view_to_events_round_trip(self):
        from filmrec import build_view_matrix

        view = synthetic_view(film_count=8, user_count=6)
        rebuilt = build_view_matrix(view_to_events(view))
        for (film, user), pct in view.entries().items():
            assert rebuilt.pct(film, user) == pytest.approx(pct, abs=1e-12)


@st.composite
def clusterings(draw):
    """Truth and found maps over partly overlapping item sets, with few
    labels so that clusters share items; some draws make one side all
    singletons, or put each side's items in one cluster."""
    items = [f"i{k}" for k in range(draw(st.integers(0, 40)))]
    labels = st.integers(0, draw(st.integers(0, 6)))
    truth = {item: draw(labels) for item in items if draw(st.integers(0, 5))}
    found = {item: draw(labels) for item in items if draw(st.integers(0, 5))}
    shape = draw(st.sampled_from(["drawn", "drawn", "singletons", "one_cluster"]))
    if shape == "singletons":
        found = {item: k for k, item in enumerate(found)}
    elif shape == "one_cluster":
        truth, found = dict.fromkeys(truth, 3), dict.fromkeys(found, 7)
    return truth, found


class TestComembershipF1:
    def test_identical_clusterings(self):
        truth = {"a": 0, "b": 0, "c": 1}
        assert comembership_f1(truth, truth) == 1.0

    def test_label_permutation_is_irrelevant(self):
        truth = {"a": 0, "b": 0, "c": 1}
        relabeled = {"a": 5, "b": 5, "c": 2}
        assert comembership_f1(truth, relabeled) == 1.0

    def test_all_singletons_scores_zero(self):
        truth = {"a": 0, "b": 0, "c": 1}
        singletons = {"a": 0, "b": 1, "c": 2}
        assert comembership_f1(truth, singletons) == 0.0

    def test_partial_credit(self):
        truth = {"a": 0, "b": 0, "c": 0}
        found = {"a": 0, "b": 0, "c": 1}
        # tp=1, fn=2, fp=0 -> precision 1, recall 1/3
        assert comembership_f1(truth, found) == pytest.approx(0.5, abs=1e-12)

    @settings(max_examples=400, deadline=None)
    @given(clusterings())
    @example(({"a": 0, "b": 0, "c": 1, "x": 0}, {"a": 0, "b": 1, "c": 2, "y": 0}))  # all singletons: tp = 0
    @example(({"a": 1, "b": 1, "c": 1, "x": 2}, {"a": 4, "b": 4, "c": 4, "y": 4}))  # one shared cluster
    def test_counted_pairs_equal_the_pair_walk(self, maps):
        for truth, found in (maps, maps[::-1]):
            assert comembership_f1(truth, found).hex() == pairwise_comembership_f1(truth, found).hex()
