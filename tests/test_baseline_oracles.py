"""The array kernels behind the kNN and Naive Bayes baselines against their
dict-loop oracles: equal predictions, and cosines equal bit for bit."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from filmrec import SyntheticSpec, ViewMatrix, generate_synthetic, split_users
from filmrec.evaluation import TrainingArrays, knn_predict, make_eval_case, naive_bayes_predict

# a few repeated values make tied cosines and equal labels likely
PCTS = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0))


def cosine_bits(arrays: TrainingArrays, context) -> list[str]:
    return [value.hex() for value in arrays.cosines(context).tolist()]


def oracle_cosine_bits(train: ViewMatrix, context) -> list[str]:
    return [oracles._cosine(context, train.user_views(user)).hex() for user in train.users]


@st.composite
def baseline_inputs(draw):
    numeric = draw(st.booleans())
    n_films = draw(st.integers(1, 8))
    n_users = draw(st.integers(1, 8))
    films = [str(i * 7 % 11 + 1) if numeric else f"film-{chr(97 + i)}" for i in range(n_films)]
    users = [str(100 - i) if numeric else f"u{chr(107 - i)}" for i in range(n_users)]
    entries = {}
    for user in users:
        for film in films:
            if draw(st.booleans()):
                entries[(film, user)] = draw(PCTS)
    if draw(st.booleans()) and n_users > 1:
        # a second user with the first one's views, so two cosines tie exactly
        entries = {key: pct for key, pct in entries.items() if key[1] != users[1]}
        for (film, user), pct in list(entries.items()):
            if user == users[0]:
                entries[(film, users[1])] = pct
    # the users' dicts take their order from the entries, shuffled against film order
    order = draw(st.permutations(list(entries)))
    train = ViewMatrix({key: entries[key] for key in order}, films=films, users=users)
    pool = films + ["unseen-1", "unseen-2"]
    context_films = draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool)))
    context = {film: draw(PCTS) for film in context_films}
    targets = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
    k = draw(st.integers(1, n_users + 2))
    return train, context, targets, k


@settings(max_examples=300, deadline=None)
@given(baseline_inputs())
def test_kernels_equal_dict_loop_oracles(inputs):
    train, context, targets, k = inputs
    arrays = TrainingArrays(train)
    assert cosine_bits(arrays, context) == oracle_cosine_bits(train, context)
    expected_knn = oracles.knn_baseline(train, context, targets, k)
    assert knn_predict(arrays, context, targets, k) == expected_knn
    expected_nb = oracles.naive_bayes_baseline(train, context, targets)
    assert naive_bayes_predict(arrays, context, targets) == expected_nb


def test_empty_context_gives_zero_cosines_and_oracle_predictions():
    train = ViewMatrix({("1", "a"): 0.9, ("2", "a"): 0.0, ("2", "b"): 0.7})
    arrays = TrainingArrays(train)
    assert cosine_bits(arrays, {}) == oracle_cosine_bits(train, {}) == [(0.0).hex()] * 2
    assert knn_predict(arrays, {}, ["1", "2"], 3) == oracles.knn_baseline(train, {}, ["1", "2"], 3)
    assert naive_bayes_predict(arrays, {}, ["1", "2"]) == oracles.naive_bayes_baseline(train, {}, ["1", "2"])


def test_builtin_sum_adds_left_to_right():
    # The oracles' dot products and norms use sum(); the kernel's row sums
    # reproduce them only while sum adds strictly in sequence, with no
    # compensation. Compensated summation would give 2.0 here.
    assert sum([1.0, 1e100, 1.0, -1e100]) == 0.0


def test_realistic_size_with_shuffled_insertion_order():
    view = generate_synthetic(SyntheticSpec(film_count=120, user_count=500, seed=11))
    entries = list(view.entries().items())
    random.Random(11).shuffle(entries)
    shuffled = ViewMatrix(dict(entries), films=view.films, users=view.users)
    train, test = split_users(shuffled, 300, 0.8, 11)
    arrays = TrainingArrays(train)
    cases = [case for user in test.users if (case := make_eval_case(user, test.user_views(user)))]
    assert len(cases) == 60 and len(train.users) == 240
    for i, case in enumerate(cases):
        held = [*case.held_preferred, *case.held_non_preferred]
        assert cosine_bits(arrays, case.context) == oracle_cosine_bits(train, case.context)
        for k in (1, 5, 20):
            assert knn_predict(arrays, case.context, held, k) == oracles.knn_baseline(train, case.context, held, k)
        if i % 4 == 0:
            films = held + list(case.context)[:2]
            assert naive_bayes_predict(arrays, case.context, films) == oracles.naive_bayes_baseline(
                train, case.context, films
            )
