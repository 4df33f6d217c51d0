"""The split-wide batch kernels behind the kNN and Naive Bayes baselines,
one to five contexts per call, against the dict-loop oracles case by case:
each context's cosines equal bit for bit, and equal predictions."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from filmrec import ViewMatrix
from filmrec.evaluation import TrainingArrays, knn_predict_batch, naive_bayes_predict_batch

# a few repeated values make tied cosines and equal labels likely
PCTS = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0))
UNSEEN = ["unseen-1", "unseen-2"]

# Two users with the same views tie on every cosine; the contexts are out
# of film order, one holds unseen films, one is empty, and k exceeds the
# three training users.
PINNED = (
    ViewMatrix(
        {("2", "b"): 0.9, ("1", "b"): 0.2, ("1", "a"): 0.2, ("2", "a"): 0.9, ("3", "c"): 0.6, ("1", "c"): 0.7},
        films=["1", "2", "3"],
    ),
    [{"3": 0.4, "1": 0.8}, {}, {"unseen-2": 0.9, "2": 0.1, "unseen-1": 0.3, "1": 1.0}],
    [["2", "3", "1"], ["1", "2"], ["unseen-1", "3", "2", "unseen-2"]],
    7,
)


@st.composite
def batch_inputs(draw):
    numeric = draw(st.booleans())
    n_films = draw(st.integers(1, 8))
    n_users = draw(st.integers(1, 8))
    films = [str(i * 7 % 11 + 1) if numeric else f"film-{chr(97 + i)}" for i in range(n_films)]
    users = [str(100 - i) if numeric else f"u{chr(107 - i)}" for i in range(n_users)]
    entries = {(film, user): draw(PCTS) for user in users for film in films if draw(st.booleans())}
    if draw(st.booleans()) and n_users > 1:
        # the second user gets the first one's views, so two cosines tie exactly
        entries = {key: pct for key, pct in entries.items() if key[1] != users[1]}
        entries.update({(film, users[1]): pct for (film, user), pct in list(entries.items()) if user == users[0]})
    # the users' dicts take their order from the entries, shuffled against film order
    order = draw(st.permutations(list(entries)))
    train = ViewMatrix({key: entries[key] for key in order}, films=films, users=users)
    pool = films + UNSEEN
    n_cases = draw(st.integers(1, 5))
    contexts = [
        {film: draw(PCTS) for film in draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool)))}
        for _ in range(n_cases)
    ]
    targets = [draw(st.lists(st.sampled_from(pool), max_size=4)) for _ in range(n_cases)]
    k = draw(st.integers(1, n_users + 3))
    return train, contexts, targets, k


@settings(max_examples=300, deadline=None)
@given(batch_inputs())
@example(PINNED)
def test_batch_kernels_equal_the_dict_loop_oracles_case_by_case(inputs):
    train, contexts, targets, k = inputs
    arrays = TrainingArrays(train)
    cosines = arrays.cosines_batch(contexts)
    assert cosines.shape == (len(contexts), len(train.users))
    for row, context in zip(cosines.tolist(), contexts):
        assert [value.hex() for value in row] == [
            oracles._cosine(context, train.user_views(user)).hex() for user in train.users
        ]
    assert knn_predict_batch(arrays, contexts, targets, k) == [
        oracles.knn_baseline(train, context, films, k) for context, films in zip(contexts, targets)
    ]
    assert naive_bayes_predict_batch(arrays, contexts, targets) == [
        oracles.naive_bayes_baseline(train, context, films) for context, films in zip(contexts, targets)
    ]
