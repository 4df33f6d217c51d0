import io
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from filmrec import DomainError, ViewMatrix, average_similarity, dual_similarity
from filmrec.similarity import (
    NOT_COMPARABLE,
    AveragingPolicy,
    comparable_counts,
    write_dual_similarity_csv,
)

from oracles import random_view_matrix, scalar_average_similarity, tensor_average_similarity


class TestDualSimilarity:
    def test_neither_watched(self):
        assert dual_similarity(None, None) == NOT_COMPARABLE

    def test_equal_positive_viewing(self):
        assert dual_similarity(0.5, 0.5) == 1.0

    def test_hand_value(self):
        assert dual_similarity(0.2, 0.8) == pytest.approx(0.4, rel=1e-12)

    def test_one_side_missing_means_dissimilar(self):
        assert dual_similarity(None, 0.82) == 0.0
        assert dual_similarity(0.82, None) == 0.0

    def test_both_zero_is_not_comparable(self):
        assert dual_similarity(0.0, 0.0) == NOT_COMPARABLE

    def test_one_zero_one_positive(self):
        assert dual_similarity(0.0, 0.5) == 0.0

    @pytest.mark.parametrize("bad", [-0.1, 1.5])
    def test_out_of_range(self, bad):
        with pytest.raises(DomainError):
            dual_similarity(bad, 0.5)

    @given(
        st.one_of(st.none(), st.floats(min_value=0, max_value=1)),
        st.one_of(st.none(), st.floats(min_value=0, max_value=1)),
    )
    def test_symmetry_and_range(self, a, b):
        ds = dual_similarity(a, b)
        assert ds == dual_similarity(b, a)
        assert ds == NOT_COMPARABLE or 0.0 <= ds <= 1.0

    @given(st.floats(min_value=1e-9, max_value=1))
    def test_identical_positive_viewing_is_one(self, x):
        assert dual_similarity(x, x) == 1.0

    @given(
        st.floats(min_value=1e-9, max_value=1),
        st.floats(min_value=1e-9, max_value=1),
    )
    def test_one_only_on_equality(self, a, b):
        ds = dual_similarity(a, b)
        assert (ds == 1.0) == (a == b)


def pair_view(per_user: list[tuple[float | None, float | None]]) -> ViewMatrix:
    """Two films, one user per listed (n_i, n_j) pair."""
    entries = {}
    for idx, (a, b) in enumerate(per_user):
        user = f"u{idx + 1}"
        if a is not None:
            entries[("1", user)] = a
        if b is not None:
            entries[("2", user)] = b
    users = [f"u{idx + 1}" for idx in range(len(per_user))]
    return ViewMatrix(entries, films=["1", "2"], users=users)


def realistic_view(rng: random.Random) -> ViewMatrix:
    """20-60 films x 30-200 users at a random density, with stored 0.0 and
    -0.0 percentages, full views, users who watched nothing (passed via
    ``users=``) and films nobody watched (passed via ``films=``)."""
    films = [str(i + 1) for i in range(rng.randint(20, 60))]
    users = [f"u{i + 1}" for i in range(rng.randint(30, 200))]
    unwatched_films = set(rng.sample(films, 2))
    silent_users = set(rng.sample(users, 3))
    density = rng.uniform(0.05, 0.8)
    entries = {}
    for film in films:
        for user in users:
            if film in unwatched_films or user in silent_users or rng.random() >= density:
                continue
            roll = rng.random()
            if roll < 0.1:
                entries[(film, user)] = 0.0
            elif roll < 0.12:
                entries[(film, user)] = -0.0
            elif roll < 0.2:
                entries[(film, user)] = 1.0
            else:
                entries[(film, user)] = rng.random()
    return ViewMatrix(entries, films=films, users=users)


class TestAverageSimilarity:
    # per-user DS values [NC, NC, 0.4, 0.6, 0.0]
    EXAMPLE = [(None, None), (0.0, 0.0), (0.2, 0.8), (0.3, 0.7), (0.5, None)]

    def test_comparable_count_denominator(self):
        sim = average_similarity(pair_view(self.EXAMPLE))
        assert sim.value("1", "2") == pytest.approx(1 / 3, abs=1e-9)

    def test_all_users_denominator(self):
        sim = average_similarity(pair_view(self.EXAMPLE), AveragingPolicy.ALL_USERS)
        assert sim.value("1", "2") == pytest.approx(0.2, abs=1e-9)

    def test_no_informative_users(self):
        sim = average_similarity(pair_view([(None, None), (0.0, 0.0)]))
        assert sim.value("1", "2") == 0.0

    def test_diagonal_one_for_watched_films(self):
        sim = average_similarity(pair_view(self.EXAMPLE))
        assert sim.value("1", "1") == 1.0
        assert sim.value("2", "2") == 1.0

    def test_unwatched_film_is_all_zero(self):
        view = ViewMatrix({("1", "u1"): 0.5}, films=["1", "2"], users=["u1"])
        sim = average_similarity(view)
        assert sim.value("2", "2") == 0.0
        assert sim.value("1", "2") == 0.0

    def test_symmetric_unit_diagonal_in_range(self):
        rng = random.Random(3)
        for _ in range(10):
            view = random_view_matrix(rng)
            sim = average_similarity(view)
            assert np.array_equal(sim.values, sim.values.T)
            assert np.all(sim.values >= 0.0) and np.all(sim.values <= 1.0)
            for i, film in enumerate(view.films):
                if view.film_views(film):
                    assert sim.values[i, i] == 1.0

    def test_matches_full_tensor_recomputation_exactly(self):
        rng = random.Random(11)
        for _ in range(25):
            view = random_view_matrix(rng)
            for policy in AveragingPolicy:
                sim = average_similarity(view, policy)
                expected = tensor_average_similarity(view, policy)
                for (fi, fj), value in expected.items():
                    assert sim.value(fi, fj) == value

    def test_bit_identical_to_scalar_loop_at_realistic_sizes(self):
        rng = random.Random(2308)
        views = [realistic_view(rng) for _ in range(6)]
        views.append(ViewMatrix({("1", "u1"): 0.4, ("1", "u2"): 0.0}, users=["u1", "u2", "u3"]))
        for view in views:
            for policy in AveragingPolicy:
                expected = scalar_average_similarity(view, policy)
                assert average_similarity(view, policy).values.tobytes() == expected.tobytes()

    def test_all_users_never_exceeds_comparable_count(self):
        rng = random.Random(5)
        for _ in range(20):
            view = random_view_matrix(rng)
            by_count = average_similarity(view, AveragingPolicy.COMPARABLE_COUNT)
            by_all = average_similarity(view, AveragingPolicy.ALL_USERS)
            off_diagonal = ~np.eye(len(view.films), dtype=bool)
            assert np.all(by_all.values[off_diagonal] <= by_count.values[off_diagonal] + 1e-15)


def zero_heavy_view(rng: random.Random, user_count: int) -> ViewMatrix:
    """12 films x ``user_count`` users, a third of the views at 0.0 or -0.0,
    plus one silent user passed via ``users=`` and one film nobody watched."""
    films = [str(i + 1) for i in range(12)]
    users = [f"u{i + 1}" for i in range(user_count)]
    entries = {}
    for film in films[:-1]:
        for user in users:
            roll = rng.random()
            if roll < 0.4:
                continue
            entries[(film, user)] = 0.0 if roll < 0.6 else -0.0 if roll < 0.7 else rng.random()
    return ViewMatrix(entries, films=films, users=[*users, "silent"])


@pytest.mark.parametrize("user_count", [1, 7, 8, 9, 63, 64, 65, 200])
def test_popcount_comparable_count_equals_per_pair_count(user_count):
    """Word-padding edges: the count equals, per pair, the users whose
    scalar dual similarity is not NOT_COMPARABLE."""
    view = zero_heavy_view(random.Random(user_count), user_count)
    rows, cols = np.triu_indices(len(view.films), 1)
    expected = [
        sum(
            dual_similarity(view.pct(view.films[i], user), view.pct(view.films[j], user)) != NOT_COMPARABLE
            for user in view.users
        )
        for i, j in zip(rows, cols)
    ]
    counts = comparable_counts(*view.dense)
    assert counts.dtype == np.int64
    assert counts.tolist() == expected


def test_dual_similarity_dump_uses_minus_one():
    view = pair_view([(None, None), (0.2, 0.8)])
    out = io.StringIO()
    write_dual_similarity_csv(view, out)
    lines = out.getvalue().strip().splitlines()
    assert lines[0] == "film_i,film_j,user,ds"
    assert lines[1] == "1,2,u1,-1.0"
    assert lines[2].startswith("1,2,u2,0.4")


def test_top_similar_ranks_by_value_then_id():
    view = ViewMatrix(
        {("1", "a"): 0.5, ("2", "a"): 0.5, ("3", "a"): 0.1},
        films=["1", "2", "3"],
    )
    sim = average_similarity(view)
    ranked = sim.top_similar("1", 2)
    assert [film for film, _ in ranked] == ["2", "3"]
