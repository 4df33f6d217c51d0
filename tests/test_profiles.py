import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filmrec import DomainError, ViewMatrix, build_profiles
from filmrec.profiles import write_profiles_csv
from oracles import dict_sorted_profiles


def view_of(user_views: dict[str, dict[str, float]]) -> ViewMatrix:
    entries = {
        (film, user): pct
        for user, views in user_views.items()
        for film, pct in views.items()
    }
    return ViewMatrix(entries)


def test_high_percentage_is_preferred():
    profiles = build_profiles(view_of({"59635": {"1401": 2400 / 2458}}))
    assert "1401" in profiles["59635"].preferred


def test_low_percentage_is_non_preferred():
    profiles = build_profiles(view_of({"44530": {"6352": 0.22}}))
    assert "6352" in profiles["44530"].non_preferred


def test_exactly_half_is_non_preferred():
    profiles = build_profiles(view_of({"u": {"f": 0.5}}))
    assert profiles["u"].preferred == ()
    assert profiles["u"].non_preferred == ("f",)


def test_zero_percentage_counts_as_watched():
    profiles = build_profiles(view_of({"u": {"f": 0.0}}))
    assert profiles["u"].non_preferred == ("f",)


def test_ordering_rules():
    profiles = build_profiles(
        view_of({"u": {"1": 0.9, "2": 0.7, "3": 0.9, "4": 0.1, "5": 0.3, "6": 0.1}})
    )
    # preferred: descending pct, ties by film id
    assert profiles["u"].preferred == ("1", "3", "2")
    # non-preferred: ascending pct, ties by film id
    assert profiles["u"].non_preferred == ("4", "6", "5")


def test_unwatched_films_appear_nowhere():
    view = ViewMatrix({("f", "u"): 0.9}, films=["f", "g"])
    profiles = build_profiles(view)
    assert profiles["u"].watched() == {"f"}


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.5])
def test_threshold_domain(bad):
    with pytest.raises(DomainError):
        build_profiles(view_of({"u": {"f": 0.5}}), threshold=bad)


@given(
    st.dictionaries(
        st.sampled_from([f"f{i}" for i in range(8)]),
        st.floats(min_value=0, max_value=1),
        min_size=1,
    ),
    st.floats(min_value=0.05, max_value=0.95),
)
def test_partition_property(views, threshold):
    profiles = build_profiles(view_of({"u": views}), threshold)
    profile = profiles["u"]
    preferred, non_preferred = set(profile.preferred), set(profile.non_preferred)
    assert preferred | non_preferred == set(views)
    assert preferred & non_preferred == set()


@given(
    st.dictionaries(
        st.sampled_from([f"f{i}" for i in range(8)]),
        st.floats(min_value=0, max_value=1),
        min_size=1,
    ),
    st.floats(min_value=0.05, max_value=0.45),
    st.floats(min_value=0.46, max_value=0.95),
)
def test_raising_threshold_never_grows_preferred(views, low, high):
    matrix = view_of({"u": views})
    low_preferred = set(build_profiles(matrix, low)["u"].preferred)
    high_preferred = set(build_profiles(matrix, high)["u"].preferred)
    assert high_preferred <= low_preferred


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.sampled_from([str(i) for i in range(1, 13)]), st.sampled_from(["u1", "u2", "u10", "u3"])),
        st.one_of(st.sampled_from([0.0, -0.0, 0.25, 0.5, 0.75, 1.0]), st.floats(min_value=0, max_value=1)),
    ),
    st.sampled_from([0.25, 0.5, 0.75]),
)
def test_equals_dict_sort_oracle_with_ties_and_signed_zeros(entries, threshold):
    """Equal profiles in the same user order, where percentages tie (0.0
    with -0.0 too) and film ids sort differently as text and as numbers."""
    view = ViewMatrix(entries, films=["1", "2", "10"], users=["u0"])
    profiles = build_profiles(view, threshold)
    expected = dict_sorted_profiles(view, threshold)
    assert profiles == expected
    assert list(profiles) == list(expected)


def test_csv_export():
    out = io.StringIO()
    write_profiles_csv(build_profiles(view_of({"u": {"1": 0.9, "2": 0.2}})), out)
    lines = out.getvalue().strip().splitlines()
    assert lines == ["user_id,film_id,label", "u,1,preferred", "u,2,non_preferred"]
