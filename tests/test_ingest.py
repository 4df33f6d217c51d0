import importlib
import io
import logging
import math
import random
from pathlib import Path

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filmrec import (
    DataError,
    FormatError,
    PipelineConfig,
    RowError,
    SyntheticSpec,
    ViewingEvent,
    ViewMatrix,
    build_view_matrix,
    parse_events,
)
from filmrec.ingest import CSV_COLUMNS, ident_sort_key, read_view_matrix
from filmrec.pipeline import load_view_matrix

HEADER = "film_id,user_id,watch_seconds,total_seconds\n"


def parse(text: str, **kwargs):
    return parse_events(io.StringIO(text), **kwargs)


def test_parse_real_rows():
    events = parse(HEADER + "1401,59635,2400,2458\n53,59243,1020,2472\n")
    assert events == [
        ViewingEvent("1401", "59635", 2400.0, 2458.0),
        ViewingEvent("53", "59243", 1020.0, 2472.0),
    ]


def test_parse_rejects_nonpositive_total():
    with pytest.raises(RowError, match="line 2"):
        parse(HEADER + "x,1,10,0\n")


def test_parse_rejects_non_numeric():
    with pytest.raises(RowError, match="non-numeric"):
        parse(HEADER + "1,2,abc,100\n")


def test_parse_missing_column_is_format_error():
    with pytest.raises(FormatError, match="total_seconds"):
        parse("film_id,user_id,watch_seconds\n1,2,3\n")


def test_parse_empty_stream():
    with pytest.raises(FormatError):
        parse("")


def test_parse_skip_bad_rows_keeps_good_ones(caplog):
    text = HEADER + "1,2,50,100\nx,1,10,0\n3,4,25,100\n"
    events = parse(text, skip_bad_rows=True)
    assert [e.film_id for e in events] == ["1", "3"]


@pytest.mark.parametrize("read", [parse, lambda text, **kw: read_view_matrix(io.StringIO(text), **kw)])
def test_skipped_rows_are_reported_once_per_read(caplog, read):
    text = HEADER + "1,2,50,100\n\n3,,10,100\n4,5,abc,100\n6,7,10,0\n8,9,25,100\n"
    with caplog.at_level(logging.DEBUG, logger="filmrec.ingest"):
        read(text, skip_bad_rows=True)
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert warnings == ["skipped 3 malformed rows; first at line 4: empty film_id or user_id"]
    assert sum(r.levelno == logging.DEBUG for r in caplog.records) == 3


def test_clean_read_logs_no_warning(caplog):
    read_view_matrix(io.StringIO(HEADER + "1,2,50,100\n"), skip_bad_rows=True)
    assert not caplog.records


NON_FINITE = ["nan", "inf", "-inf", "1e400"]


@pytest.mark.parametrize("column", ["watch_seconds", "total_seconds"])
@pytest.mark.parametrize("bad", NON_FINITE)
def test_parse_rejects_non_finite_durations(column, bad):
    watch, total = (bad, "100") if column == "watch_seconds" else ("50", bad)
    with pytest.raises(RowError, match=f"line 3: {column} must be finite"):
        parse(HEADER + f"1,2,50,100\n3,4,{watch},{total}\n")


@pytest.mark.parametrize("column", ["watch_seconds", "total_seconds"])
@pytest.mark.parametrize("bad", NON_FINITE)
def test_parse_skips_non_finite_durations(column, bad):
    watch, total = (bad, "100") if column == "watch_seconds" else ("50", bad)
    events = parse(HEADER + f"1,2,50,100\n3,4,{watch},{total}\n5,6,25,100\n", skip_bad_rows=True)
    assert [e.film_id for e in events] == ["1", "5"]


def test_parse_ignores_extra_columns():
    text = "film_id,user_id,watch_seconds,total_seconds,device\n1,2,50,100,tv\n"
    assert parse(text) == [ViewingEvent("1", "2", 50.0, 100.0)]


def test_event_validation():
    with pytest.raises(DataError):
        ViewingEvent("1", "2", 10.0, 0.0)
    with pytest.raises(DataError):
        ViewingEvent("1", "2", -1.0, 10.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DataError, match="finite"):
            ViewingEvent("1", "2", bad, 10.0)
        with pytest.raises(DataError, match="finite"):
            ViewingEvent("1", "2", 5.0, bad)


def test_percentage_is_exact_ratio():
    view = build_view_matrix([ViewingEvent("1401", "59635", 2400, 2458)])
    assert view.pct("1401", "59635") == 2400 / 2458
    assert view.pct("1401", "59635") == pytest.approx(0.98, abs=1e-2)


def test_zero_watch_time_is_stored_as_watched():
    view = build_view_matrix([ViewingEvent("f", "u", 0, 100)])
    assert view.pct("f", "u") == 0.0
    assert view.pct("f", "other") is None


def test_duplicate_events_keep_maximum():
    events = [ViewingEvent("f", "u", 30, 100), ViewingEvent("f", "u", 80, 100)]
    assert build_view_matrix(events).pct("f", "u") == 0.8
    assert build_view_matrix(events[::-1]).pct("f", "u") == 0.8


def test_clamp_versus_reject():
    replay = [ViewingEvent("f", "u", 150, 100)]
    assert build_view_matrix(replay, clamp=True).pct("f", "u") == 1.0
    with pytest.raises(DataError, match="film f, user u"):
        build_view_matrix(replay, clamp=False)


def test_empty_events_rejected():
    with pytest.raises(DataError):
        build_view_matrix([])


def test_orderings_are_numeric_aware():
    events = [
        ViewingEvent("10", "u2", 1, 2),
        ViewingEvent("9", "u10", 1, 2),
        ViewingEvent("100", "u1", 1, 2),
    ]
    view = build_view_matrix(events)
    assert view.films == ("9", "10", "100")
    assert view.users == ("u1", "u10", "u2")  # non-numeric ids sort lexicographically


def test_ident_sort_key_mixes_numeric_and_text():
    idents = ["b", "10", "2", "a"]
    assert sorted(idents, key=ident_sort_key) == ["2", "10", "a", "b"]


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["f1", "f2", "f3"]),
            st.sampled_from(["u1", "u2"]),
            st.floats(min_value=0, max_value=500, allow_nan=False),
        ),
        min_size=1,
        max_size=20,
    )
)
def test_matrix_invariants(raw):
    events = [ViewingEvent(f, u, watch, 500.0) for f, u, watch in raw]
    view = build_view_matrix(events)
    entries = view.entries()
    assert all(0.0 <= value <= 1.0 for value in entries.values())
    assert len(entries) <= len(events)
    # order independence of the fold
    rng = random.Random(0)
    shuffled = events[:]
    rng.shuffle(shuffled)
    assert build_view_matrix(shuffled) == view


def test_restrict_users_keeps_film_universe():
    events = [ViewingEvent("1", "a", 1, 2), ViewingEvent("2", "b", 1, 2)]
    view = build_view_matrix(events)
    sub = view.restrict_users(["a"])
    assert sub.films == view.films
    assert sub.users == ("a",)
    assert sub.pct("2", "b") is None


VIEW_FILMS = ["1", "2", "10", "a"]
VIEW_USERS = ["1", "7", "30", "b"]


@given(
    entries=st.dictionaries(
        st.tuples(st.sampled_from(VIEW_FILMS), st.sampled_from(VIEW_USERS)),
        st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0)),
        max_size=12,
    ),
    extra_films=st.sets(st.sampled_from(VIEW_FILMS)),
    extra_users=st.sets(st.sampled_from(VIEW_USERS)),
    keep=st.sets(st.sampled_from(VIEW_USERS)),
)
def test_view_matrix_reads_match_brute_force(entries, extra_films, extra_users, keep):
    """Every read equals a scan of the input map, stored 0.0 values and ids
    given only through films=/users= included, and a user restriction
    equals building the matrix from the kept users' entries."""
    view = ViewMatrix(entries, films=extra_films, users=extra_users)
    films = extra_films | {film for film, _ in entries}
    users = extra_users | {user for _, user in entries}
    assert view.films == tuple(sorted(films, key=ident_sort_key))
    assert view.users == tuple(sorted(users, key=ident_sort_key))
    for film in VIEW_FILMS:
        assert view.film_views(film) == {u: v for (f, u), v in entries.items() if f == film}
        for user in VIEW_USERS:
            assert view.pct(film, user) == entries.get((film, user))
    for user in VIEW_USERS:
        assert view.user_views(user) == {f: v for (f, u), v in entries.items() if u == user}
    assert view.entries() == entries
    assert view.entry_count() == len(entries)

    sub = view.restrict_users(keep)
    kept = {(film, user): value for (film, user), value in entries.items() if user in keep}
    assert sub == ViewMatrix(kept, films=view.films, users=keep)
    assert sub.entries() == kept


def test_view_matrix_keeps_one_object_per_film_id():
    """Equal film ids that arrive as distinct string objects are stored as
    one object, so dict lookups across users match by identity."""
    entries = {("".join(["1", "0"]), user): 0.5 for user in ("a", "b", "c")}
    view = ViewMatrix(entries, films=["".join(["1", "0"])])
    (film,) = view.films
    for sub in (view, view.restrict_users(["a", "c"])):
        for user in sub.users:
            assert all(key is film for key in sub.user_views(user))


def assert_dense_matches_reads(view: ViewMatrix) -> None:
    """Every cell of the cached arrays equals ``view.pct`` bit for bit (0.0
    and unwatched where pct is None), with the matrix's user and film order."""
    pct, watched = view.dense
    assert pct.shape == watched.shape == (len(view.users), len(view.films))
    assert pct.dtype == np.float64 and watched.dtype == bool
    for u, user in enumerate(view.users):
        for f, film in enumerate(view.films):
            value = view.pct(film, user)
            assert watched[u, f] == (value is not None)
            assert pct[u, f].hex() == (0.0 if value is None else value).hex()


def test_dense_arrays_match_every_cell():
    """Stored 0.0 and -0.0 keep their sign; silent users (given through
    users=) and unwatched films (through films=) are all-zero rows and
    columns, both in a built and in a read matrix."""
    entries = {("1", "a"): 0.0, ("1", "b"): -0.0, ("2", "a"): 0.25, ("10", "c"): 1.0, ("2", "c"): 0.5}
    view = ViewMatrix(entries, films=["7"], users=["silent"])
    assert_dense_matches_reads(view)
    pct, watched = view.dense
    assert np.signbit(pct[view.users.index("b"), view.films.index("1")])
    assert not pct[view.users.index("silent")].any() and not watched[view.users.index("silent")].any()
    assert not watched[:, view.films.index("7")].any()

    rng = random.Random(17)
    for _ in range(5):
        assert_dense_matches_reads(oracles.random_view_matrix(rng, max_films=12, max_users=15))
    text = HEADER + "2,u1,5,10\n1,u2,0,10\n2,u1,7,10\n10,u2,10,10\n"
    assert_dense_matches_reads(read_view_matrix(io.StringIO(text)))


def test_dense_arrays_are_read_only_and_built_once():
    view = ViewMatrix({("1", "a"): 0.5, ("2", "b"): 0.0}, users=["c"])
    dense = view.dense
    assert view.dense is dense
    for array in dense:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0, 0] = 1

    sub = view.restrict_users(["b", "c"])
    assert sub.dense is not dense
    assert sub.dense.pct.shape == (2, 2)
    assert_dense_matches_reads(sub)
    assert view.dense is dense


def reference_read(text: str, *, clamp: bool = True, skip_bad_rows: bool = False) -> ViewMatrix:
    """The ``csv.DictReader`` parser and the (film, user)-keyed fold that the
    single-pass reader replaced."""
    return oracles.build_view_matrix(oracles.parse_events(io.StringIO(text), skip_bad_rows=skip_bad_rows), clamp)


def outcome(read, text: str, **kwargs):
    """The matrix with its user and per-user film order, or the error."""
    try:
        view = read(text, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the type and message are compared
        return type(exc), str(exc)
    films = {film: film for film in view.films}
    for user in view.users:
        assert all(films[film] is film for film in view.user_views(user))
    return view, list(view.entries().items())


def single_pass(text: str, **kwargs) -> ViewMatrix:
    return read_view_matrix(io.StringIO(text), **kwargs)


# valid cells repeated, so that most rows are valid
ID_CELLS = ["1", "2", "10", " 3 ", "a"] * 4 + ["", "  "]
BAD_DURATIONS = ["-0", "-1", "nan", "inf", "-inf", "1e400", "abc", ""]
DURATION_CELLS = ["0", "50", "100", "150", " 30 ", "2e-320"] * 4 + BAD_DURATIONS
CELLS = dict(film_id=ID_CELLS, user_id=ID_CELLS, watch_seconds=DURATION_CELLS, total_seconds=DURATION_CELLS)
EXTRA_COLUMNS = ["device", *CSV_COLUMNS, ""]


@st.composite
def csv_texts(draw):
    """Mostly a full header (with repeated or extra columns) and rows with a
    cell of the column's kind; sometimes a broken header or a row that is
    blank, short, long or of random cells."""
    if draw(st.integers(0, 9)) < 8:
        extra = draw(st.lists(st.sampled_from(EXTRA_COLUMNS), max_size=2))
        header = draw(st.permutations([*CSV_COLUMNS, *extra]))
    else:
        header = draw(st.lists(st.sampled_from(EXTRA_COLUMNS), max_size=5))
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 12))):
        row = [draw(st.sampled_from(CELLS.get(name, ["x", ""]))) for name in header]
        shape = draw(st.sampled_from(["fit"] * 6 + ["blank", "short", "long", "random"]))
        if shape == "blank":
            row = []
        elif shape == "short":
            row = row[: draw(st.integers(1, max(len(row) - 1, 1)))]
        elif shape == "long":
            row += draw(st.lists(st.sampled_from(ID_CELLS), min_size=1, max_size=2))
        elif shape == "random":
            row = draw(st.lists(st.sampled_from(ID_CELLS + DURATION_CELLS), max_size=6))
        lines.append(",".join(row))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    return ending.join(lines) + draw(st.sampled_from(["", ending]))


@settings(max_examples=400, deadline=None)
@given(text=st.one_of(st.just(""), csv_texts()), clamp=st.booleans(), skip_bad_rows=st.booleans())
def test_single_pass_read_equals_dictreader_oracle(text, clamp, skip_bad_rows):
    """Blank lines, short and long rows, repeated or extra header columns,
    blank ids, non-finite and negative durations and replays: the single
    pass gives the oracle's matrix in the same order, or its error."""
    kwargs = dict(clamp=clamp, skip_bad_rows=skip_bad_rows)
    assert outcome(single_pass, text, **kwargs) == outcome(reference_read, text, **kwargs)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "\n" + HEADER + "1,2,50,100\n",
        HEADER,
        HEADER + "\n\n1,2,50,100\n\n",
        HEADER + "1,2\n",
        HEADER + "1,2,50\n",
        "film_id,user_id,watch_seconds,total_seconds,film_id\n1,2,50,100,7\n",
        "film_id,user_id,watch_seconds,total_seconds,film_id\n1,2,50,100\n",
        HEADER + "1,2,50,100,extra,cells\n",
        HEADER + "1,2,150,100\n3,4,200,100\n",
        HEADER + "1,2,150,100\n3,4,x,100\n",
    ],
)
@pytest.mark.parametrize("clamp", [True, False])
def test_dictreader_edge_cases(text, clamp):
    assert outcome(single_pass, text, clamp=clamp) == outcome(reference_read, text, clamp=clamp)


def test_replay_rejection_waits_for_the_whole_file():
    """With clamp=False the first replay is named, but a malformed later
    row is reported first, as when parsing came before folding."""
    replays = HEADER + "1,2,150,100\n3,4,200,100\n"
    with pytest.raises(DataError, match="film 1, user 2: 150.0s of 100.0s"):
        single_pass(replays, clamp=False)
    with pytest.raises(RowError, match="line 4: non-numeric"):
        single_pass(replays + "5,6,x,100\n", clamp=False)


def test_single_pass_read_equals_oracle_on_a_benchmark_sized_file(tmp_path, monkeypatch):
    """120 films x 500 users with re-watch rows, written by the build
    benchmark's own input generator."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    inputs = importlib.import_module("inputs")
    path = tmp_path / "events.csv"
    expected = inputs.write_events(path, SyntheticSpec(film_count=120, user_count=500, seed=1))
    text = path.read_text(encoding="utf-8")
    view, order = outcome(single_pass, text)
    assert (view, order) == outcome(reference_read, text)
    assert view == expected
    assert build_view_matrix(parse(text)) == view


def test_byte_order_marked_file_folds_to_the_plain_file_matrix(tmp_path):
    text = HEADER + "1,u1,30,60\n2,u1,60,60\n1,u2,5,60\n"
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(text, encoding="utf-8")
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert load_view_matrix(marked, PipelineConfig()) == load_view_matrix(plain, PipelineConfig())
