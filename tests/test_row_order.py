"""Results do not depend on the order of the rows in the events file."""

import io
import random

from filmrec import SyntheticSpec, generate_synthetic, split_users
from filmrec.evaluation import TrainingArrays, eval_cases, view_to_events
from filmrec.ingest import CSV_COLUMNS, read_view_matrix, write_view_matrix_csv


def test_shuffled_events_give_the_same_reads_and_bit_identical_knn_cosines():
    """A 120 x 500 events file and the same rows shuffled fold to matrices
    whose per-user and per-film reads come back as equal lists, and every
    eval case of a split gets the same cosines with every training user,
    bit for bit."""
    view = generate_synthetic(SyntheticSpec(film_count=120, user_count=500, seed=1))
    rows = [f"{e.film_id},{e.user_id},{e.watch_seconds!r},{e.total_seconds!r}\n" for e in view_to_events(view)]
    shuffled = rows[:]
    random.Random(3).shuffle(shuffled)
    header = ",".join(CSV_COLUMNS) + "\n"
    first, second = (read_view_matrix(io.StringIO(header + "".join(lines))) for lines in (rows, shuffled))
    assert first == second
    for user in first.users:
        assert list(second.user_views(user).items()) == list(first.user_views(user).items())
    for film in first.films:
        assert list(second.film_views(film).items()) == list(first.film_views(film).items())

    def cosine_bits(matrix):
        train, test = split_users(matrix, 300, 0.8, 2)
        arrays = TrainingArrays(train)
        return {
            user: [value.hex() for value in arrays.cosines(case.context).tolist()]
            for user, case in eval_cases(test).items()
            if case is not None
        }

    expected = cosine_bits(first)
    assert len(expected) == 60
    assert cosine_bits(second) == expected


def test_negative_zero_watch_time_dumps_the_same_in_either_row_order():
    """Rows of -0 s and 0 s for one cell compare equal either way, so only
    the dump's bytes can show which sign was stored."""
    header = ",".join(CSV_COLUMNS) + "\n"
    rows = ["1,u1,-0,100\n", "1,u1,0,100\n"]

    def dump(lines):
        out = io.StringIO()
        write_view_matrix_csv(read_view_matrix(io.StringIO(header + "".join(lines))), out)
        return out.getvalue()

    assert dump(rows) == dump(rows[::-1]) == "film_id,user_id,pct\r\n1,u1,0.0\r\n"
