import csv
import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import filmrec
from filmrec import EgoGraphPolicy, PipelineArtifact, PipelineConfig
from filmrec.cli import _config_from_args, build_parser, main
from filmrec.similarity import AveragingPolicy


@pytest.fixture()
def events_file(tmp_path):
    path = tmp_path / "events.csv"
    code = main(
        ["synth", "-o", str(path), "--films", "12", "--users", "24", "--clusters", "2", "--seed", "5"]
    )
    assert code == 0
    return path


def read_csv(path):
    with open(path, newline="") as stream:
        return list(csv.reader(stream))


def test_synth_writes_parseable_events(events_file):
    rows = read_csv(events_file)
    assert rows[0] == ["film_id", "user_id", "watch_seconds", "total_seconds"]
    assert len(rows) > 10


def test_ingest_dump(events_file, tmp_path):
    out = tmp_path / "view.csv"
    assert main(["ingest", str(events_file), "-o", str(out)]) == 0
    rows = read_csv(out)
    assert rows[0] == ["film_id", "user_id", "pct"]
    assert all(0.0 <= float(r[2]) <= 1.0 for r in rows[1:])


def test_similarity_dump_is_square(events_file, tmp_path):
    out = tmp_path / "sim.csv"
    assert main(["similarity", str(events_file), "-o", str(out)]) == 0
    rows = read_csv(out)
    films = rows[0][1:]
    assert len(rows) == len(films) + 1
    for row in rows[1:]:
        assert len(row) == len(films) + 1


def test_similarity_ds_dump_long_form(events_file, tmp_path):
    out = tmp_path / "sim.csv"
    ds = tmp_path / "ds.csv"
    assert main(["similarity", str(events_file), "-o", str(out), "--ds-dump", str(ds)]) == 0
    rows = read_csv(ds)
    assert rows[0] == ["film_i", "film_j", "user", "ds"]
    values = {row[3] for row in rows[1:]}
    assert "-1.0" in values  # sentinel convention


def test_stage_dumps(events_file, tmp_path):
    for command, header in [
        ("graph", ["film_i", "film_j", "weight"]),
        ("centrality", ["film_id", "degree_centrality", "closeness_centrality",
                        "betweenness_centrality", "average_centrality"]),
        ("cluster", ["film_id", "cluster_id"]),
        ("profiles", ["user_id", "film_id", "label"]),
    ]:
        out = tmp_path / f"{command}.csv"
        assert main([command, str(events_file), "-o", str(out)]) == 0
        assert read_csv(out)[0] == header


def test_run_and_recommend(events_file, tmp_path, capsys):
    artifact_path = tmp_path / "artifact.json"
    assert main(["run", str(events_file), "-o", str(artifact_path)]) == 0
    assert artifact_path.exists()
    payload = json.loads(artifact_path.read_text())
    assert payload["format_version"] == 1

    user = next(iter(payload["profiles"]))
    out = tmp_path / "recs.csv"
    assert main(["recommend", str(artifact_path), "--user", user, "-k", "3", "-o", str(out)]) == 0
    rows = read_csv(out)
    assert rows[0] == ["user_id", "rank", "film_id", "rs_ef"]
    assert [row[1] for row in rows[1:]] == [str(i + 1) for i in range(len(rows) - 1)]


def test_run_determinism(events_file, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["run", str(events_file), "-o", str(a)]) == 0
    assert main(["run", str(events_file), "-o", str(b)]) == 0
    pa, pb = json.loads(a.read_text()), json.loads(b.read_text())
    pa.pop("created_at"), pb.pop("created_at")
    assert pa == pb


def test_evaluate_command(events_file, tmp_path):
    report_path = tmp_path / "report.json"
    summary_path = tmp_path / "summary.csv"
    code = main(
        [
            "evaluate", str(events_file),
            "--sample-size", "20", "--train-fraction", "0.7",
            "--methods", "ego_graph,random",
            "-o", str(report_path), "--summary", str(summary_path),
        ]
    )
    assert code == 0
    reports = json.loads(report_path.read_text())
    assert [r["method"] for r in reports] == ["ego_graph", "random"]
    assert all(0.0 <= r["accuracy"] <= 1.0 for r in reports)
    rows = read_csv(summary_path)
    assert rows[0] == ["method", "sample_size", "train_fraction", "seed", "judgments", "accuracy"]


def test_config_file_and_overrides(events_file, tmp_path):
    conf = tmp_path / "pipeline.conf"
    conf.write_text("edge_threshold = 0.9\n")
    out = tmp_path / "edges.csv"
    assert main(["graph", str(events_file), "--config", str(conf), "-o", str(out)]) == 0
    high_threshold_edges = len(read_csv(out)) - 1
    assert main(["graph", str(events_file), "--config", str(conf),
                 "--edge-threshold", "0.0", "-o", str(out)]) == 0
    assert len(read_csv(out)) - 1 > high_threshold_edges


def test_every_config_field_has_a_flag_that_beats_the_file(tmp_path):
    conf = tmp_path / "pipeline.conf"
    conf.write_text("edge_threshold = 0.9\nseed = 3\nclamp = true\nexclude_non_preferred = false\n")
    flags = [
        "--edge-threshold", "0.2", "--averaging-policy", "all_users", "--preference-threshold", "0.6",
        "--seed", "4", "--no-clamp", "--exclude-non-preferred",
    ]  # fmt: skip
    args = build_parser().parse_args(["graph", "events.csv", "--config", str(conf), *flags])
    assert _config_from_args(args) == PipelineConfig(
        edge_threshold=0.2,
        averaging_policy=AveragingPolicy.ALL_USERS,
        preference_threshold=0.6,
        seed=4,
        clamp=False,
        exclude_non_preferred=True,
    )
    args = build_parser().parse_args(["graph", "events.csv", "--config", str(conf)])
    assert _config_from_args(args) == PipelineConfig(edge_threshold=0.9, seed=3)


@pytest.mark.parametrize("command", ["ingest", "similarity", "evaluate"])
@pytest.mark.parametrize("threshold", ["1.5", "0"])
def test_out_of_range_threshold_exits_two_before_writing(events_file, tmp_path, capsys, command, threshold):
    out = tmp_path / "out"
    assert main([command, str(events_file), "--preference-threshold", threshold, "-o", str(out)]) == 2
    assert "preference_threshold outside (0, 1)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command", ["ingest", "similarity", "graph", "centrality", "cluster", "profiles", "run", "evaluate"]
)
def test_every_events_command_skips_a_bad_row_on_request(events_file, tmp_path, capsys, command):
    """One malformed row exits 2 with its line number; with --skip-bad-rows
    the command writes what it writes for the file without that row."""
    bad = tmp_path / "bad.csv"
    text = events_file.read_text()
    bad.write_text(text + "1,u1,not-a-number,100\n")
    bad_line = len(text.splitlines()) + 1
    extra = ["--sample-size", "20"] if command == "evaluate" else []
    assert main([command, str(bad), "-o", str(tmp_path / "refused"), *extra]) == 2
    assert f"line {bad_line}: non-numeric durations" in capsys.readouterr().err

    def written(path, *flags):
        out = tmp_path / f"{path.stem}.out"
        assert main([command, str(path), "-o", str(out), *extra, *flags]) == 0
        if command == "run":
            return PipelineArtifact.load(out).payload_without_timestamp()
        return out.read_text()

    assert written(bad, "--skip-bad-rows") == written(events_file)


def test_usage_error_exits_one(capsys):
    assert main(["no-such-command"]) == 1
    assert main([]) == 1


def test_missing_file_exits_two(tmp_path, capsys):
    assert main(["ingest", str(tmp_path / "absent.csv")]) == 2


def test_bad_data_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("film_id,user_id\n1,2\n")
    assert main(["ingest", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


@pytest.mark.parametrize("document", ["[]", '{"format_version": 1, "config": []}'])
def test_malformed_artifact_exits_two(tmp_path, capsys, document):
    artifact_path = tmp_path / "artifact.json"
    artifact_path.write_text(document)
    assert main(["recommend", str(artifact_path), "--user", "u1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_eval_method_exits_two(events_file, capsys):
    assert main(["evaluate", str(events_file), "--methods", "astrology"]) == 2


def test_negative_sample_size_exits_two(events_file, capsys):
    assert main(["evaluate", str(events_file), "--sample-size", "-1"]) == 2
    assert "sample_size" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0


def test_knn_k_below_one_exits_two_before_any_fitting(events_file, tmp_path, capsys, monkeypatch):
    fits = []
    monkeypatch.setattr(EgoGraphPolicy, "fit", lambda self, train: fits.append(train))
    report_path = tmp_path / "report.json"
    # a one-user test side leaves no eligible test user, where a knn0 report used to be written
    for sample in ("24", "2"):
        code = main(
            ["evaluate", str(events_file), "--sample-size", sample, "--train-fraction", "0.5",
             "--knn-k", "0", "-o", str(report_path)]
        )  # fmt: skip
        assert code == 2
        assert "k must be at least 1" in capsys.readouterr().err
    assert fits == [] and not report_path.exists()


def run_cli(*args: str) -> subprocess.Popen:
    src = str(Path(filmrec.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.Popen(
        [sys.executable, "-m", "filmrec", *args], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )


@pytest.fixture()
def thin_events_file(tmp_path):
    """Every user watched two films, so every test user is skipped with a warning."""
    path = tmp_path / "thin.csv"
    rows = [f"{film},{user},{900 + user},1000" for user in range(1, 9) for film in (1, 2)]
    path.write_text("film_id,user_id,watch_seconds,total_seconds\n" + "\n".join(rows) + "\n")
    return path


@pytest.mark.parametrize("level, shown", [([], True), (["--log-level", "error"], False)])
def test_warnings_are_formatted_at_the_chosen_level(thin_events_file, tmp_path, level, shown):
    proc = run_cli(
        *level, "evaluate", str(thin_events_file), "--sample-size", "8", "--train-fraction", "0.5",
        "--methods", "random", "-o", str(tmp_path / "report.json"),
    )  # fmt: skip
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 0
    skipped = [line for line in err.splitlines() if "skipping test user" in line]
    expected = r"WARNING filmrec\.evaluation: skipping test user \d: fewer than 4 watched films"
    assert len(skipped) == (4 if shown else 0)
    assert all(re.fullmatch(expected, line) for line in skipped)


def test_info_level_routes_the_server_start_message(events_file, tmp_path):
    artifact_path = tmp_path / "artifact.json"
    assert main(["run", str(events_file), "-o", str(artifact_path)]) == 0
    proc = run_cli("--log-level", "INFO", "serve", str(artifact_path), "--bind", "127.0.0.1:0")
    watchdog = threading.Timer(30, proc.kill)
    watchdog.start()
    try:
        line = proc.stderr.readline()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.communicate()
    assert line.strip() == "INFO filmrec.server: serving on 127.0.0.1:0"


def test_unknown_log_level_is_a_usage_error(capsys):
    assert main(["--log-level", "LOUD", "synth"]) == 1
    assert "--log-level" in capsys.readouterr().err
