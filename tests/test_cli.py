import csv
import io
import json
import os
import re
import shlex
import subprocess
import sys
import threading
import urllib.request
from pathlib import Path

import pytest

import filmrec
from filmrec import (
    CentralityTable,
    EgoGraphPolicy,
    PipelineArtifact,
    PipelineConfig,
    SyntheticSpec,
    build_graph,
    generate_synthetic,
    louvain,
    run_pipeline_from_view,
)
from filmrec.cli import _config_from_args, build_parser, main
from filmrec.community import write_clusters_csv
from filmrec.graph import write_centrality_csv, write_edges_csv
from filmrec.ingest import write_view_matrix_csv
from filmrec.pipeline import load_view_matrix
from filmrec.profiles import build_profiles, write_profiles_csv
from filmrec.similarity import (
    AveragingPolicy,
    average_similarity,
    write_dual_similarity_csv,
    write_similarity_csv,
)


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


def test_every_stage_dump_is_the_library_writers_bytes(events_file, tmp_path):
    """Each stage command at non-default thresholds writes exactly what the
    library's writer gives in process for the same config."""
    flags = ["--edge-threshold", "0.3", "--preference-threshold", "0.8", "--averaging-policy", "all_users"]
    config = PipelineConfig(
        edge_threshold=0.3, preference_threshold=0.8, averaging_policy=AveragingPolicy.ALL_USERS
    )
    view = load_view_matrix(events_file, config)
    sim = average_similarity(view, config.averaging_policy)
    graph = build_graph(sim, config.edge_threshold)
    assert 0 < graph.edge_count() < len(sim.films) * (len(sim.films) - 1) // 2
    profiles = build_profiles(view, config.preference_threshold)
    assert profiles != build_profiles(view)

    def rendered(writer, value) -> bytes:
        stream = io.StringIO()
        writer(value, stream)
        return stream.getvalue().encode("utf-8")

    expected = {
        "ingest": rendered(write_view_matrix_csv, view),
        "similarity": rendered(write_similarity_csv, sim),
        "graph": rendered(write_edges_csv, graph),
        "centrality": rendered(write_centrality_csv, CentralityTable.compute(graph)),
        "cluster": rendered(write_clusters_csv, louvain(graph)),
        "profiles": rendered(write_profiles_csv, profiles),
    }
    ds = tmp_path / "ds.csv"
    for command, content in expected.items():
        out = tmp_path / f"{command}.csv"
        extra = ["--ds-dump", str(ds)] if command == "similarity" else []
        assert main([command, str(events_file), "-o", str(out), *flags, *extra]) == 0
        assert out.read_bytes() == content, command
    assert ds.read_bytes() == rendered(write_dual_similarity_csv, view)


def rendered_bytes(writer, value) -> bytes:
    stream = io.StringIO()
    writer(value, stream)
    return stream.getvalue().encode("utf-8")


def test_each_stage_command_stops_at_its_own_stage(events_file, tmp_path, monkeypatch):
    """With the later stages patched to raise, each stage command still
    exits 0 and writes the library writer's bytes: it never starts them."""
    config = PipelineConfig(edge_threshold=0.3)
    graph = build_graph(average_similarity(load_view_matrix(events_file, config)), config.edge_threshold)
    assert 0 < graph.edge_count() < len(graph.nodes) * (len(graph.nodes) - 1) // 2

    def refused(*args, **kwargs):
        raise AssertionError("a later stage ran")

    def dumped(command: str) -> bytes:
        out = tmp_path / f"{command}.csv"
        assert main([command, str(events_file), "-o", str(out), "--edge-threshold", "0.3"]) == 0, command
        return out.read_bytes()

    monkeypatch.setattr(filmrec.pipeline, "build_profiles", refused)
    assert dumped("cluster") == rendered_bytes(write_clusters_csv, louvain(graph))
    monkeypatch.setattr(filmrec.pipeline, "louvain", refused)
    assert dumped("graph") == rendered_bytes(write_edges_csv, graph)
    assert dumped("centrality") == rendered_bytes(write_centrality_csv, CentralityTable.compute(graph))


def test_run_and_recommend(events_file, tmp_path, capsys):
    artifact_path = tmp_path / "artifact.json"
    assert main(["run", str(events_file), "-o", str(artifact_path)]) == 0
    assert artifact_path.exists()
    payload = json.loads(artifact_path.read_text())
    assert payload["format_version"] == 3

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


def test_byte_order_marked_events_and_config_files_are_read(events_file, tmp_path):
    bom_events = tmp_path / "bom.csv"
    bom_events.write_bytes(b"\xef\xbb\xbf" + events_file.read_bytes())
    conf = tmp_path / "bom.cfg"
    conf.write_bytes(b"\xef\xbb\xbfedge_threshold = 0.9\n")
    plain_out, bom_out = tmp_path / "plain_view.csv", tmp_path / "bom_view.csv"
    assert main(["ingest", "--config", str(conf), str(bom_events), "-o", str(bom_out)]) == 0
    assert main(["ingest", str(events_file), "-o", str(plain_out)]) == 0
    assert read_csv(bom_out) == read_csv(plain_out)


def readme_cli_lines() -> list[str]:
    """The ``filmrec …`` lines of the README's fenced CLI block, with
    continuation lines joined and optional-part brackets dropped."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```$", text, flags=re.M | re.S)
    block = next(block for block in blocks if block.startswith("filmrec "))
    joined = re.sub(r"\\\n\s*", "", block).replace("[", "").replace("]", "")
    return joined.splitlines()


def test_every_readme_cli_line_parses():
    lines = readme_cli_lines()
    assert {line.split()[1] for line in lines} >= {
        "synth", "ingest", "similarity", "graph", "centrality", "cluster", "profiles", "run", "recommend",
        "evaluate", "serve",
    }  # fmt: skip
    for line in lines:
        program, *argv = shlex.split(line)
        assert program == "filmrec"
        build_parser().parse_args(argv)


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


@pytest.mark.parametrize("document", ["[]", '{"format_version": 3, "config": []}'])
def test_malformed_artifact_exits_two(tmp_path, capsys, document):
    artifact_path = tmp_path / "artifact.json"
    artifact_path.write_text(document)
    assert main(["recommend", str(artifact_path), "--user", "u1"]) == 2
    assert "error:" in capsys.readouterr().err


def artifact_command_outcome(tmp_path, capsys, monkeypatch, command, document: bytes):
    """The exit code and stderr of ``recommend`` or ``serve`` on an artifact
    holding ``document``; serving it would fail the test."""
    artifact_path = tmp_path / "artifact.json"
    artifact_path.write_bytes(document)
    monkeypatch.delenv(filmrec.cli.BIND_ENV_VAR, raising=False)
    monkeypatch.setattr(filmrec.cli, "serve", lambda *args: pytest.fail("served an unreadable artifact"))
    extra = ["--user", "u1"] if command == "recommend" else []
    return main([command, str(artifact_path), *extra]), capsys.readouterr().err


@pytest.mark.parametrize("command", ["recommend", "serve"])
def test_undecodable_artifact_exits_two(tmp_path, capsys, monkeypatch, command):
    code, err = artifact_command_outcome(tmp_path, capsys, monkeypatch, command, b"\xff\xfe{}")
    assert code == 2
    assert err.startswith("error: artifact is not valid UTF-8 JSON:") and "Traceback" not in err


@pytest.mark.parametrize("command", ["recommend", "serve"])
def test_deeply_nested_artifact_exits_two(tmp_path, capsys, monkeypatch, command):
    code, err = artifact_command_outcome(tmp_path, capsys, monkeypatch, command, b"[" * 200_000 + b"]" * 200_000)
    assert code == 2
    assert err.startswith("error: artifact is not valid UTF-8 JSON:") and "Traceback" not in err


@pytest.mark.parametrize("command", ["recommend", "serve"])
def test_format_one_artifact_exits_two_with_the_rebuild_hint(tmp_path, capsys, monkeypatch, command):
    view = generate_synthetic(SyntheticSpec(film_count=6, user_count=8, seed=2))
    document = json.dumps(run_pipeline_from_view(view, PipelineConfig()).to_payload()).encode()
    code, err = artifact_command_outcome(tmp_path, capsys, monkeypatch, command, document)
    assert code == 2
    assert err.startswith("error: artifact format_version 1 ") and "Traceback" not in err
    assert "rebuild it with `filmrec run`" in err


@pytest.mark.parametrize("command", ["recommend", "serve"])
def test_newer_artifact_exits_two(tmp_path, capsys, monkeypatch, command):
    view = generate_synthetic(SyntheticSpec(film_count=6, user_count=8, seed=2))
    saved = tmp_path / "saved.json"
    run_pipeline_from_view(view, PipelineConfig()).save(saved)
    document = json.loads(saved.read_text())
    document["format_version"] = 4
    code, err = artifact_command_outcome(tmp_path, capsys, monkeypatch, command, json.dumps(document).encode())
    assert code == 2
    assert err.startswith("error: artifact format_version 4 is newer than supported 3") and "Traceback" not in err


@pytest.mark.parametrize("command", ["ingest", "run", "evaluate"])
def test_undecodable_config_file_exits_two_before_reading_events(tmp_path, capsys, command):
    conf = tmp_path / "bad.cfg"
    conf.write_bytes(b"edge_threshold = \xff\n")
    assert main([command, "--config", str(conf), str(tmp_path / "missing.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config file {conf} is not UTF-8:") and "Traceback" not in err


def test_unknown_eval_method_exits_two(events_file, capsys):
    assert main(["evaluate", str(events_file), "--methods", "astrology"]) == 2


def test_negative_sample_size_exits_two(events_file, capsys):
    assert main(["evaluate", str(events_file), "--sample-size", "-1"]) == 2
    assert "sample_size" in capsys.readouterr().err


def test_bad_split_exits_two_before_the_events_are_read(tmp_path, capsys):
    assert main(["evaluate", str(tmp_path / "missing.csv"), "--train-fraction", "1.5"]) == 2
    err = capsys.readouterr().err
    assert "train_fraction" in err
    assert "missing.csv" not in err


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
        kernel, serving = proc.stderr.readline().strip(), proc.stderr.readline().strip()
        assert re.fullmatch(r"INFO filmrec\.server: path kernel ready: \d+\.\d ms", kernel)
        bound = re.fullmatch(r"INFO filmrec\.server: serving on 127\.0\.0\.1:(\d+)", serving)
        assert bound and int(bound.group(1)) != 0
        with urllib.request.urlopen(f"http://127.0.0.1:{bound.group(1)}/v1/health", timeout=10) as response:
            assert response.status == 200
    finally:
        watchdog.cancel()
        proc.kill()
        proc.communicate()


COMPLETE_GRAPH_WARNING = "WARNING filmrec.pipeline: similarity graph is complete: 66 edges at edge_threshold 0.0"
STAGES = ["ingest", "similarity", "graph", "centrality", "cluster", "profiles"]


@pytest.mark.parametrize("command", ["similarity", "graph", "centrality", "cluster", "run"])
def test_each_stage_command_logs_the_stages_up_to_its_own(events_file, tmp_path, command):
    """At INFO a stage command logs the time of each stage it ran and no
    other; the complete-graph warning follows the graph stage."""
    proc = run_cli("--log-level", "INFO", command, str(events_file), "-o", str(tmp_path / "out"))
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 0
    ran = STAGES if command == "run" else STAGES[: STAGES.index(command) + 1]
    expected = [f"INFO filmrec.pipeline: stage {stage}: <ms>" for stage in ran]
    if "graph" in ran:
        expected.insert(ran.index("graph") + 1, COMPLETE_GRAPH_WARNING)
    assert [re.sub(r": \d+\.\d ms$", ": <ms>", line) for line in err.splitlines()] == expected


@pytest.mark.parametrize(
    "sizes, message",
    [
        ((3, 3), "centrality is constant over all 6 films at edge_threshold 0.5: degree, closeness, betweenness"),
        ((3, 2), "centrality is constant over all 5 films at edge_threshold 0.5: betweenness"),
    ],
)
def test_centrality_command_warns_about_constant_centrality(tmp_path, sizes, message):
    """Disjoint blocks of films, each watched at 0.8 by its own two users:
    every block is a clique, and no edge joins two blocks."""
    rows, first = [], 1
    for block, size in enumerate(sizes):
        rows += [f"{film},{user}{block},80,100" for film in range(first, first + size) for user in "ab"]
        first += size
    events = tmp_path / "blocks.csv"
    events.write_text("film_id,user_id,watch_seconds,total_seconds\n" + "\n".join(rows) + "\n")
    proc = run_cli("centrality", str(events), "--edge-threshold", "0.5", "-o", str(tmp_path / "centrality.csv"))
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 0
    assert err.splitlines() == [f"WARNING filmrec.pipeline: {message}"]


BAD_BINDS = ["localhost:abc", "127.0.0.1:99999", ":8080", "localhost:"]


@pytest.mark.parametrize("bind", BAD_BINDS)
def test_bad_bind_flag_is_one_error_line_before_loading(tmp_path, capsys, monkeypatch, bind):
    # the artifact does not exist, so a check after loading would report that instead
    monkeypatch.delenv(filmrec.cli.BIND_ENV_VAR, raising=False)
    assert main(["serve", str(tmp_path / "missing.json"), "--bind", bind]) == 2
    assert capsys.readouterr().err == f"error: bind address must be host:port with a port in 0-65535, got {bind!r}\n"


@pytest.mark.parametrize("bind", BAD_BINDS)
def test_bad_bind_environment_variable_is_one_error_line_before_loading(tmp_path, capsys, monkeypatch, bind):
    monkeypatch.setenv(filmrec.cli.BIND_ENV_VAR, bind)
    assert main(["serve", str(tmp_path / "missing.json")]) == 2
    assert capsys.readouterr().err == f"error: bind address must be host:port with a port in 0-65535, got {bind!r}\n"


def test_unknown_log_level_is_a_usage_error(capsys):
    assert main(["--log-level", "LOUD", "synth"]) == 1
    assert "--log-level" in capsys.readouterr().err
