"""Smoke test of the benchmark at a tiny size; it finishes in seconds.

    python3 -m pytest perfbench/test_smoke.py

Every workload runs in both trace modes for one second, and every metric
named in BENCHMARK.json must come out with its unit; every time a workload
declares it measures must be above 0. The output checks must count a
corrupted similarity cell or response body as a failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from checks import Checks, check_fold, check_responses, check_similarity_cells, expected_body  # noqa: E402
from filmrec import PipelineConfig, SyntheticSpec, run_pipeline_from_view  # noqa: E402
from inputs import Request, write_events  # noqa: E402
from workloads import LAYERS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = SyntheticSpec(film_count=12, user_count=40, seed=3)
DIFFERENCES = {"trace.overhead_ms"}  # traced minus untraced time, may be <= 0


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["build", "serve", "evaluate"])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3", "--seconds", "1"]
    proc = subprocess.run(
        [*command, "--trace", str(trace), "--scale", "tiny"], capture_output=True, text=True, timeout=170
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK[section]
    }
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) for v in values.values())
    if not trace:
        assert all(v > 0 for v in values.values())
        return
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    times = {n for n in LAYERS[workload] - DIFFERENCES if units[n] in ("s", "ms")}
    assert {n: values[n] for n in times if not values[n] > 0} == {}
    assert {n: v for n, v in values.items() if n not in LAYERS[workload] and v != 0} == {}


def test_events_file_is_reproducible_and_folds_back(tmp_path):
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    view = write_events(first, TINY)
    write_events(second, TINY)
    assert first.read_bytes() == second.read_bytes()
    rows = first.read_text().count("\n") - 1
    assert rows > view.entry_count()  # re-watch rows were added
    checks = Checks()
    check_fold(checks, first, view)
    assert checks.failed == 0 and checks.attempted == 1


def tiny_artifact():
    from filmrec import generate_synthetic

    view = generate_synthetic(TINY)
    return view, run_pipeline_from_view(view, PipelineConfig())


def test_corrupted_similarity_cell_counts_as_error():
    view, artifact = tiny_artifact()
    every_pair = len(view.films) * (len(view.films) - 1) // 2
    clean = Checks()
    check_similarity_cells(clean, view, artifact, seed=1, count=every_pair)
    assert clean.failed == 0 and clean.attempted == every_pair

    artifact.similarity.values[2, 5] = artifact.similarity.values[2, 5] + 1e-12
    corrupted = Checks()
    check_similarity_cells(corrupted, view, artifact, seed=1, count=every_pair)
    assert corrupted.failed == 1
    assert corrupted.error_share == 1 / every_pair


def test_corrupted_response_body_counts_as_error():
    _, artifact = tiny_artifact()
    user = next(u for u, p in artifact.profiles.items() if p.preferred)
    film = artifact.similarity.films[0]
    requests = [
        Request("rec", user, f"/v1/users/{user}/recommendations?k=3"),
        Request("cold", "nobody", "/v1/users/nobody/recommendations?k=3"),
        Request("similar", film, f"/v1/films/{film}/similar?k=3"),
    ]
    bodies = [json.dumps(expected_body(artifact, r.kind, r.subject, 3)).encode() for r in requests]
    clean = Checks()
    check_responses(clean, [(r, 200, b) for r, b in zip(requests, bodies)], artifact, 3)
    assert clean.failed == 0 and clean.attempted == 6

    wrong_score = json.loads(bodies[0])
    wrong_score["items"][0]["score"] += 1e-9
    wrong_flag = json.loads(bodies[1])
    wrong_flag["cold_start"] = False
    corrupted = Checks()
    responses = [
        (requests[0], 200, json.dumps(wrong_score).encode()),
        (requests[1], 200, json.dumps(wrong_flag).encode()),
        (requests[2], 500, b"{}"),
    ]
    check_responses(corrupted, responses, artifact, 3)
    assert corrupted.failed == 3
    assert corrupted.error_share == 3 / 5
