"""The three workloads, one per kind of filmrec user.

build     the operator: events file -> run_pipeline -> saved artifact, in a
          worker process, repeated. Default config, so the graph is complete.
serve     the client: `python -m filmrec serve` in a subprocess, closed loop
          of two connections, 80% personalized / 10% cold start / 10%
          similar-film requests. The mix and the uniform choice of known
          user are assumptions, not checked against any request log.
evaluate  the researcher: split_users then evaluate_method for ego_graph,
          knn5, naive_bayes and random, in a worker process, repeated, on a
          sparse graph (edge_threshold 0.35).

Each returns an Outcome: the end-to-end values (the same four names for
every workload, defined per workload in README.md), the same times before
scaling to the reference speed, the per-layer values of a traced run, and
report lines that name each number as a user would. ``LAYERS`` names the
per-layer metrics each workload exercises; the others read 0.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from checks import Checks, check_artifact, check_ego_scores, check_fold, check_responses
from filmrec import (
    PipelineArtifact,
    PipelineConfig,
    SyntheticSpec,
    rank_cold_start,
    rank_for_user,
    run_pipeline,
    run_pipeline_from_view,
    split_users,
)
from filmrec.evaluation import make_eval_case
from filmrec.pipeline import recommend
from inputs import RequestStream, write_events
from measure import SpeedSampler, Tracer, repeat, tail
from serve import Server, closed_loop, get
from worker import SETUP_REPEATS, cluster_counts, graph_counts

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# Sizes per scale; "tiny" is for the benchmark's own smoke test.
SCALES = {
    "full": {
        "build": {"films": 120, "users": 500},
        "serve": {"films": 80, "users": 328},
        "evaluate": {"films": 120, "users": 500, "sample_size": 300},
    },
    "tiny": {
        "build": {"films": 12, "users": 40},
        "serve": {"films": 12, "users": 40},
        "evaluate": {"films": 12, "users": 60, "sample_size": 40},
    },
}
CONNECTIONS = 2
SLICE_S = 1.0
K = 10
TRAIN_FRACTION = 0.8
EDGE_THRESHOLD = 0.35
SIMILARITY_CELLS = 40
EGO_SAMPLES = 24
HEALTH_PROBES = 50
LOAD_REPEATS = 3
WORKER_TIMEOUT_S = 170
PROBE = "import filmrec; print('ready', flush=True)"

METHODS = ("ego_graph", "knn5", "naive_bayes", "random")
GRAPH_SHAPE = {"graph.edges", "graph.density", "community.clusters", "community.modularity"}
PIPELINE_LAYERS = {
    *GRAPH_SHAPE,
    "ingest.parse_s", "ingest.rows", "ingest.view_s", "ingest.entries",
    "similarity.average_s", "similarity.pair_users", "similarity.ns_per_pair_user",
    "graph.build_s", "graph.degree_s", "graph.closeness_s", "graph.betweenness_s", "graph.centrality_s",
    "community.louvain_s",
}  # fmt: skip
TIMING = {"trace.overhead_ms", "as_timed.setup_s", "as_timed.op_p50_ms", "as_timed.ops_per_s", "as_timed.scale_factor"}
LAYERS = {
    "build": {
        *PIPELINE_LAYERS, *TIMING,
        "profiles.build_s", "profiles.users", "artifact.save_s", "artifact.bytes",
    },
    "serve": {
        *GRAPH_SHAPE, *TIMING,
        "artifact.load_s", "artifact.validate_s", "artifact.bytes",
        "pipeline.recommend_ms", "ranking.rank_ms", "ranking.egos_per_req", "ranking.candidates_per_req",
        "ranking.useful_share", "ranking.cold_ms", "server.rec_tail_ms", "server.health_p50_ms",
        "server.cold_p50_ms", "server.similar_p50_ms", "server.overhead_ms",
    },
    "evaluate": {
        *PIPELINE_LAYERS, *TIMING,
        "ingest.restrict_s", "evaluation.split_s", "evaluation.fit_s.ego_graph", "evaluation.judgments",
        *(f"evaluation.{kind}.{method}" for kind in ("score_s", "accuracy") for method in METHODS),
    },
}  # fmt: skip


@dataclass
class Run:
    seed: int
    seconds: float
    trace: bool
    size: dict
    work: Path
    trace_file: Path
    checks: Checks = field(default_factory=Checks)

    def trace_args(self) -> list:
        return ["--trace-file", self.trace_file] if self.trace else []


@dataclass
class Outcome:
    e2e: dict[str, float]
    as_timed: dict[str, float]
    per_layer: dict[str, float]
    report: list[tuple[str, float, str, str]]  # (metric, value, unit, note)


def child_env() -> dict:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def run_worker(*args) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *map(str, args)],
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def time_to_ready(i: int) -> tuple[float, float]:
    """Launch a worker; (launch, time it had imported filmrec)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", PROBE], env=child_env(), stdout=subprocess.PIPE, text=True)
    with proc.stdout:
        line = proc.stdout.readline()
    ready = time.perf_counter()
    if proc.wait(timeout=60) != 0 or line.strip() != "ready":
        raise RuntimeError("probe worker failed")
    return start, ready


def write_inputs(run: Run) -> tuple[Path, object]:
    spec = SyntheticSpec(film_count=run.size["films"], user_count=run.size["users"], seed=run.seed)
    events = run.work / "events.csv"
    view = write_events(events, spec)
    check_fold(run.checks, events, view)
    return events, view


def tail_ms(seconds: list[float]) -> tuple[float, str]:
    """Tail latency in ms with its description: the highest percentile with
    ten samples beyond it, or the maximum of a smaller sample."""
    found = tail(seconds)
    if found is None:
        return max(seconds) * 1e3, f"max of {len(seconds)}"
    p, value = found
    return value * 1e3, f"p{p:g} of {len(seconds)}"


def scaled(timings) -> list[float]:
    return [t[1] for t in timings]


def times(setup, ops, count: int, spans, column: int) -> dict[str, float]:
    """setup_s, op_p50_ms and ops_per_s from (timed, scaled) seconds per
    setup, per operation and per measured span of ``count`` operations;
    ``column`` 0 takes them as timed, 1 scaled."""
    return {
        "setup_s": statistics.median(t[column] for t in setup),
        "op_p50_ms": statistics.median(t[column] for t in ops) * 1e3,
        "ops_per_s": count / sum(t[column] for t in spans),
    }


def untraced(setup, ops, count: int, spans, rss_kb: int) -> tuple[dict, dict]:
    """End-to-end values, and the same times as timed together with the
    mean factor that scaled them."""
    e2e = {**times(setup, ops, count, spans, 1), "peak_rss_mb": rss_kb / 1024}
    raw = times(setup, ops, count, spans, 0)
    raw["scale_factor"] = sum(scaled(spans)) / sum(t[0] for t in spans)
    return e2e, raw


def traced_layers(result: dict, raw: dict) -> dict[str, float]:
    if "per_layer" not in result:
        return {}
    return {
        **result["per_layer"],
        "trace.overhead_ms": result["trace_overhead_s"] * 1e3,
        **{f"as_timed.{name}": value for name, value in raw.items()},
    }


def build(run: Run) -> Outcome:
    events, view = write_inputs(run)
    with SpeedSampler() as sampler:
        setup = repeat(sampler, 0.0, SETUP_REPEATS, time_to_ready)
    artifact = run.work / "artifact.json"
    result = run_worker("build", "--events", events, "--out", artifact, "--seconds", run.seconds, *run.trace_args())
    for match in result["centrality_match"]:
        run.checks.expect(match, "CentralityTable.from_components differs from CentralityTable.compute")
    check_artifact(run.checks, artifact, view, result["digests"], run.seed, SIMILARITY_CELLS)
    ops = result["op_s"]
    e2e, raw = untraced(setup, ops, len(ops), ops, result["peak_rss_kb"])
    return Outcome(
        e2e,
        raw,
        traced_layers(result, raw),
        [
            ("build_s", e2e["op_p50_ms"] / 1e3, "s", f"median of {len(ops)} builds"),
            ("build_tail_s", tail_ms(scaled(ops))[0] / 1e3, "s", tail_ms(scaled(ops))[1]),
            ("artifact_bytes", result["bytes"], "B", ""),
        ],
    )


def evaluate(run: Run) -> Outcome:
    events, view = write_inputs(run)
    sample_size = run.size["sample_size"]
    result = run_worker(
        "evaluate", "--events", events, "--seconds", run.seconds, "--seed", run.seed,
        "--sample-size", sample_size, "--train-fraction", TRAIN_FRACTION,
        "--edge-threshold", EDGE_THRESHOLD, *run.trace_args(),
    )  # fmt: skip
    for i, report_digest in enumerate(result["digests"]):
        run.checks.expect(report_digest == result["digests"][0], f"evaluation {i} reports differ from the first")

    train, test = split_users(view, sample_size, TRAIN_FRACTION, run.seed)
    cases = {user: make_eval_case(user, test.user_views(user)) for user in test.users}
    eligible = sum(case is not None for case in cases.values())
    for method, judgments in result["judgments"].items():
        run.checks.expect(judgments == 4 * eligible, f"{method}: {judgments} judgments for {eligible} eligible users")
    config = PipelineConfig(edge_threshold=EDGE_THRESHOLD)
    reference = run_pipeline_from_view(train, config)
    ego = result["ego_judgments"]
    sample = random.Random(f"ego-{run.seed}").sample(ego, min(EGO_SAMPLES, len(ego)))
    check_ego_scores(run.checks, reference, cases, sample, config.preference_threshold)

    ops = result["op_s"]
    accuracy = result["accuracy"]
    e2e, raw = untraced(result["setup_s"], ops, len(ops), ops, result["peak_rss_kb"])
    return Outcome(
        e2e,
        raw,
        traced_layers(result, raw),
        [
            ("eval_s", e2e["op_p50_ms"] / 1e3, "s", f"median of {len(ops)} evaluations"),
            ("eval_tail_s", tail_ms(scaled(ops))[0] / 1e3, "s", tail_ms(scaled(ops))[1]),
            ("ego_accuracy", accuracy["ego_graph"], "ratio", f"{result['judgments']['ego_graph']} judgments"),
            *((f"{m}_accuracy", a, "ratio", "") for m, a in accuracy.items() if m != "ego_graph"),
        ],
    )


def replay(tracer: Tracer, artifact: PipelineArtifact, requests, seconds: float, checks: Checks) -> list[float]:
    """Replay the served request sequence in-process: each personalized or
    cold-start request once untraced, then under spans. Returns the untraced
    personalized recommend times."""
    plain = []
    deadline = time.perf_counter() + seconds
    for index, request in enumerate(requests):
        if time.perf_counter() >= deadline:
            break
        if request.kind == "similar":
            continue
        start = time.perf_counter()
        expected = recommend(artifact, request.subject, K)
        elapsed = time.perf_counter() - start
        with tracer.span("request", run=index):
            if request.kind == "cold":
                with tracer.span("ranking.cold"):
                    ranked = rank_cold_start(artifact.centrality, K)
                checks.expect(ranked.entries == expected.entries, f"cold start for {request.subject} differs")
                continue
            plain.append(elapsed)
            with tracer.span("pipeline.recommend"):
                ranked = recommend(artifact, request.subject, K)
            profile = artifact.profiles[request.subject]
            with tracer.span("ranking.rank") as span:
                full = rank_for_user(
                    artifact.graph,
                    artifact.centrality,
                    artifact.clustering,
                    profile,
                    exclude_non_preferred=artifact.config.exclude_non_preferred,
                )
            span.counts["egos"] = sum(ego in artifact.graph for ego in (*profile.preferred, *profile.non_preferred))
            span.counts["candidates"] = len(full.entries)
        checks.expect(
            ranked == expected and full.top(K) == expected,
            f"recommendations for {request.subject} differ between calls",
        )
    return plain


def serve(run: Run) -> Outcome:
    events, _ = write_inputs(run)
    path = run.work / "artifact.json"
    run_pipeline(events, PipelineConfig()).save(path)
    artifact = PipelineArtifact.load(path)
    known = [user for user, profile in artifact.profiles.items() if profile.preferred]
    requests = RequestStream(run.seed, known, list(artifact.similarity.films), K)
    loop_seconds = run.seconds / 2 if run.trace else run.seconds

    servers: list[Server] = []

    def launch(i: int) -> tuple[float, float]:
        servers.append(Server(child_env(), path, run.work / "server.log"))
        healthy = servers[-1].wait_healthy()
        if i < SETUP_REPEATS - 1:
            servers[-1].stop()
        return servers[-1].started, healthy

    slices = []

    def serve_slice(i: int) -> tuple[float, float]:
        start = time.perf_counter()
        slices.append(closed_loop(servers[-1].port, requests, CONNECTIONS, SLICE_S))
        return start, time.perf_counter()

    health = []
    try:
        with SpeedSampler() as sampler:
            setup = repeat(sampler, 0.0, SETUP_REPEATS, launch)
            timings = repeat(sampler, loop_seconds, 1, serve_slice)
        for _ in range(HEALTH_PROBES if run.trace else 0):
            start = time.perf_counter()
            status, _ = get(servers[-1].port, "/v1/health")
            health.append(time.perf_counter() - start)
            run.checks.expect(status == 200, f"/v1/health: status {status}")
        rss_kb = servers[-1].peak_rss_kb()
    finally:
        for server in servers:
            server.stop()

    # Every latency is scaled by its slice's factor (scaled / timed seconds).
    responses = []
    latency = {"rec": [], "cold": [], "similar": []}
    for chunk, (timed_s, scaled_s) in zip(slices, timings):
        for request, status, body, seconds in chunk:
            responses.append((request, status, body))
            if status == 200:
                latency[request.kind].append((seconds, seconds * scaled_s / timed_s))
    check_responses(run.checks, responses, artifact, K)
    rec = scaled(latency["rec"])
    rec_tail, rec_tail_note = tail_ms(rec)
    e2e, raw = untraced(setup, latency["rec"], len(responses), timings, rss_kb)
    report = [
        ("serve_rps", e2e["ops_per_s"], "1/s", f"{len(responses)} requests, {CONNECTIONS} connections"),
        ("rec_p50_ms", e2e["op_p50_ms"], "ms", f"median of {len(rec)}"),
        ("rec_tail_ms", rec_tail, "ms", rec_tail_note),
    ]

    per_layer = {}
    if run.trace:
        tracer = Tracer()
        for i in range(LOAD_REPEATS):
            with tracer.span("artifact.load", run=f"load-{i}"):
                loaded = PipelineArtifact.load(path)
            with tracer.span("artifact.validate", run=f"load-{i}"):
                loaded.validate()
        plain = replay(tracer, loaded, [row[0] for row in responses], run.seconds / 2, run.checks)
        plain_ms = statistics.median(plain) * 1e3
        recommend_ms = tracer.median_s("pipeline.recommend") * 1e3
        candidates = tracer.counts("ranking.rank", "candidates")
        per_layer = {
            **{f"graph.{k}": v for k, v in graph_counts(artifact.graph).items()},
            **{f"community.{k}": v for k, v in cluster_counts(artifact.clustering).items()},
            "artifact.load_s": tracer.median_s("artifact.load"),
            "artifact.validate_s": tracer.median_s("artifact.validate"),
            "artifact.bytes": path.stat().st_size,
            "pipeline.recommend_ms": recommend_ms,
            "ranking.rank_ms": tracer.median_s("ranking.rank") * 1e3,
            "ranking.egos_per_req": statistics.mean(tracer.counts("ranking.rank", "egos")),
            "ranking.candidates_per_req": statistics.mean(candidates),
            "ranking.useful_share": sum(min(K, c) for c in candidates) / sum(candidates),
            "ranking.cold_ms": tracer.median_s("ranking.cold") * 1e3,
            "server.rec_tail_ms": tail_ms([t[0] for t in latency["rec"]])[0],
            "server.health_p50_ms": statistics.median(health) * 1e3,
            "server.cold_p50_ms": statistics.median(t[0] for t in latency["cold"]) * 1e3,
            "server.similar_p50_ms": statistics.median(t[0] for t in latency["similar"]) * 1e3,
            "server.overhead_ms": statistics.median(t[0] for t in latency["rec"]) * 1e3 - plain_ms,
            "trace.overhead_ms": recommend_ms - plain_ms,
            **{f"as_timed.{name}": value for name, value in raw.items()},
        }
        tracer.write(run.trace_file, untraced_recommend_s=plain)
    return Outcome(e2e, raw, per_layer, report)


WORKLOADS = {"build": build, "serve": serve, "evaluate": evaluate}
