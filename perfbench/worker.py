"""Worker process for the batch workloads.

    worker.py build    --events F --out F --seconds S [--trace-file F]
    worker.py evaluate --events F --seconds S --seed N --sample-size N
                       --train-fraction X --edge-threshold X [--trace-file F]

Each loop repeats its operation until ``--seconds`` have passed and prints
one JSON line with the timings and what the checks need. With a trace file
it alternates untraced and traced operations; traced ones call each layer's
public functions under spans, and the spans are written to the file.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from contextlib import ExitStack
from pathlib import Path

import filmrec
from checks import digest
from filmrec import (
    CentralityTable,
    EgoGraphPolicy,
    KnnPolicy,
    NaiveBayesPolicy,
    PipelineArtifact,
    PipelineConfig,
    RandomScorePolicy,
    SplitSpec,
    ViewMatrix,
    average_similarity,
    betweenness_centrality,
    build_graph,
    build_profiles,
    build_view_matrix,
    closeness_centrality,
    degree_centrality,
    evaluate_method,
    louvain,
    parse_events,
    run_pipeline,
    split_users,
)
from measure import SpeedSampler, Tracer, repeat

SETUP_REPEATS = 15


def density(nodes: int, edges: int) -> float:
    return 2.0 * edges / (nodes * (nodes - 1)) if nodes > 1 else 0.0


def load_view(path: Path) -> ViewMatrix:
    with open(path, newline="", encoding="utf-8") as stream:
        return build_view_matrix(parse_events(stream))


def traced_load(tracer: Tracer, path: Path) -> ViewMatrix:
    with tracer.span("ingest.parse") as span:
        with open(path, newline="", encoding="utf-8") as stream:
            events = parse_events(stream)
    span.counts["rows"] = len(events)
    with tracer.span("ingest.view") as span:
        view = build_view_matrix(events)
    span.counts["entries"] = view.entry_count()
    return view


def traced_build(tracer: Tracer, run: int, events: Path, config: PipelineConfig, out: Path):
    """run_pipeline and save, one public call at a time. Centrality comes
    from the per-node functions and CentralityTable.from_components."""
    with tracer.span("build", run=run):
        view = traced_load(tracer, events)
        with tracer.span("similarity.average") as span:
            similarity = average_similarity(view, config.averaging_policy)
        span.counts.update(similarity_counts(similarity, view))
        with tracer.span("graph.build") as span:
            graph = build_graph(similarity, config.edge_threshold)
        span.counts.update(graph_counts(graph))
        with tracer.span("graph.centrality"):
            degree, closeness = {}, {}
            for node in graph.nodes:
                with tracer.span("graph.degree"):
                    degree[node] = degree_centrality(graph, node)
            for node in graph.nodes:
                with tracer.span("graph.closeness"):
                    closeness[node] = closeness_centrality(graph, node)
            with tracer.span("graph.betweenness"):
                betweenness = betweenness_centrality(graph)
            centrality = CentralityTable.from_components(
                {node: (degree[node], closeness[node], betweenness[node]) for node in graph.nodes}
            )
        with tracer.span("community.louvain") as span:
            clustering = louvain(graph, config.seed)
        span.counts.update(cluster_counts(clustering))
        with tracer.span("profiles.build") as span:
            profiles = build_profiles(view, config.preference_threshold)
        span.counts["users"] = len(profiles)
        with tracer.span("artifact.save"):
            artifact = PipelineArtifact.build(config, similarity, graph, centrality, clustering, profiles)
            artifact.save(out)
    return artifact


def similarity_counts(similarity, view, *_) -> dict:
    films = len(similarity.films)
    return {"pair_users": films * (films - 1) // 2 * len(view.users)}


def graph_counts(graph, *_) -> dict:
    return {"edges": graph.edge_count(), "density": density(graph.node_count(), graph.edge_count())}


def cluster_counts(clustering, *_) -> dict:
    return {"clusters": max(clustering.assignment.values()) + 1, "modularity": clustering.modularity}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers shared by the build and evaluate traces."""
    def last(name, key):
        values = tracer.counts(name, key)
        return values[-1] if values else 0

    similarity_s = tracer.median_s("similarity.average")
    pair_users = last("similarity.average", "pair_users")
    return {
        "ingest.parse_s": tracer.median_s("ingest.parse"),
        "ingest.rows": last("ingest.parse", "rows"),
        "ingest.view_s": tracer.median_s("ingest.view"),
        "ingest.entries": last("ingest.view", "entries"),
        "similarity.average_s": similarity_s,
        "similarity.pair_users": pair_users,
        "similarity.ns_per_pair_user": similarity_s / pair_users * 1e9 if pair_users else 0.0,
        "graph.build_s": tracer.median_s("graph.build"),
        "graph.edges": last("graph.build", "edges"),
        "graph.density": last("graph.build", "density"),
        "graph.degree_s": tracer.median_s("graph.degree"),
        "graph.closeness_s": tracer.median_s("graph.closeness"),
        "graph.betweenness_s": tracer.median_s("graph.betweenness"),
        "graph.centrality_s": tracer.median_s("graph.centrality"),
        "community.louvain_s": tracer.median_s("community.louvain"),
        "community.clusters": last("community.louvain", "clusters"),
        "community.modularity": last("community.louvain", "modularity"),
    }


def peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def finish(result: dict, tracer: Tracer | None, trace_file: str | None, timings: list) -> None:
    """Print the result; with a tracer, odd operations were traced and the
    overhead is the difference of the scaled medians."""
    plain = timings[0::2] if tracer is not None else timings
    result["op_s"] = plain
    if tracer is not None:
        traced = timings[1::2]
        result["trace_overhead_s"] = statistics.median(t[1] for t in traced) - statistics.median(t[1] for t in plain)
        tracer.write(Path(trace_file), untraced_s=plain, traced_s=traced)
    result["peak_rss_kb"] = peak_rss_kb()
    print(json.dumps(result))


def cmd_build(args, sampler: SpeedSampler) -> None:
    config = PipelineConfig()
    events, out = Path(args.events), Path(args.out)
    tracer = Tracer() if args.trace_file else None
    digests, centrality_match = [], []
    reference: list[CentralityTable] = []

    def operation(i: int) -> tuple[float, float]:
        with_trace = tracer is not None and i % 2 == 1
        start = time.perf_counter()
        if with_trace:
            artifact = traced_build(tracer, i, events, config, out)
        else:
            artifact = run_pipeline(events, config)
            artifact.save(out)
        end = time.perf_counter()
        digests.append(digest(artifact.payload_without_timestamp()))
        if with_trace:
            centrality_match.append(artifact.centrality == reference[-1])
        elif tracer is not None:
            reference[:] = [artifact.centrality]
        return start, end

    timings = repeat(sampler, args.seconds, 2 if tracer else 1, operation)
    result = {"digests": digests, "centrality_match": centrality_match, "bytes": out.stat().st_size}
    if tracer is not None:
        result["per_layer"] = {
            **layer_metrics(tracer),
            "profiles.build_s": tracer.median_s("profiles.build"),
            "profiles.users": tracer.counts("profiles.build", "users")[-1],
            "artifact.save_s": tracer.median_s("artifact.save"),
            "artifact.bytes": out.stat().st_size,
        }
    finish(result, tracer, args.trace_file, timings)


def policies(args) -> list:
    return [
        EgoGraphPolicy(edge_threshold=args.edge_threshold),
        KnnPolicy(5),
        NaiveBayesPolicy(),
        RandomScorePolicy(args.seed),
    ]


def run_evaluation(args, view: ViewMatrix, methods: list) -> list:
    split = SplitSpec(args.sample_size, args.train_fraction, args.seed)
    train, test = split_users(view, args.sample_size, args.train_fraction, args.seed)
    return [evaluate_method(policy, train, test, split=split) for policy in methods]


def traced_evaluation(tracer: Tracer, run: int, args, view: ViewMatrix) -> list:
    """The same evaluation with spans around the layer calls made inside
    split_users, EgoGraphPolicy.fit and each policy's fit and score_film."""
    methods = policies(args)
    wrapped = [
        (ViewMatrix, "restrict_users", "ingest.restrict", None),
        (filmrec.evaluation, "average_similarity", "similarity.average", similarity_counts),
        (filmrec.evaluation, "build_graph", "graph.build", graph_counts),
        (CentralityTable, "compute", "graph.centrality", None),
        (filmrec.graph, "degree_centrality", "graph.degree", None),
        (filmrec.graph, "closeness_centrality", "graph.closeness", None),
        (filmrec.graph, "betweenness_centrality", "graph.betweenness", None),
        (filmrec.evaluation, "louvain", "community.louvain", cluster_counts),
    ]
    for policy in methods:
        wrapped.append((policy, "fit", f"evaluation.fit.{policy.name}", None))
        wrapped.append((policy, "score_film", f"evaluation.score.{policy.name}", None))
    with ExitStack() as stack:
        for owner, attr, name, counts in wrapped:
            stack.enter_context(tracer.wrap(owner, attr, name, counts))
        with tracer.span("evaluate", run=run):
            with tracer.span("evaluation.split"):
                split = SplitSpec(args.sample_size, args.train_fraction, args.seed)
                train, test = split_users(view, args.sample_size, args.train_fraction, args.seed)
            reports = []
            for policy in methods:
                with tracer.span(f"evaluation.method.{policy.name}"):
                    reports.append(evaluate_method(policy, train, test, split=split))
    return reports


def cmd_evaluate(args, sampler: SpeedSampler) -> None:
    events = Path(args.events)
    tracer = Tracer() if args.trace_file else None
    views: list[ViewMatrix] = []

    def load(i: int) -> tuple[float, float]:
        start = time.perf_counter()
        if tracer is not None:
            with tracer.span("setup", run=f"setup-{i}"):
                views[:] = [traced_load(tracer, events)]
        else:
            views[:] = [load_view(events)]
        return start, time.perf_counter()

    setup = repeat(sampler, 0.0, SETUP_REPEATS, load)
    view = views[0]
    digests: list[str] = []
    reports: list = []

    def operation(i: int) -> tuple[float, float]:
        start = time.perf_counter()
        if tracer is not None and i % 2 == 1:
            reports[:] = traced_evaluation(tracer, i, args, view)
        else:
            reports[:] = run_evaluation(args, view, policies(args))
        end = time.perf_counter()
        digests.append(digest([report.to_json_dict() for report in reports]))
        return start, end

    timings = repeat(sampler, args.seconds, 2 if tracer else 1, operation)
    ego = reports[0]
    result = {
        "setup_s": setup,
        "digests": digests,
        "judgments": {r.method: len(r.judgments) for r in reports},
        "accuracy": {r.method: r.accuracy for r in reports},
        "ego_judgments": [(j.user_id, j.film_id, j.rs_value) for j in ego.judgments],
    }
    if tracer is not None:
        per_layer = layer_metrics(tracer)
        per_layer["ingest.restrict_s"] = tracer.median_s("ingest.restrict")
        per_layer["evaluation.split_s"] = tracer.median_s("evaluation.split")
        per_layer["evaluation.fit_s.ego_graph"] = tracer.median_s("evaluation.fit.ego_graph")
        for report in reports:
            per_layer[f"evaluation.score_s.{report.method}"] = tracer.median_s(f"evaluation.score.{report.method}")
            per_layer[f"evaluation.accuracy.{report.method}"] = report.accuracy
        per_layer["evaluation.judgments"] = len(ego.judgments)
        result["per_layer"] = per_layer
    finish(result, tracer, args.trace_file, timings)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="mode", required=True)
    build = sub.add_parser("build")
    build.add_argument("--out", required=True)
    evaluate = sub.add_parser("evaluate")
    evaluate.add_argument("--seed", type=int, required=True)
    evaluate.add_argument("--sample-size", type=int, required=True)
    evaluate.add_argument("--train-fraction", type=float, required=True)
    evaluate.add_argument("--edge-threshold", type=float, required=True)
    for p in (build, evaluate):
        p.add_argument("--events", required=True)
        p.add_argument("--seconds", type=float, required=True)
        p.add_argument("--trace-file")
    args = parser.parse_args(argv)
    with SpeedSampler() as sampler:
        (cmd_build if args.mode == "build" else cmd_evaluate)(args, sampler)


if __name__ == "__main__":
    sys.exit(main())
