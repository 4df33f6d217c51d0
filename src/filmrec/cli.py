"""Command-line entry point.

Each pipeline stage is runnable in isolation: its command reads the raw
events file and dumps that stage's table as CSV. ``similarity``, ``graph``,
``centrality`` and ``cluster`` run the stages of ``pipeline.run_stages`` up
to their own and no further; ``ingest`` and ``profiles`` need only the
viewing matrix. ``run`` executes the whole pipeline into a serialized
artifact. Exit codes: 0 success, 1 usage error, 2 data error.
``--log-level`` (before the command) routes log messages to stderr as
``LEVEL logger: message``.
"""

from __future__ import annotations

import argparse
import contextlib
import enum
import json
import logging
import os
import sys
from dataclasses import asdict, fields

from . import evaluation
from .artifact import PipelineArtifact
from .community import write_clusters_csv
from .config import PipelineConfig, read_config_file
from .errors import FilmRecError
from .graph import write_centrality_csv, write_edges_csv
from .ingest import write_view_matrix_csv
from .pipeline import load_view_matrix, recommend, run_pipeline, run_stages
from .profiles import build_profiles, write_profiles_csv
from .ranking import write_recommendations_csv
from .server import parse_bind, serve
from .similarity import write_dual_similarity_csv, write_similarity_csv

BIND_ENV_VAR = "FILMREC_BIND"
DEFAULT_BIND = "127.0.0.1:8331"
LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR")
LOG_FORMAT = "%(levelname)s %(name)s: %(message)s"


class _Parser(argparse.ArgumentParser):
    """argparse, but usage failures exit 1 instead of 2."""

    def exit(self, status=0, message=None):
        if message:
            self._print_message(message, sys.stderr)
        raise SystemExit(1 if status else 0)


@contextlib.contextmanager
def _output(path: str | None):
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", newline="", encoding="utf-8") as stream:
            yield stream


def _add_config_options(parser: argparse.ArgumentParser) -> None:
    """One flag per ``PipelineConfig`` field; a flag left out leaves the
    value to the config file or the default."""
    parser.add_argument("--config", metavar="FILE", help="key = value config file")
    for option in fields(PipelineConfig):
        flag = "--" + option.name.replace("_", "-")
        kwargs = {"dest": option.name, "help": option.metadata.get("help")}
        if option.type is bool:
            if option.default:
                flag = "--no-" + flag[2:]
            kwargs.update(action="store_const", const=not option.default)
        elif issubclass(option.type, enum.Enum):
            kwargs.update(choices=[member.value for member in option.type])
        else:
            kwargs.update(type=option.type)
        parser.add_argument(flag, **kwargs)


def _config_from_args(args: argparse.Namespace) -> PipelineConfig:
    """The config file's values, overridden by the flags given."""
    values = read_config_file(args.config) if args.config else {}
    for option in fields(PipelineConfig):
        if getattr(args, option.name) is not None:
            values[option.name] = getattr(args, option.name)
    return PipelineConfig.from_dict(values)


def _dump(compute, writer):
    """A stage command: load the events once and write ``compute(view, config)``."""

    def command(args) -> int:
        config = _config_from_args(args)
        table = compute(load_view_matrix(args.events, config, skip_bad_rows=args.skip_bad_rows), config)
        with _output(args.output) as stream:
            writer(table, stream)
        return 0

    return command


def _until(name: str):
    """A ``_dump`` compute: run the stages in order and stop at ``name``'s output."""
    return lambda view, config: next(output for stage, output in run_stages(view, config) if stage == name)


def _cmd_similarity(args) -> int:
    config = _config_from_args(args)
    view = load_view_matrix(args.events, config, skip_bad_rows=args.skip_bad_rows)
    sim = _until("similarity")(view, config)
    with _output(args.output) as stream:
        write_similarity_csv(sim, stream)
    if args.ds_dump:
        with open(args.ds_dump, "w", newline="", encoding="utf-8") as stream:
            write_dual_similarity_csv(view, stream)
    return 0


def _cmd_run(args) -> int:
    artifact = run_pipeline(args.events, _config_from_args(args), skip_bad_rows=args.skip_bad_rows)
    artifact.save(args.output)
    print(
        f"wrote {args.output}: {len(artifact.similarity.films)} films, "
        f"{artifact.graph.edge_count()} edges, "
        f"{max(artifact.clustering.assignment.values()) + 1} clusters, "
        f"{len(artifact.profiles)} user profiles"
    )
    return 0


def _cmd_recommend(args) -> int:
    artifact = PipelineArtifact.load(args.artifact)
    ranked = recommend(artifact, args.user, args.k)
    with _output(args.output) as stream:
        write_recommendations_csv(ranked, stream)
    return 0


def _cmd_synth(args) -> int:
    spec = evaluation.SyntheticSpec(
        film_count=args.films,
        user_count=args.users,
        planted_cluster_count=args.clusters,
        watch_probability=args.watch_probability,
        seed=args.seed,
    )
    view = evaluation.generate_synthetic(spec)
    events = evaluation.view_to_events(view)
    with _output(args.output) as stream:
        stream.write("film_id,user_id,watch_seconds,total_seconds\n")
        for event in events:
            stream.write(
                f"{event.film_id},{event.user_id},{event.watch_seconds!r},{event.total_seconds!r}\n"
            )
    return 0


# ``evaluate --methods`` names: each builds its policy from the config and the flags
METHODS = {
    "ego_graph": lambda config, args: evaluation.EgoGraphPolicy(**asdict(config)),
    "knn": lambda config, args: evaluation.KnnPolicy(args.knn_k),
    "naive_bayes": lambda config, args: evaluation.NaiveBayesPolicy(),
    "random": lambda config, args: evaluation.RandomScorePolicy(config.seed),
}


def _cmd_evaluate(args) -> int:
    config = _config_from_args(args)
    # policies and split first: a bad method, k or split fails before any data is read
    names = [name.strip() for name in args.methods.split(",")]
    for i, name in enumerate(names):
        if name not in METHODS:
            raise FilmRecError(f"unknown method: {name}")
        if name in names[:i]:
            raise FilmRecError(f"method named twice: {name}")
    policies = [METHODS[name](config, args) for name in names]
    split_spec = evaluation.SplitSpec(args.sample_size, args.train_fraction, config.seed)
    view = load_view_matrix(args.events, config, skip_bad_rows=args.skip_bad_rows)
    train, test = evaluation.split_users(view, args.sample_size, args.train_fraction, config.seed)
    reports = [evaluation.evaluate_method(p, train, test, split=split_spec) for p in policies]
    with _output(args.output) as stream:
        json.dump([r.to_json_dict() for r in reports], stream, indent=2, sort_keys=True)
        stream.write("\n")
    if args.summary:
        with open(args.summary, "w", newline="", encoding="utf-8") as stream:
            evaluation.write_eval_summary_csv(reports, stream)
    for report in reports:
        print(f"{report.method}: accuracy {report.accuracy:.4f} over {len(report.judgments)} judgments")
    return 0


def _cmd_serve(args) -> int:
    host, port = parse_bind(args.bind or os.environ.get(BIND_ENV_VAR) or DEFAULT_BIND)
    serve(PipelineArtifact.load(args.artifact), host, port)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="filmrec", description=__doc__)
    parser.add_argument(
        "--log-level",
        choices=LOG_LEVELS,
        default="WARNING",
        type=str.upper,
        help="lowest level of log messages written to stderr (default WARNING)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def stage(name: str, help_text: str, func):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("events", help="events CSV (film_id,user_id,watch_seconds,total_seconds)")
        p.add_argument("-o", "--output", default="-", help="output path (default stdout)")
        p.add_argument("--skip-bad-rows", action="store_true", help="log and skip malformed rows")
        _add_config_options(p)
        p.set_defaults(func=func)
        return p

    ingest = _dump(lambda view, config: view, write_view_matrix_csv)
    stage("ingest", "parse events and dump the viewing-percentage matrix", ingest)

    p = stage("similarity", "dump the averaged film similarity matrix", _cmd_similarity)
    p.add_argument("--ds-dump", metavar="FILE", help="also dump the per-user DS tensor")

    stage("graph", "dump the thresholded film graph edge list", _dump(_until("graph"), write_edges_csv))
    stage("centrality", "dump per-film centrality measures", _dump(_until("centrality"), write_centrality_csv))
    stage("cluster", "dump the film clustering", _dump(_until("cluster"), write_clusters_csv))
    profiles = _dump(lambda view, config: build_profiles(view, config.preference_threshold), write_profiles_csv)
    stage("profiles", "dump per-user preference labels", profiles)

    p = stage("run", "run the full pipeline into an artifact file", _cmd_run)
    p.set_defaults(output="artifact.json")

    p = sub.add_parser("recommend", help="recommendations for one user from an artifact")
    p.add_argument("artifact")
    p.add_argument("--user", required=True)
    p.add_argument("-k", type=int, default=10)
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=_cmd_recommend)

    p = sub.add_parser("synth", help="generate a synthetic events CSV")
    spec = evaluation.SyntheticSpec()
    p.add_argument("-o", "--output", default="-")
    p.add_argument("--films", type=int, default=spec.film_count)
    p.add_argument("--users", type=int, default=spec.user_count)
    p.add_argument("--clusters", type=int, default=spec.planted_cluster_count)
    p.add_argument("--watch-probability", type=float, default=spec.watch_probability)
    p.add_argument("--seed", type=int, default=spec.seed)
    p.set_defaults(func=_cmd_synth)

    p = stage("evaluate", "offline sign-agreement evaluation", _cmd_evaluate)
    p.add_argument("--sample-size", type=int, default=50)
    p.add_argument("--train-fraction", type=float, default=0.7)
    p.add_argument("--methods", default=",".join(METHODS))
    p.add_argument("--knn-k", type=int, default=5)
    p.add_argument("--summary", metavar="FILE", help="also write a CSV accuracy summary")

    p = sub.add_parser("serve", help="serve an artifact over HTTP")
    p.add_argument("artifact")
    p.add_argument("--bind", help=f"host:port (default {DEFAULT_BIND}, env {BIND_ENV_VAR})")
    p.set_defaults(func=_cmd_serve)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    logging.basicConfig(level=args.log_level, format=LOG_FORMAT)
    try:
        return args.func(args)
    except (FilmRecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
