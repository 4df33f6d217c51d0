"""filmrec benchmark: build, serve and evaluate workloads.

    python3 perfbench/run.py --workload build|serve|evaluate|all \
        --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout that holds ``src/filmrec``. Inputs
are generated from the seed. With ``--trace 0`` the last line of standard
output is a JSON object with every end-to-end metric named in
BENCHMARK.json; with ``--trace 1`` it has every per-layer metric instead,
and the spans go to ``.bench_work/traces/``. Per-layer metrics of a layer
the workload does not exercise read 0. The lines before it name each
number as the workload's user would (build_s, rec_p50_ms, ego_accuracy...),
give the end-to-end times as timed, before scaling to the reference speed,
and list failed checks. The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=["build", "serve", "evaluate", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["full", "tiny"], default="full", help="tiny is for the smoke test")
    return parser.parse_args(argv)


def emit(benchmark: dict, section: str, values: dict, declared: set) -> dict:
    """Every metric of ``section``. The workload must have measured exactly
    the ``declared`` names; the others read 0."""
    units = {metric["name"]: metric["unit"] for metric in benchmark[section]}
    if set(values) != declared or not declared <= set(units):
        missing, extra, unknown = declared - set(values), set(values) - declared, declared - set(units)
        raise KeyError(f"{section}: not measured {missing}, not declared {extra}, unknown {unknown}")
    return {name: {"value": values.get(name, 0), "unit": unit} for name, unit in units.items()}


def finish_trace(workload: str, trace_file: Path, as_timed: dict) -> None:
    """Add the untraced times as timed to the trace file and print its self
    times."""
    document = json.loads(trace_file.read_text(encoding="utf-8"))
    document["as_timed"] = as_timed
    trace_file.write_text(json.dumps(document, indent=1), encoding="utf-8")
    print(f"{workload}: self time per span, from {trace_file.relative_to(ROOT)}")
    for name, row in sorted(document["self_times"].items(), key=lambda item: -item[1]["self_s"]):
        print(f"  {name:34s} calls {row['calls']:7d}  total {row['total_s']:10.4f} s  self {row['self_s']:10.4f} s")


def run_one(workload: str, args, benchmark: dict) -> dict:
    from workloads import LAYERS, SCALES, WORKLOADS, Run

    work = WORK / f"{workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    run = Run(
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        size=SCALES[args.scale][workload],
        work=work,
        trace_file=WORK / "traces" / f"{workload}-seed{args.seed}.json",
    )
    try:
        outcome = WORKLOADS[workload](run)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checks = run.checks
    for name, value, unit, note in outcome.report:
        print(f"{workload}: {name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    print(f"{workload}: setup_s = {outcome.e2e['setup_s']:.6g} s")
    print(f"{workload}: peak_rss_mb = {outcome.e2e['peak_rss_mb']:.6g} MB")
    print(f"{workload}: as_timed {json.dumps(outcome.as_timed)}")
    print(f"{workload}: error_share = {checks.error_share:.6g}  ({checks.failed} of {checks.attempted} failed)")
    for failure in checks.failures[:20]:
        print(f"{workload}: FAILED {failure}")
    if run.trace:
        finish_trace(workload, run.trace_file, outcome.as_timed)
        metrics = emit(benchmark, "per_layer", outcome.per_layer, LAYERS[workload])
    else:
        metrics = emit(benchmark, "end_to_end", outcome.e2e, {m["name"] for m in benchmark["end_to_end"]})
    return {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    # Exit through SystemExit on SIGTERM so that cleanup stops the server and
    # removes the work directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    args = parse_args(argv)
    if not (SRC / "filmrec" / "__init__.py").is_file():
        print(f"error: no filmrec sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    workloads = ["build", "serve", "evaluate"] if args.workload == "all" else [args.workload]
    results = {workload: run_one(workload, args, benchmark) for workload in workloads}
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items() for name, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
