"""In-memory spans and the summary statistics the benchmark reports.

A span records one call into a layer: name, start, end, parent span, and
the run id (one build, one evaluation or one request) it belongs to. Spans
stay in memory and are written out once, when the benchmark ends. A span's
self time is its duration minus the durations of its direct children.

Timed operations are also scaled to a fixed machine speed. On a shared
machine the speed at which this process runs interpreter code moves by up
to 2x, for seconds to minutes at a time, as neighbours come and go.
``SpeedSampler`` times a short fixed pure-Python loop every 25 ms from a
SIGALRM handler, which runs in the main thread and so on the core doing the
work. It takes the loop's thread CPU time, so waiting for the interpreter
lock or for a core does not count, only how fast the core executes. An
operation's time is multiplied by the mean of ``REFERENCE_S`` over each
sample taken during it, i.e. by the core's mean speed relative to the
reference speed. That cancels most of the swing and keeps any change in
the program's own speed. The samples stay inside the timed interval, so
every time includes about 3% of sampling.
"""

from __future__ import annotations

import inspect
import json
import math
import signal
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

REFERENCE_S = 0.0007  # the reference loop on an uncontended core of a 2-core Xeon VM
REFERENCE_ITERATIONS = 2000
SAMPLE_INTERVAL_S = 0.025
MIN_SAMPLES = 3
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND_TAIL = 10


class Span:
    __slots__ = ("id", "parent", "name", "run", "start", "end", "counts")

    def __init__(self, span_id, parent, name, run, counts):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.run = run
        self.counts = counts
        self.start = self.end = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Single-threaded span recorder."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []

    @contextmanager
    def span(self, name: str, run=None, **counts):
        parent = self._open[-1] if self._open else None
        if run is None and parent is not None:
            run = parent.run
        span = Span(len(self.spans), parent.id if parent else None, name, run, counts)
        self.spans.append(span)
        self._open.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    @contextmanager
    def wrap(self, owner, attr: str, name: str, counts=None):
        """Record a span around every call of ``owner.attr`` (a module
        function, a method or classmethod on a class, or a bound method on
        an instance) while the block runs. ``counts(result, *args)`` may
        return a dict of counts to attach to the span."""
        func = getattr(owner, attr)
        saved = vars(owner).get(attr)

        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = func(*args, **kwargs)
                if counts is not None:
                    span.counts.update(counts(result, *args, **kwargs))
                return result

        replacement = traced
        if isinstance(owner, type) and isinstance(inspect.getattr_static(owner, attr), classmethod):
            replacement = staticmethod(traced)
        setattr(owner, attr, replacement)
        try:
            yield
        finally:
            if saved is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)

    def per_run(self, name: str) -> list[float]:
        """Seconds spent in spans called ``name``, summed per run id."""
        totals: dict = {}
        for span in self.spans:
            if span.name == name:
                totals[span.run] = totals.get(span.run, 0.0) + span.seconds
        return list(totals.values())

    def median_s(self, name: str) -> float:
        values = self.per_run(name)
        return statistics.median(values) if values else 0.0

    def counts(self, name: str, key: str) -> list:
        return [span.counts[key] for span in self.spans if span.name == name and key in span.counts]

    def self_times(self) -> dict[str, dict[str, float]]:
        """Calls, total seconds and self seconds per span name."""
        child_seconds = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_seconds[span.parent] += span.seconds
        table: dict[str, dict[str, float]] = {}
        for span in self.spans:
            row = table.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += span.seconds
            row["self_s"] += span.seconds - child_seconds[span.id]
        return table

    def write(self, path: Path, **summary) -> None:
        origin = self.spans[0].start if self.spans else 0.0
        document = {
            **summary,
            "self_times": self.self_times(),
            "spans": [
                {
                    "id": s.id,
                    "parent": s.parent,
                    "name": s.name,
                    "run": s.run,
                    "start_s": s.start - origin,
                    "end_s": s.end - origin,
                    **({"counts": s.counts} if s.counts else {}),
                }
                for s in self.spans
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document, indent=1, default=str), encoding="utf-8")


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values: list[float]) -> tuple[float, float] | None:
    """The highest standard percentile with at least ten samples beyond it,
    as (percentile, value), or None when the sample is too small."""
    for p in TAIL_PERCENTILES:
        if len(values) * (100.0 - p) / 100.0 >= MIN_BEYOND_TAIL:
            return p, percentile(values, p)
    return None


def reference_loop() -> float:
    """Dictionary and float work on a table small enough to stay in the
    core's private cache, so its speed does not depend on what the program
    under test leaves in the cache."""
    table: dict[int, float] = {}
    total = 0.0
    for i in range(REFERENCE_ITERATIONS):
        key = i & 1023
        table[key] = table.get(key, 0.0) + i * 0.5
        total += min(i, 77) / (i + 1.0)
    return total


class SpeedSampler:
    """Times the reference loop every SAMPLE_INTERVAL_S while active."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, CPU seconds)

    def __enter__(self) -> "SpeedSampler":
        for _ in range(MIN_SAMPLES):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, *_signal) -> None:
        start, cpu = time.perf_counter(), time.thread_time()
        reference_loop()
        self.samples.append((start, time.thread_time() - cpu))

    def timed(self, start: float, end: float) -> tuple[float, float]:
        """(seconds, seconds scaled to the reference speed) for an interval;
        too short an interval borrows the samples nearest its middle."""
        window = [seconds for t, seconds in self.samples if start <= t <= end]
        if len(window) < MIN_SAMPLES:
            middle = (start + end) / 2
            nearest = sorted(self.samples, key=lambda sample: abs(sample[0] - middle))
            window = [seconds for _, seconds in nearest[:MIN_SAMPLES]]
        return end - start, (end - start) * statistics.mean(REFERENCE_S / seconds for seconds in window)


def repeat(sampler: SpeedSampler, seconds: float, minimum: int, operation) -> list[tuple[float, float]]:
    """Call ``operation(i)``, which returns the (start, end) it timed, at
    least ``minimum`` times and until ``seconds`` have passed. Returns
    (seconds, scaled seconds) per call."""
    start = time.perf_counter()
    timings = []
    while len(timings) < minimum or time.perf_counter() - start < seconds:
        timings.append(sampler.timed(*operation(len(timings))))
    return timings
