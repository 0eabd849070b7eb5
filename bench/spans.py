"""Outside-in span tracing of exitwalk's layers, and the per-layer figures.

The tracer never edits the package.  It replaces, at the names their
callers look up, the public functions where one layer calls into the
next, with wrappers that record a span (name, start, end, parent span,
job id, thread) in memory:

    harness.woms_batch / wos_batch / euler_batch  -> walkers.<name>
    walkers.invert_cdf_batch                      -> bessel_hitting.invert_cdf_batch
    SpectralSeriesCache.series_eval               -> bessel_hitting.series_eval
    bessel_hitting.bessel_zero                    -> specfun.bessel_zero
    walkers.write_table / read_table              -> walkers.<name>
    harness.RngStream                             -> a subclass whose generator
                                                     records samplers.<method>

A span's parent is the innermost open span of its thread; a span opened on
a thread with none open (a harness worker thread) attaches to the tracer's
current root, the job span.  Self time is a span's duration minus the
union of its children's intervals, so two worker threads whose spans
overlap are not counted twice.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import statistics
import threading
import time
from contextlib import contextmanager

import numpy as np

from exitwalk import bessel_hitting, harness, samplers, walkers

WALKER_SPANS = ("walkers.woms_batch", "walkers.wos_batch", "walkers.euler_batch")
TABLE_IO_SPANS = ("walkers.write_table", "walkers.read_table")
TAIL_ALIVE = 1000  # a lockstep iteration with fewer walkers alive is a tail iteration

# Figures that are exact counts (they repeat exactly for a fixed seed and
# worker count); every other figure is a time or a ratio of times.
COUNT_METRICS = (
    "walkers.tail_iterations",
    "walkers.steps",
    "walkers.iterations",
    "samplers.variates",
    "bessel_hitting.invert_calls",
    "bessel_hitting.quantiles",
    "bessel_hitting.series_calls",
    "bessel_hitting.term_evals",
    "bessel_hitting.series_mb_computed",
    "specfun.zero_calls",
)
TIME_METRICS = (
    "harness.self_s",
    "walkers.self_s",
    "walkers.table_io_s",
    "samplers.draw_s",
    "bessel_hitting.invert_s",
    "bessel_hitting.series_s",
    "specfun.zero_s",
)
RATIO_METRICS = ("harness.busy_ratio", "walkers.ns_per_step", "samplers.ns_per_variate")


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "job", "thread", "counts")

    def __init__(self, span_id, name, parent, job, thread):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.job = job
        self.thread = thread
        self.start = self.end = 0.0
        self.counts = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def as_record(self) -> dict:
        counts = {k: _summarize(v) for k, v in self.counts.items()}
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "job": self.job,
            "thread": self.thread,
            "counts": counts,
        }


def _summarize(value):
    if isinstance(value, np.ndarray):  # the steps array a walker returned
        return {"trajectories": int(value.size), "steps": int(value.sum())}
    return value


class Tracer:
    """Span store for one process; spans stay in memory until `dump`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: int | None = None
        self._job = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1].id if stack else self._root
        span = Span(next(self._ids), name, parent, self._job, threading.get_ident())
        stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)

    @contextmanager
    def job(self, job_id, name: str | None = None):
        """Tag every span opened inside with job_id; `name` opens a root span."""
        saved = self._root, self._job
        self._job = job_id
        try:
            if name is None:
                yield None
            else:
                with self.span(name) as root:
                    self._root = root.id
                    yield root
        finally:
            self._root, self._job = saved

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_record()) + "\n")


# ---------------------------------------------------------------------------
# Wrappers


def _timed(tracer: Tracer, name: str, fn, counter=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as span:
            out = fn(*args, **kwargs)
        if counter is not None:
            span.counts = counter(args, out)
        return out

    return wrapper


def _walker_counts(args, out):
    # Keep a reference only; the arithmetic runs at analysis time so it
    # does not land inside the job span.
    return {"steps": out.steps}


def _invert_counts(args, out):
    return {"quantiles": int(np.size(args[0]))}


def _series_counts(args, out):
    # args = (cache, t, k)
    return {"points": int(np.size(args[1])), "k": int(args[2])}


class _TimedGenerator:
    """Delegates to a numpy Generator, recording one span per draw call."""

    def __init__(self, generator: np.random.Generator, tracer: Tracer) -> None:
        self._generator = generator
        self._tracer = tracer

    def __getattr__(self, attr):
        method = getattr(self._generator, attr)
        if not callable(method):
            return method
        tracer = self._tracer

        def draw(*args, **kwargs):
            with tracer.span("samplers." + attr) as span:
                out = method(*args, **kwargs)
            shape = np.shape(out)
            span.counts = {"variates": int(np.size(out)), "rows": int(shape[0]) if shape else 1}
            return out

        return draw


def install(tracer: Tracer):
    """Wrap every layer boundary; returns a function that undoes it."""
    targets = [
        (harness, "woms_batch", "walkers.woms_batch", _walker_counts),
        (harness, "wos_batch", "walkers.wos_batch", _walker_counts),
        (harness, "euler_batch", "walkers.euler_batch", _walker_counts),
        (walkers, "invert_cdf_batch", "bessel_hitting.invert_cdf_batch", _invert_counts),
        (bessel_hitting.SpectralSeriesCache, "series_eval", "bessel_hitting.series_eval", _series_counts),
        (bessel_hitting, "bessel_zero", "specfun.bessel_zero", None),
        (walkers, "write_table", "walkers.write_table", None),
        (walkers, "read_table", "walkers.read_table", None),
    ]
    saved = []
    for owner, attr, name, counter in targets:
        original = vars(owner)[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, _timed(tracer, name, original, counter))

    class TracedRngStream(samplers.RngStream):
        def __post_init__(self) -> None:
            super().__post_init__()
            self.generator = _TimedGenerator(self.generator, tracer)

    saved.append((harness, "RngStream", harness.RngStream))
    harness.RngStream = TracedRngStream

    def restore() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return restore


@contextmanager
def tracing(tracer: Tracer, job_id, root_name: str | None = None):
    """Wrap the layer boundaries while inside, tagging spans with job_id."""
    restore = install(tracer)
    try:
        with tracer.job(job_id, root_name) as root:
            yield root
    finally:
        restore()


# ---------------------------------------------------------------------------
# Analysis


def union_seconds(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    reach = -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_seconds(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children, clipped to it."""
    children: dict[int, list] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        clipped = [
            (max(c.start, span.start), min(c.end, span.end))
            for c in children.get(span.id, ())
            if c.end > span.start and c.start < span.end
        ]
        out[span.id] = span.seconds - union_seconds(clipped)
    return out


def _alive_profile(steps: np.ndarray) -> np.ndarray:
    """Walkers alive in lockstep iteration i = 1..max: those with steps >= i."""
    per_count = np.bincount(steps)
    return np.cumsum(per_count[::-1])[::-1][1:]


def layer_figures(spans) -> dict[str, float]:
    """Per-layer figures of one job (or of the set-up) from its spans."""
    own = self_seconds(spans)
    walker_spans = [s for s in spans if s.name in WALKER_SPANS]
    euler_ids = {s.id for s in walker_spans if s.name == "walkers.euler_batch"}
    draws = [s for s in spans if s.name.startswith("samplers.")]
    inverts = [s for s in spans if s.name == "bessel_hitting.invert_cdf_batch"]
    series = [s for s in spans if s.name == "bessel_hitting.series_eval"]
    zeros = [s for s in spans if s.name == "specfun.bessel_zero"]

    steps = iterations = tail = 0
    for span in walker_spans:
        steps += int(span.counts["steps"].sum())
        if span.id not in euler_ids:  # Euler iterations are block fills, counted below
            alive = _alive_profile(span.counts["steps"])
            iterations += int(alive.size)
            tail += int(np.count_nonzero(alive < TAIL_ALIVE))
    fills = [d for d in draws if d.parent in euler_ids]
    iterations += len(fills)
    tail += sum(1 for d in fills if d.counts["rows"] < TAIL_ALIVE)

    walker_self = sum(own[s.id] for s in walker_spans)
    if walker_spans:
        fan_out = max(s.end for s in walker_spans) - min(s.start for s in walker_spans)
        busy = sum(s.seconds for s in walker_spans) / (len(walker_spans) * fan_out)
    else:
        busy = 0.0
    draw_s = sum(s.seconds for s in draws)
    variates = sum(s.counts["variates"] for s in draws)
    term_evals = sum(s.counts["points"] * s.counts["k"] for s in series)
    return {
        "harness.self_s": sum(own[s.id] for s in spans if s.name.startswith("harness.")),
        "harness.busy_ratio": busy,
        "walkers.self_s": walker_self,
        "walkers.ns_per_step": 1e9 * walker_self / steps if steps else 0.0,
        "walkers.tail_iterations": tail,
        "walkers.steps": steps,
        "walkers.iterations": iterations,
        "walkers.table_io_s": sum(s.seconds for s in spans if s.name in TABLE_IO_SPANS),
        "samplers.draw_s": draw_s,
        "samplers.variates": variates,
        "samplers.ns_per_variate": 1e9 * draw_s / variates if variates else 0.0,
        "bessel_hitting.invert_s": sum(s.seconds for s in inverts),
        "bessel_hitting.invert_calls": len(inverts),
        "bessel_hitting.quantiles": sum(s.counts["quantiles"] for s in inverts),
        "bessel_hitting.series_s": sum(s.seconds for s in series),
        "bessel_hitting.series_calls": len(series),
        "bessel_hitting.term_evals": term_evals,
        # One float64 (points x k) term matrix per call, from array sizes.
        "bessel_hitting.series_mb_computed": 8.0 * term_evals / 1e6,
        "specfun.zero_s": sum(s.seconds for s in zeros),
        "specfun.zero_calls": len(zeros),
    }


def run_figures(spans, setup_job, timed_jobs) -> dict[str, float]:
    """Per-layer figures of a traced run: the set-up's plus one job's.

    Times are the set-up's plus the median over timed jobs; exact counts
    are the set-up's plus the first timed job's, so they repeat exactly for
    a fixed seed; ratios are the median over timed jobs.
    """
    by_job: dict = {}
    for span in spans:
        by_job.setdefault(span.job, []).append(span)
    setup = layer_figures(by_job.get(setup_job, []))
    jobs = [layer_figures(by_job.get(j, [])) for j in timed_jobs]
    out = {}
    for name in TIME_METRICS:
        out[name] = setup[name] + statistics.median(j[name] for j in jobs)
    for name in COUNT_METRICS:
        out[name] = setup[name] + jobs[0][name]
    for name in RATIO_METRICS:
        out[name] = statistics.median(j[name] for j in jobs)
    return out
