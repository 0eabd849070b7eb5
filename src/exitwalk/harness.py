"""Experiment orchestration: Monte Carlo statistics, sweeps, fits, output files.

A run launches a fixed number of trajectories split over logical workers.
Worker w draws from the stream (seed, w), so results depend only on the
configuration, never on scheduling: per-worker moment partials
(count / mean / M2) are merged in worker order with the exact pairwise
update.  Wall-clock time is measured around the trajectory loop only and
reported to the caller but kept out of the JSON result file, which is
bit-reproducible for a fixed configuration.

`sweep` runs each method at each epsilon and gives one row per pair with
its mean step count and wall seconds; `sweep_fit` fits one column of one
method's rows against |ln eps|.  The step-count and timing studies are
both built from these two.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, asdict, replace

import numpy as np

from .bessel_hitting import SpectralSeriesCache
from .samplers import RNG_ALGORITHM, RngStream
from .specfun import BesselIndex
from .walkers import (
    BatchResult,
    SphereDomain,
    Tau1Table,
    euler_batch,
    read_table,
    woms_batch,
    wos_batch,
)

__all__ = [
    "METHODS",
    "ExperimentConfig",
    "RunStatistics",
    "FitResult",
    "run_experiment",
    "sweep",
    "sweep_fit",
    "fit_loglinear",
    "harmonic_functions",
    "run_result_document",
    "write_json",
    "write_csv",
    "format_real",
]

METHODS = ("woms", "wos_inversion", "wos_table", "wos_position", "euler")

RESULT_SCHEMA = "exitwalk-run-v1"


@dataclass(frozen=True)
class ExperimentConfig:
    method: str
    x0: tuple[float, ...]
    radius: float = 1.0
    delta: int = 2
    epsilon: float = 1e-5
    gamma: float = 0.99
    trajectories: int = 10**6
    seed: int = 0
    workers: int = 1
    h: float = 1e-3  # euler only
    table_path: str | None = None
    max_steps: int = 10**6

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        BesselIndex(self.delta)  # validates delta
        object.__setattr__(self, "x0", tuple(float(v) for v in self.x0))
        if len(self.x0) != self.delta:
            raise ValueError(f"x0 has {len(self.x0)} coordinates for dimension {self.delta}")
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise ValueError("radius must be positive and finite")
        if not math.hypot(*self.x0) < self.radius:  # also rejects NaN and inf
            raise ValueError("x0 must lie strictly inside the domain")
        if not 0.0 < self.epsilon < self.radius:
            raise ValueError("epsilon must lie in (0, radius)")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        if self.trajectories < 1:
            raise ValueError("trajectories must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if not (math.isfinite(self.h) and self.h > 0):
            raise ValueError("h must be positive and finite")
        if self.method == "wos_table" and not self.table_path:
            raise ValueError("wos_table requires a table_path")


@dataclass
class RunStatistics:
    n: int
    mean_time: float
    var_time: float
    ci95_time: float
    mean_steps: float
    var_steps: float
    wall_seconds: float
    dirichlet_estimates: dict[str, tuple[float, float]]


@dataclass(frozen=True)
class FitResult:
    """Ordinary least squares line through (x, y) pairs, with r^2."""

    intercept: float
    slope: float
    r_squared: float
    points: tuple[tuple[float, float], ...]


# ---------------------------------------------------------------------------
# Moment accumulation


@dataclass
class _Moments:
    n: int = 0
    mean: float = 0.0
    m2: float = 0.0

    @staticmethod
    def from_array(x: np.ndarray) -> "_Moments":
        n = int(x.size)
        if n == 0:
            return _Moments()
        mean = float(x.mean())
        m2 = float(((x - mean) ** 2).sum())
        return _Moments(n=n, mean=mean, m2=m2)

    def merge(self, other: "_Moments") -> "_Moments":
        if other.n == 0:
            return self
        if self.n == 0:
            return other
        n = self.n + other.n
        delta = other.mean - self.mean
        mean = self.mean + delta * other.n / n
        m2 = self.m2 + other.m2 + delta * delta * self.n * other.n / n
        return _Moments(n=n, mean=mean, m2=m2)

    @property
    def variance(self) -> float:
        return self.m2 / (self.n - 1) if self.n > 1 else 0.0

    @property
    def ci95(self) -> float:
        return 1.96 * math.sqrt(self.variance / self.n) if self.n else 0.0


def harmonic_functions(delta: int) -> dict:
    """Built-in harmonic polynomials with known Dirichlet values f(x0)."""
    if delta == 2:
        return {
            "1": lambda p: np.ones(len(p)),
            "x": lambda p: p[:, 0],
            "y": lambda p: p[:, 1],
            "x2-y2": lambda p: p[:, 0] ** 2 - p[:, 1] ** 2,
            "xy": lambda p: p[:, 0] * p[:, 1],
        }
    if delta == 3:
        return {
            "1": lambda p: np.ones(len(p)),
            "x0": lambda p: p[:, 0],
            "x1": lambda p: p[:, 1],
            "x2": lambda p: p[:, 2],
            "x0x1": lambda p: p[:, 0] * p[:, 1],
            "x0x2": lambda p: p[:, 0] * p[:, 2],
            "x1x2": lambda p: p[:, 1] * p[:, 2],
        }
    return {"1": lambda p: np.ones(len(p))}


# ---------------------------------------------------------------------------
# Running experiments


def _worker_counts(total: int, workers: int) -> list[int]:
    base, extra = divmod(total, workers)
    return [base + (1 if w < extra else 0) for w in range(workers)]


def _run_worker(
    config: ExperimentConfig, worker: int, count: int, tau1: Tau1Table | SpectralSeriesCache | None
) -> BatchResult:
    rng = RngStream(seed=config.seed, stream_id=worker)
    domain = SphereDomain(radius=config.radius, delta=config.delta)
    x0 = np.array(config.x0)
    if config.method == "woms":
        return woms_batch(
            x0, domain, config.epsilon, config.gamma, rng, count, config.max_steps
        )
    if config.method == "euler":
        return euler_batch(x0, domain, config.h, rng, count, config.max_steps)
    return wos_batch(x0, domain, config.epsilon, tau1, rng, count, config.max_steps)


def run_experiment(config: ExperimentConfig, table: Tau1Table | None = None) -> RunStatistics:
    """Run `trajectories` walks over `workers` deterministic streams and aggregate.

    The tau_1 source of the wos methods (the table passed in or read from
    table_path, or a fresh series cache) is set up before the timed
    section; wall_seconds covers the trajectory loop only.
    """
    tau1 = None
    if config.method == "wos_table":
        tau1 = table if table is not None else read_table(config.table_path)
    elif config.method == "wos_inversion":
        tau1 = SpectralSeriesCache(BesselIndex(config.delta))

    counts = _worker_counts(config.trajectories, config.workers)
    start = time.perf_counter()
    if config.workers == 1:
        results = [_run_worker(config, 0, counts[0], tau1)]
    else:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            futures = [
                pool.submit(_run_worker, config, w, counts[w], tau1)
                for w in range(config.workers)
                if counts[w] > 0
            ]
            results = [f.result() for f in futures]  # submission order => deterministic merge
    wall = time.perf_counter() - start

    time_mom = _Moments()
    step_mom = _Moments()
    func_registry = harmonic_functions(config.delta)
    func_moms = {name: _Moments() for name in func_registry}
    for res in results:
        time_mom = time_mom.merge(_Moments.from_array(res.exit_times))
        step_mom = step_mom.merge(_Moments.from_array(res.steps.astype(float)))
        projected = res.projected_positions(config.radius)
        for name, fn in func_registry.items():
            func_moms[name] = func_moms[name].merge(_Moments.from_array(fn(projected)))

    dirichlet = {name: (mom.mean, mom.ci95) for name, mom in func_moms.items()}
    return RunStatistics(
        n=time_mom.n,
        mean_time=time_mom.mean,
        var_time=time_mom.variance,
        ci95_time=time_mom.ci95,
        mean_steps=step_mom.mean,
        var_steps=step_mom.variance,
        wall_seconds=wall,
        dirichlet_estimates=dirichlet,
    )


def fit_loglinear(points) -> FitResult:
    """Ordinary least squares line through the given (x, y) pairs."""
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 2:
        raise ValueError("need at least 2 points to fit a line")
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    sxx = float(((xs - xs.mean()) ** 2).sum())
    if sxx == 0.0:
        raise ValueError("all x values are equal; line fit is degenerate")
    slope = float(((xs - xs.mean()) * (ys - ys.mean())).sum()) / sxx
    intercept = float(ys.mean() - slope * xs.mean())
    residuals = ys - (intercept + slope * xs)
    ss_res = float((residuals**2).sum())
    ss_tot = float(((ys - ys.mean()) ** 2).sum())
    r_squared = 1.0 if ss_tot == 0.0 else min(1.0, max(0.0, 1.0 - ss_res / ss_tot))
    return FitResult(intercept=intercept, slope=slope, r_squared=r_squared, points=tuple(pts))


def sweep(
    methods, base_config: ExperimentConfig, epsilons, table: Tau1Table | None = None, repeats: int = 1
) -> list[dict]:
    """One row per (method, epsilon), methods outermost.

    Each row holds method, eps, abs_ln_eps, mean_steps, its ci95 and
    seconds, the minimum wall time over `repeats` identical runs (scheduler
    noise only ever adds time, so the minimum is the robust cost estimate
    for sub-second points).  A run depends only on its configuration, so
    its statistics are the same in every repeat.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    rows = []
    for method in methods:
        for eps in epsilons:
            config = replace(base_config, method=method, epsilon=float(eps))
            runs = [run_experiment(config, table=table) for _ in range(repeats)]
            stats = runs[0]
            rows.append(
                {
                    "method": method,
                    "eps": config.epsilon,
                    "abs_ln_eps": abs(math.log(config.epsilon)),
                    "mean_steps": stats.mean_steps,
                    "ci95": 1.96 * math.sqrt(stats.var_steps / stats.n) if stats.n else 0.0,
                    "seconds": min(run.wall_seconds for run in runs),
                }
            )
    return rows


def sweep_fit(rows, method: str, key: str) -> FitResult:
    """Line a + b |ln eps| through row[key] over one method's sweep rows."""
    return fit_loglinear((r["abs_ln_eps"], r[key]) for r in rows if r["method"] == method)


# ---------------------------------------------------------------------------
# Result files


def build_identifier() -> str:
    here = os.path.dirname(os.path.abspath(__file__))
    try:
        out = subprocess.run(
            ["git", "-C", here, "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            check=False,
        )
        rev = out.stdout.strip()
        return rev if out.returncode == 0 and rev else "unknown"
    except OSError:
        return "unknown"


def run_result_document(config: ExperimentConfig, stats: RunStatistics) -> dict:
    """Deterministic JSON payload: config echo, build id, RNG name, estimates.

    Wall-clock seconds are deliberately excluded so identical configurations
    produce bit-identical files.
    """
    return {
        "schema": RESULT_SCHEMA,
        "build": build_identifier(),
        "rng": RNG_ALGORITHM,
        "config": asdict(config),
        "results": {
            "n": stats.n,
            "mean_exit_time": stats.mean_time,
            "var_exit_time": stats.var_time,
            "ci95_exit_time": stats.ci95_time,
            "mean_steps": stats.mean_steps,
            "var_steps": stats.var_steps,
            "dirichlet": {
                name: {"mean": mean, "ci95": ci}
                for name, (mean, ci) in stats.dirichlet_estimates.items()
            },
        },
    }


def write_json(path, document: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")


def format_real(value) -> str:
    return f"{float(value):.17g}"


def write_csv(path, header, rows) -> None:
    """Comma-separated with a header row, to stdout when path is None.

    Reals carry 17 significant digits.
    """
    with open(path, "w", encoding="utf-8") if path is not None else nullcontext(sys.stdout) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = [
                format_real(cell) if isinstance(cell, (float, np.floating)) else str(cell)
                for cell in row
            ]
            fh.write(",".join(cells) + "\n")
