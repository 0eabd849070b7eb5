"""One workload process: set up, then run timed jobs in a closed loop.

Started by run.py.  Set-up builds whatever the workload's jobs share (the
tau_1 table of wos-table-ball3: built, written and read back) and runs one
warm-up job a tenth of the size.  Then each job is one call to
harness.run_experiment, and the next starts only when it returns, until
at least --min-rounds job seeds have run and a typical one would overrun
--seconds.
Every job's output is checked against closed forms.  The last line of
stdout is one JSON object with the job records.

With --trace 1 the set-up is traced (spans.py), and each job seed runs
twice in a row, traced and untraced, in alternating order, so the tracing
overhead is measured on pairs that share the machine's state.  The spans
are written to --out-dir and the per-layer figures are added.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from exitwalk import harness, walkers  # noqa: E402
from exitwalk.bessel_hitting import InversionError  # noqa: E402
from exitwalk.walkers import StepBudgetError  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

# Seed-derivation keys: every seed is a function of the workload seed only.
TABLE_KEY, WARMUP_KEY, JOB_KEY = 1, 2, 3
CHECK_SIGMAS = 5.0
JOB_ERRORS = (StepBudgetError, InversionError, ValueError)
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def derive_seed(*key: int) -> int:
    return int(np.random.SeedSequence(list(key)).generate_state(1, np.uint64)[0])


def make_config(w: Workload, seed: int, trajectories: int, table_path) -> harness.ExperimentConfig:
    return harness.ExperimentConfig(
        method=w.method,
        x0=w.x0,
        radius=w.radius,
        delta=w.delta,
        epsilon=w.epsilon,
        gamma=w.gamma,
        trajectories=trajectories,
        seed=seed,
        workers=w.workers,
        h=w.h,
        table_path=str(table_path) if w.table_count else None,
    )


def build_table(w: Workload, seed: int, path) -> walkers.Tau1Table:
    rng = harness.RngStream(seed=derive_seed(seed, TABLE_KEY))
    table = walkers.precompute_table(w.table_count, w.delta, "inversion", rng)
    walkers.write_table(table, path)
    return walkers.read_table(path)


def check_job(w: Workload, stats: harness.RunStatistics) -> list[str]:
    """Closed-form checks of one job's estimates; returns the violations."""
    problems = []
    values = [stats.mean_time, stats.var_time, stats.ci95_time, stats.mean_steps, stats.var_steps]
    values += [v for pair in stats.dirichlet_estimates.values() for v in pair]
    if not all(math.isfinite(v) for v in values):
        problems.append("non-finite estimate")
    se = stats.ci95_time / 1.96
    if not abs(stats.mean_time - w.expected_exit_time) <= CHECK_SIGMAS * se:
        problems.append(
            f"mean exit time {stats.mean_time} vs {w.expected_exit_time} (standard error {se})"
        )
    x0 = np.array([w.x0])
    for name, fn in harness.harmonic_functions(w.delta).items():
        mean, ci95 = stats.dirichlet_estimates[name]
        exact = float(fn(x0)[0])
        if not abs(mean - exact) <= CHECK_SIGMAS * ci95 / 1.96 + 1e-12:
            problems.append(f"harmonic {name}: {mean} vs f(x0) = {exact} (ci95 {ci95})")
    return problems


def run_job(w: Workload, config, table, tracer, job_id, timed: bool) -> dict:
    """One checked run_experiment call; traced when a tracer is given."""
    record = {"job": job_id, "timed": timed, "traced": tracer is not None, "n": config.trajectories}
    scope = spans.tracing(tracer, job_id, "harness.run_experiment") if tracer else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with scope:
            stats = harness.run_experiment(config, table=table)
    except JOB_ERRORS as exc:
        record["seconds"] = time.perf_counter() - start
        record["error"] = f"{type(exc).__name__}: {exc}"
        return record
    record["seconds"] = time.perf_counter() - start
    record["mean_steps"] = stats.mean_steps
    record["ci95_time"] = stats.ci95_time
    problems = check_job(w, stats)
    if problems:
        record["error"] = "check failed: " + "; ".join(problems)
    return record


def provenance() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--process", type=int, default=0, help="index of this process in the run")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--min-rounds", type=int, default=1, help="a round is one job seed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", type=Path, required=True)
    args = parser.parse_args(argv)

    w = WORKLOADS[args.workload]
    tracer = spans.Tracer() if args.trace else None
    args.out_dir.mkdir(parents=True, exist_ok=True)
    table_path = args.out_dir / f"tau1-{w.name}-{os.getpid()}.bin"
    records = []
    try:
        table = None
        if w.table_count:
            with spans.tracing(tracer, "setup") if tracer else contextlib.nullcontext():
                table = build_table(w, args.seed, table_path)
        warm = make_config(
            w, derive_seed(args.seed, WARMUP_KEY, args.process), max(1, w.trajectories // 10), table_path
        )
        records.append(run_job(w, warm, table, None, "warmup", timed=False))
        first_job_at = time.monotonic()
        deadline = time.perf_counter() + args.seconds
        rounds = []
        # Start another round only if a typical one still ends before the deadline.
        while len(rounds) < args.min_rounds or time.perf_counter() + statistics.median(rounds) <= deadline:
            i = len(rounds)
            seed = derive_seed(args.seed, JOB_KEY, args.process, i)
            config = make_config(w, seed, w.trajectories, table_path)
            # Traced, a round runs its seed twice, traced and untraced, in alternating order.
            plan = [None] if tracer is None else [tracer, None] if i % 2 == 0 else [None, tracer]
            start = time.perf_counter()
            for job_tracer in plan:
                records.append(run_job(w, config, table, job_tracer, i, timed=True))
            rounds.append(time.perf_counter() - start)
    finally:
        table_path.unlink(missing_ok=True)

    result = {
        "first_job_at": first_job_at,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "jobs": records,
        "provenance": provenance(),
    }
    if tracer is not None:
        tracer.dump(args.out_dir / f"spans-{w.name}-seed{args.seed}.jsonl")
        timed = [r["job"] for r in records if r["traced"] and "error" not in r]
        result["layers"] = spans.run_figures(tracer.spans, "setup", timed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
