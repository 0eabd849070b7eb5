"""exitwalk benchmark: the command that runs it.

    python3 bench/run.py [--workload NAME] --seed N --seconds S --trace 0|1

Runs one workload (all four when --workload is left out) from a checkout
of the repository, importing exitwalk from its src/ directory.  Each
workload runs in fresh processes (jobloop.py), one after another, so they
never share the two CPUs:

* --trace 0: PROCESSES processes, each with its own set-up and S/PROCESSES
  seconds of jobs.  Prints the end-to-end metrics.
* --trace 1: one process, S seconds of job seeds each run traced and
  untraced.  Prints the per-layer metrics and the tracing overhead.

Every job's output is checked against closed forms.  Human-readable lines
come first; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = BENCH / "out"
PROCESSES = 3
TAIL_BEYOND = 10  # job_s_tail is the highest order statistic with this many jobs above it
TRACE_MIN_ROUNDS = 3  # job seeds, each run traced and untraced
CI_TARGET = 1e-3  # 95% half-width on the mean exit time that time_to_ci_s projects to
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "traj_per_s": "1/s",
    "steps_per_s": "1/s",
    "job_s_tail": "s",
    "time_to_ci_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
PER_LAYER_UNITS = {
    "harness.self_s": "s",
    "harness.busy_ratio": "ratio",
    "walkers.self_s": "s",
    "walkers.ns_per_step": "ns",
    "walkers.tail_iterations": "count",
    "walkers.steps": "count",
    "walkers.iterations": "count",
    "walkers.table_io_s": "s",
    "samplers.draw_s": "s",
    "samplers.variates": "count",
    "samplers.ns_per_variate": "ns",
    "bessel_hitting.invert_s": "s",
    "bessel_hitting.invert_calls": "count",
    "bessel_hitting.quantiles": "count",
    "bessel_hitting.series_s": "s",
    "bessel_hitting.series_calls": "count",
    "bessel_hitting.term_evals": "count",
    "bessel_hitting.series_mb_computed": "MB",
    "specfun.zero_s": "s",
    "specfun.zero_calls": "count",
    "trace_overhead": "ratio",
}


class BenchmarkError(RuntimeError):
    pass


def run_process(
    workload: str, seed: int, process: int, seconds: float, min_rounds: int, trace: int, deadline: float
) -> dict:
    """Run one jobloop process to completion; returns its record plus setup_s."""
    cmd = [
        sys.executable,
        str(BENCH / "jobloop.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--process", str(process),
        "--seconds", repr(seconds),
        "--min-rounds", str(min_rounds),
        "--trace", str(trace),
        "--out-dir", str(OUT_DIR),
    ]
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, stdout=subprocess.PIPE, text=True, timeout=max(1.0, deadline - spawned_at), check=False
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the process
        raise BenchmarkError(f"{workload}: process {process} exceeded the run time limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"{workload}: process {process} exited with code {proc.returncode}")
    record = json.loads(lines[-1])
    record["setup_s"] = record["first_job_at"] - spawned_at
    return record


def good_jobs(records) -> list[dict]:
    return [j for r in records for j in r["jobs"] if j["timed"] and "error" not in j]


def tally(records) -> tuple[int, int, bool, list[str]]:
    jobs = [j for r in records for j in r["jobs"]]
    errors = [f"job {j['job']}: {j['error']}" for j in jobs if "error" in j]
    correct = not any("check failed" in e for e in errors)
    return len(jobs), len(errors), correct, errors


def end_to_end(records) -> tuple[dict, list[str]]:
    jobs = good_jobs(records)
    if len(jobs) <= TAIL_BEYOND:
        raise BenchmarkError(f"only {len(jobs)} good jobs; job_s_tail needs {TAIL_BEYOND + 1}")
    seconds = sorted(j["seconds"] for j in jobs)
    rank = len(seconds) - TAIL_BEYOND  # 1-based rank of the tail order statistic
    metrics = {
        "traj_per_s": statistics.median(j["n"] / j["seconds"] for j in jobs),
        "steps_per_s": statistics.median(j["n"] * j["mean_steps"] / j["seconds"] for j in jobs),
        "job_s_tail": seconds[rank - 1],
        # A job's ci95 estimated from all jobs (they share n): the root mean square.
        "time_to_ci_s": statistics.median(seconds) * statistics.fmean(j["ci95_time"] ** 2 for j in jobs)
        / CI_TARGET**2,
        "setup_s": statistics.median(r["setup_s"] for r in records),
        "peak_rss_mb": statistics.median(r["peak_rss_mib"] for r in records),
    }
    notes = [
        f"{len(jobs)} timed jobs in {len(records)} processes; job_s_tail is p{100.0 * rank / len(seconds):.1f}"
        f" ({TAIL_BEYOND} jobs beyond it); job seconds median {statistics.median(seconds):.4g},"
        f" max {seconds[-1]:.4g}",
        "setup_s per process: " + ", ".join(f"{r['setup_s']:.4g}" for r in records),
    ]
    return metrics, notes


def per_layer(record: dict) -> tuple[dict, list[str]]:
    metrics = dict(record["layers"])
    pairs: dict = {}
    for j in good_jobs([record]):
        pairs.setdefault(j["job"], {})[j["traced"]] = j["seconds"]
    ratios = [p[True] / p[False] for p in pairs.values() if len(p) == 2]
    if not ratios:
        raise BenchmarkError("no job seed completed both traced and untraced")
    # Positive when tracing slows a job: traced over untraced job seconds, minus 1.
    metrics["trace_overhead"] = statistics.median(ratios) - 1.0
    notes = [
        f"{len(ratios)} job seeds run traced and untraced; times are the set-up's plus the"
        " median traced job's, exact counts the set-up's plus the first traced job's"
    ]
    return metrics, notes


def measure(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    if trace:
        records = [run_process(workload, seed, 0, seconds, TRACE_MIN_ROUNDS, 1, deadline)]
        metrics, notes = per_layer(records[0])
        units = PER_LAYER_UNITS
    else:
        min_rounds = math.ceil((TAIL_BEYOND + 1) / PROCESSES)
        records = [
            run_process(workload, seed, p, seconds / PROCESSES, min_rounds, 0, deadline)
            for p in range(PROCESSES)
        ]
        metrics, notes = end_to_end(records)
        units = END_TO_END_UNITS
    attempted, failed, correct, errors = tally(records)
    print(f"== {workload} seed={seed} trace={trace}")
    print(f"   provenance: {json.dumps(records[0]['provenance'], sort_keys=True)}")
    for name, unit in units.items():
        print(f"   {name:<36} {metrics[name]:.6g} {unit}")
    print(f"   {'failed_ratio':<36} {failed / attempted:.6g} ratio ({failed} of {attempted} jobs)")
    print(f"   outputs {'correct' if correct else 'INCORRECT'}")
    for line in notes + errors:
        print(f"   {line}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="exitwalk benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all, one after another")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0, help="measured seconds per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "exitwalk" / "__init__.py").is_file():
        print(f"bench: no exitwalk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("bench: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else list(WORKLOADS)
    deadline = time.monotonic() + RUN_LIMIT_S * len(names)
    try:
        results = {name: measure(name, args.seed, args.seconds, args.trace, deadline) for name in names}
    except BenchmarkError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if args.workload:
        summary = results[args.workload]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
