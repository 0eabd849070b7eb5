"""Command-line interface.

Subcommands:
  run         one Monte Carlo experiment (mean exit time / steps / Dirichlet)
  steps       mean step count versus |ln eps| with a least-squares fit
  timing      wall seconds per method and epsilon
  precompute  build a binary tau_1 sample table
  pdf1d       tabulate one-dimensional boundary-hitting densities
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict

from . import brownian1d
from .bessel_hitting import InversionError, SeriesTruncationError
from .harness import (
    METHODS,
    ExperimentConfig,
    build_identifier,
    format_real,
    run_experiment,
    run_result_document,
    sweep,
    sweep_fit,
    write_csv,
    write_json,
)
from .samplers import RNG_ALGORITHM, RngStream
from .walkers import StepBudgetError, precompute_table, read_table, write_table

# The CLI spells each harness method name with hyphens.
_CLI_CHOICES = sorted(m.replace("_", "-") for m in METHODS)


def _parse_x0(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid coordinate list {text!r}") from exc


def _parse_eps_list(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid epsilon list {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("epsilon list is empty")
    return values


def _parse_methods(text: str) -> list[str]:
    """Comma-separated CLI method names -> harness.METHODS names."""
    methods = [part.strip() for part in text.split(",") if part.strip()]
    if not methods:
        raise argparse.ArgumentTypeError("method list is empty")
    for m in methods:
        if m not in _CLI_CHOICES:
            raise argparse.ArgumentTypeError(
                f"unknown method {m!r}; choose from {', '.join(_CLI_CHOICES)}"
            )
    return [m.replace("-", "_") for m in methods]


def _add_common_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--x0", type=_parse_x0, default=(0.5, 0.0), help="start point, comma-separated reals")
    parser.add_argument("--radius", type=float, default=1.0, help="sphere radius L")
    parser.add_argument("--dim", type=int, default=2, help="dimension (>= 2)")
    parser.add_argument("--gamma", type=float, default=0.99, help="moving-sphere safety factor in (0,1)")
    parser.add_argument("--n", type=int, default=10**5, help="number of trajectories")
    parser.add_argument("--seed", type=int, default=0, help="RNG seed")
    parser.add_argument("--workers", type=int, default=1, help="parallel workers (deterministic streams)")
    parser.add_argument("--h", type=float, default=1e-3, help="Euler time step")
    parser.add_argument("--table", type=str, default=None, help="path to a precomputed tau_1 table")
    parser.add_argument("--json", type=str, default=None, help="write the result JSON here")
    parser.add_argument("--csv", type=str, default=None, help="write the result CSV here")


def _config_from_args(args, method: str, epsilon: float) -> ExperimentConfig:
    return ExperimentConfig(
        method=method,
        x0=args.x0,
        radius=args.radius,
        delta=args.dim,
        epsilon=epsilon,
        gamma=args.gamma,
        trajectories=args.n,
        seed=args.seed,
        workers=args.workers,
        h=args.h,
        table_path=args.table,
    )


def _print_fit(label: str, key: str, fit) -> None:
    print(
        f"{label}: {key} = {format_real(fit.intercept)} + "
        f"{format_real(fit.slope)} * |ln eps| (r^2 = {format_real(fit.r_squared)})"
    )


def _fit_fields(fit) -> dict | None:
    if fit is None:
        return None
    return {"intercept": fit.intercept, "slope": fit.slope, "r_squared": fit.r_squared}


def _cmd_run(args) -> int:
    config = _config_from_args(args, args.method.replace("-", "_"), args.eps)
    stats = run_experiment(config)
    print(f"method={args.method} n={stats.n} seed={config.seed} rng={RNG_ALGORITHM}")
    print(
        f"mean_exit_time={format_real(stats.mean_time)} "
        f"ci95={format_real(stats.ci95_time)} var={format_real(stats.var_time)}"
    )
    print(f"mean_steps={format_real(stats.mean_steps)} var_steps={format_real(stats.var_steps)}")
    print(f"wall_seconds={stats.wall_seconds:.3f}")
    for name, (mean, ci) in stats.dirichlet_estimates.items():
        print(f"dirichlet[{name}]={format_real(mean)} ci95={format_real(ci)}")
    if args.json:
        write_json(args.json, run_result_document(config, stats))
    if args.csv:
        header = ["n", "mean_time", "var_time", "ci95_time", "mean_steps", "var_steps"]
        write_csv(args.csv, header, [[getattr(stats, name) for name in header]])
    return 0


def _cmd_steps(args) -> int:
    method = args.method.replace("-", "_")
    base = _config_from_args(args, method, args.eps_list[0])
    table = read_table(args.table) if args.table else None
    if len(args.eps_list) < 3:
        raise ValueError("need at least 3 epsilon values")
    rows = sweep([method], base, args.eps_list, table=table)
    fit = sweep_fit(rows, method, "mean_steps")
    header = ["eps", "abs_ln_eps", "mean_steps", "ci95"]
    rows = [{name: r[name] for name in header} for r in rows]
    write_csv(args.csv, header, [[r[name] for name in header] for r in rows])
    _print_fit("fit", "mean_steps", fit)
    if args.json:
        write_json(
            args.json,
            {
                "schema": "exitwalk-steps-v1",
                "build": build_identifier(),
                "rng": RNG_ALGORITHM,
                "method": args.method,
                "config": asdict(base),
                "eps_list": args.eps_list,
                "rows": rows,
                "fit": _fit_fields(fit),
            },
        )
    return 0


def _cmd_timing(args) -> int:
    base = _config_from_args(args, args.methods[0], args.eps_list[0])
    table = read_table(args.table) if args.table else None
    rows = sweep(args.methods, base, args.eps_list, table=table)
    fits = {
        m.replace("_", "-"): sweep_fit(rows, m, "seconds") if len(args.eps_list) >= 3 else None
        for m in args.methods
    }
    header = ["method", "eps", "abs_ln_eps", "seconds"]
    rows = [{name: r[name] for name in header} for r in rows]
    for row in rows:
        row["method"] = row["method"].replace("_", "-")
    write_csv(args.csv, header, [[r[name] for name in header] for r in rows])
    for method, fit in fits.items():
        if fit is not None:
            _print_fit(method, "seconds", fit)
    if args.json:
        write_json(
            args.json,
            {
                "schema": "exitwalk-timing-v1",
                "build": build_identifier(),
                "rng": RNG_ALGORITHM,
                "config": asdict(base),
                "eps_list": args.eps_list,
                "rows": rows,
                "fits": {m: _fit_fields(f) for m, f in fits.items()},
            },
        )
    return 0


def _cmd_precompute(args) -> int:
    rng = RngStream(seed=args.seed, stream_id=0)
    table = precompute_table(args.count, args.dim, args.method, rng, h=args.h)
    write_table(table, args.out)
    print(
        f"wrote {table.count} tau_1 samples (dim={table.delta}, method={table.provenance}) "
        f"to {args.out}"
    )
    return 0


def _cmd_pdf1d(args) -> int:
    if args.boundary == "level":
        boundary = brownian1d.Boundary1D.constant(args.L)
    elif args.boundary == "line":
        boundary = brownian1d.Boundary1D.line(args.L, args.beta)
    else:  # general-demo: the quadratic boundary L + t^2/4
        level = args.L
        boundary = brownian1d.Boundary1D.general(
            lambda t: level + 0.25 * t * t, lambda t: 0.5 * t
        )
    t_end = 4.0 * args.L * args.L
    nodes, q1_vals, pk_vals = brownian1d.durbin_series_table(
        boundary, t_end, args.terms, args.grid
    )
    write_csv(args.out, ["t", "q1", "p_K"], list(zip(nodes, q1_vals, pk_vals)))
    print(f"wrote {len(nodes)} rows to {args.out} (boundary={args.boundary}, K={args.terms})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exitwalk",
        description="Brownian exit time and exit position simulation on spheres",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one Monte Carlo experiment")
    p_run.add_argument("--method", choices=_CLI_CHOICES, required=True)
    p_run.add_argument("--eps", type=float, default=1e-5, help="absorption shell width")
    _add_common_run_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_steps = sub.add_parser("steps", help="mean steps versus |ln eps|")
    p_steps.add_argument("--method", choices=_CLI_CHOICES, required=True)
    p_steps.add_argument("--eps-list", type=_parse_eps_list, required=True)
    _add_common_run_flags(p_steps)
    p_steps.set_defaults(func=_cmd_steps)

    p_timing = sub.add_parser("timing", help="wall seconds per method and epsilon")
    p_timing.add_argument(
        "--methods", type=_parse_methods, required=True, help="comma-separated method names"
    )
    p_timing.add_argument("--eps-list", type=_parse_eps_list, required=True)
    _add_common_run_flags(p_timing)
    p_timing.set_defaults(func=_cmd_timing)

    p_pre = sub.add_parser("precompute", help="build a tau_1 sample table")
    p_pre.add_argument("--dim", type=int, required=True)
    p_pre.add_argument("--count", type=int, required=True)
    p_pre.add_argument("--method", choices=["inversion", "euler"], required=True)
    p_pre.add_argument("--h", type=float, default=1e-5, help="Euler step for --method euler")
    p_pre.add_argument("--out", type=str, required=True)
    p_pre.add_argument("--seed", type=int, required=True)
    p_pre.set_defaults(func=_cmd_precompute)

    p_pdf = sub.add_parser("pdf1d", help="tabulate 1-D hitting densities")
    p_pdf.add_argument("--boundary", choices=["level", "line", "general-demo"], required=True)
    p_pdf.add_argument("--L", type=float, required=True)
    p_pdf.add_argument("--beta", type=float, default=0.0)
    p_pdf.add_argument("--terms", type=int, required=True)
    p_pdf.add_argument("--grid", type=int, required=True)
    p_pdf.add_argument("--out", type=str, required=True)
    p_pdf.set_defaults(func=_cmd_pdf1d)

    return parser


def main(argv=None) -> int:
    """Run one subcommand; bad input and numerical failures exit 1 with one line."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, StepBudgetError, InversionError, SeriesTruncationError) as exc:
        print(f"exitwalk: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
