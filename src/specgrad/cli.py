"""Command-line benchmark driver (installed as ``bench``).

Subcommands:

* ``bench run``      run solvers x problems x dims, emit results.csv/.json
* ``bench profile``  compute performance profiles from an emitted run, plus
  ``excluded.csv`` (the problems no solver solved; header-only if none)
* ``bench trace``    print the first ``TRACE_ROWS`` rows of the
  per-iteration table for one run: the step's mu, t, alpha and f, then the
  update's beta and theta and its flags (``R`` restart, ``B`` beta floored
  at beta_R, ``T`` theta truncated, ``-`` none)

Exit code is 0 iff no evaluation error occurred; 2 for a bad argument (a
solver id, option, problem name or dimension no run could use, a cell named
twice, an ``--out`` that cannot be made a directory, or a ``profile --in``
directory without a readable, well-formed and nonempty ``results.json``),
found before any run or write, and for an output file that cannot be
written, found after the run.
"""

from __future__ import annotations

import argparse
import sys
from itertools import compress
from pathlib import Path

from .bench import (
    METRICS,
    emit,
    had_eval_error,
    load_results,
    performance_profile,
    performance_ratios,
    run_suite,
    suite_cells,
)
from .problems import problem
from .solver import EVAL_ERROR, SolverConfig, default_config, minimize

TRACE_ROWS = 24  # rows of the table ``bench trace`` prints


def _parse_list(text: str) -> list[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def _add_solver_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eps", type=float, default=SolverConfig.epsilon, help="gradient tolerance (inf-norm)")
    p.add_argument("--max-iter", type=int, default=SolverConfig.max_iter, help="iteration budget")


def _solver_options(args) -> dict:
    return {"epsilon": args.eps, "max_iter": args.max_iter}


def _cmd_run(args, parser) -> int:
    options = _solver_options(args)
    try:
        solvers = _parse_list(args.solvers)
        names = "all" if args.problems.strip() == "all" else _parse_list(args.problems)
        dims = [int(d) for d in _parse_list(args.dims)]
        suite_cells(solvers, names, dims, **options)
        Path(args.out).mkdir(parents=True, exist_ok=True)
    except (ValueError, KeyError) as exc:
        parser.error(exc.args[0])  # a KeyError's str() would add quotes
    except OSError as exc:
        parser.error(str(exc))
    table = run_suite(solvers, names, dims, **options)
    try:
        emit(table, None, "csv", args.out)
        emit(table, None, "json", args.out)
    except OSError as exc:  # found after the run, so no usage line
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    for row in table.rows:
        r = row.result
        print(
            f"{row.solver:<18} {row.problem:<16} n={row.dim:<6} {r.status:<19} "
            f"ni={r.ni:<6} nf={r.nf:<6} f={r.f_final:.6e} gnorm={r.gnorm_inf_final:.3e}"
        )
    print(f"wrote results for {len(table.rows)} runs to {args.out}")
    return 1 if had_eval_error(table) else 0


def _cmd_profile(args, parser) -> int:
    try:
        table = load_results(args.in_dir)
        if not table.rows:
            raise ValueError("no result rows")
        Path(args.out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        parser.error(str(exc))
    except (ValueError, KeyError, TypeError) as exc:  # not JSON, or not a result table
        parser.error(f"malformed results.json in '{args.in_dir}': {exc!r}")
    profiles, excluded = [], []
    for metric in METRICS:
        ratio_set = performance_ratios(table, metric)
        profile = performance_profile(ratio_set)
        profiles.append(profile)
        if ratio_set.excluded:
            print(f"[{metric}] excluded (no solver succeeded): {', '.join(ratio_set.excluded)}")
            excluded.extend((metric.upper(), p) for p in ratio_set.excluded)
        # Every profile grid starts at tau = 1, so point 0 is rho(1).
        for solver, rho in profile.rho.items():
            print(f"[{metric}] rho(1) {solver} = {rho[0]:.3f}")
    # excluded.csv is written even when empty, so a reused --out never keeps
    # an earlier run's exclusions.
    try:
        emit(table, profiles, "csv", args.out, excluded=excluded)
        emit(table, profiles, "json", args.out)
    except OSError as exc:  # found after the profiles are computed, so no usage line
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    print(f"wrote exclusion report ({len(excluded)} entries) to {Path(args.out) / 'excluded.csv'}")
    print(f"wrote profiles for metrics {', '.join(m.upper() for m in METRICS)} to {args.out}")
    return 1 if had_eval_error(table) else 0


def _cmd_trace(args, parser) -> int:
    try:
        cfg = default_config(args.solver, **_solver_options(args), trace_level="full")
        prob = problem(args.problem, args.dim)
    except (ValueError, KeyError) as exc:
        parser.error(exc.args[0])
    result = minimize(prob, cfg)
    records = result.trace[:TRACE_ROWS]
    print(f"{'iteration':>10} {'mu':>14} {'t':>14} {'alpha':>12} {'f':>14} "
          f"{'beta':>12} {'theta':>12} {'flags':>5}")
    for k, rec in enumerate(records, 1):
        flags = "".join(compress("RBT", (rec.restart, rec.truncated_beta, rec.truncated_theta))) or "-"
        print(f"{k:>10} {rec.mu:>14.3E} {rec.t:>14.3E} {rec.alpha:>12.3E} {rec.f:>14.6E} "
              f"{rec.beta:>12.3E} {rec.theta:>12.3E} {flags:>5}")
    print(
        f"status={result.status} ni={result.ni} nf={result.nf} ng={result.ng} "
        f"gnorm={result.gnorm_inf_final:.3e}"
    )
    return 1 if result.status == EVAL_ERROR else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench",
        description="Spectral CG benchmark harness: run suites, build performance profiles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a suite of solvers over test problems")
    p_run.add_argument(
        "--solvers",
        default="scgmmwls:m=3,dk,jian,m2:m=3",
        help="comma list, e.g. scgmmwls:m=3,dk,jian,m2:m=3 (m may be 'inf')",
    )
    p_run.add_argument("--problems", default="all", help="'all' or a comma list of names")
    p_run.add_argument("--dims", default="100", help="comma list of dimensions")
    _add_solver_options(p_run)
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.set_defaults(func=_cmd_run)

    p_prof = sub.add_parser("profile", help="compute Dolan-More profiles from a finished run")
    p_prof.add_argument("--in", dest="in_dir", required=True, help="directory written by 'run'")
    p_prof.add_argument("--out", required=True, help="output directory")
    p_prof.set_defaults(func=_cmd_profile)

    p_trace = sub.add_parser("trace", help="print the per-iteration trace of a single run")
    p_trace.add_argument("--problem", required=True)
    p_trace.add_argument("--dim", type=int, default=1000)
    p_trace.add_argument("--solver", default="scgmmwls:m=3")
    _add_solver_options(p_trace)
    p_trace.set_defaults(func=_cmd_trace)

    args = parser.parse_args(argv)
    return args.func(args, sub.choices[args.command])


if __name__ == "__main__":
    sys.exit(main())
