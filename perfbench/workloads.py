"""The benchmark's workloads and one timed pass of each.

A pass drives the public ``bench`` command in-process (``specgrad.cli.main``
with stdout captured), one call after another, so each workload is a closed
loop with a single caller.  The timed section is exactly those calls; the
output checks run after it.

Every workload uses the paper's defaults: the four solvers below,
eps = 1e-8 in the infinity norm, and all twelve problem families.  The
seed moves the dimension: seed k runs at n + 2 (k mod 16), which keeps the
paired families even and the workload in its size regime, and gives
held-out trajectories through the unchanged command line.
"""

from __future__ import annotations

import contextlib
import io
import time
from dataclasses import dataclass
from pathlib import Path

import specgrad.cli

from checks import (
    check_cells,
    check_exit_code,
    check_profiles,
    check_reload,
    check_same_results,
    load_cells,
    parse_trace_output,
)

SOLVERS = ("scgmmwls:m=3", "dk", "jian", "m2:m=3")
FAMILIES = (
    "arwhead",
    "ext_rosenbrock",
    "ext_white_holst",
    "ext_beale",
    "diagonal1",
    "raydan1",
    "eg2",
    "engval1",
    "fletchcr",
    "nondquar",
    "ext_himmelblau",
    "qf1",
)
EPS = 1e-8
SEED_PERIOD = 16
TRACE_ROWS = 24  # rows ``bench trace`` prints by default


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "suite": bench run + bench profile; "trace": one bench trace per cell
    base_dim: int
    budget: int  # --max-iter; BENCHMARK.json states it in the workload's why

    def dim(self, seed: int) -> int:
        return self.base_dim + 2 * (seed % SEED_PERIOD)

    def cells(self, dim: int) -> list[tuple[str, str, int]]:
        return [(s, p, dim) for s in SOLVERS for p in FAMILIES]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("suite-n100", "suite", 100, 10000),
        Workload("suite-n10000", "suite", 10000, 500),
        Workload("trace-n1000", "trace", 1000, 2000),
    )
}


@dataclass
class PassResult:
    wall_s: float
    cells: list
    violations: list[str]


def _call(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = specgrad.cli.main(argv)
    return rc, buf.getvalue()


def run_pass(wl: Workload, dim: int, out_dir: Path) -> PassResult:
    """One timed pass of ``wl`` at ``dim``, then the checks on its outputs."""
    common = ["--eps", repr(EPS), "--max-iter", str(wl.budget)]
    if wl.kind == "suite":
        run_dir, prof_dir = str(out_dir / "run"), str(out_dir / "profile")
        t0 = time.perf_counter()
        run_rc, _ = _call(
            ["run", "--solvers", ",".join(SOLVERS), "--problems", ",".join(FAMILIES),
             "--dims", str(dim), *common, "--out", run_dir]
        )
        prof_rc, _ = _call(["profile", "--in", run_dir, "--out", prof_dir])
        wall = time.perf_counter() - t0
        cells = load_cells(run_dir)
        violations = check_cells(cells, eps=EPS, budget=wl.budget, expected=wl.cells(dim))
        violations += check_exit_code(run_rc, cells, "bench run")
        violations += check_exit_code(prof_rc, cells, "bench profile")
        violations += check_reload(run_dir)
        violations += check_same_results(run_dir, prof_dir)
        violations += check_profiles(prof_dir, SOLVERS)
        return PassResult(wall, cells, violations)

    outputs = []
    t0 = time.perf_counter()
    for solver, problem, _ in wl.cells(dim):
        rc, text = _call(
            ["trace", "--problem", problem, "--dim", str(dim), "--solver", solver, *common]
        )
        outputs.append((solver, problem, rc, text))
    wall = time.perf_counter() - t0
    cells, violations = [], []
    for solver, problem, rc, text in outputs:
        cell, bad = parse_trace_output(text, solver, problem, dim, TRACE_ROWS)
        violations += bad
        if cell is not None:
            cells.append(cell)
            violations += check_exit_code(rc, [cell], f"bench trace {solver}/{problem}")
    violations += check_cells(cells, eps=EPS, budget=wl.budget, expected=wl.cells(dim))
    return PassResult(wall, cells, violations)
