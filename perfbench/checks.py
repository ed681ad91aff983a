"""Output checks on what the ``bench`` command wrote and printed.

Every check returns a list of violation messages; an empty list means the
output passed.  The checks read only public outputs: the files ``bench run``
and ``bench profile`` emit, the status line ``bench trace`` prints, and the
exit codes.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

from specgrad.bench import load_results

STATUSES = frozenset({"converged", "iter_limit", "linesearch_failure", "eval_error"})
EVAL_ERROR = "eval_error"


@dataclass(frozen=True)
class Cell:
    """The outcome of one (solver, problem, dim) run as the command reported it."""

    solver: str
    problem: str
    dim: int
    status: str
    ni: int
    nf: int
    ng: int
    gnorm_inf: float


def fingerprint(cells) -> tuple:
    """Per-cell (status, ni, nf): what must repeat exactly between repetitions."""
    return tuple(sorted((c.solver, c.problem, c.dim, c.status, c.ni, c.nf) for c in cells))


def check_cells(cells, *, eps: float, budget: int, expected) -> list[str]:
    """Statuses, the convergence tolerance, nf == ng and the budget, cell by cell."""
    out = []
    got = sorted((c.solver, c.problem, c.dim) for c in cells)
    if got != sorted(expected):
        out.append(f"reported cells {got} differ from the requested grid {sorted(expected)}")
    for c in cells:
        tag = f"{c.solver}/{c.problem}/n={c.dim}"
        if c.status not in STATUSES:
            out.append(f"{tag}: unknown status '{c.status}'")
        if c.status == "converged" and not c.gnorm_inf <= eps:
            out.append(f"{tag}: converged with gnorm_inf {c.gnorm_inf!r} > eps {eps!r}")
        if c.nf != c.ng:
            out.append(f"{tag}: nf {c.nf} != ng {c.ng}")
        if not 0 <= c.ni <= budget:
            out.append(f"{tag}: ni {c.ni} outside [0, budget {budget}]")
    return out


def check_exit_code(rc, cells, what: str) -> list[str]:
    """The command exits 1 exactly when some cell hit an evaluation error, else 0."""
    want = 1 if any(c.status == EVAL_ERROR for c in cells) else 0
    if rc != want:
        return [f"{what}: exit code {rc!r}, expected {want}"]
    return []


def load_cells(run_dir) -> list[Cell]:
    """Cells of an emitted run, read back through ``specgrad.bench.load_results``."""
    return [
        Cell(
            row.solver,
            row.problem,
            row.dim,
            row.result.status,
            row.result.ni,
            row.result.nf,
            row.result.ng,
            row.result.gnorm_inf_final,
        )
        for row in load_results(run_dir).rows
    ]


def _same_float(a: float, b: float) -> bool:
    return a.hex() == b.hex() or (math.isnan(a) and math.isnan(b))


def check_reload(run_dir) -> list[str]:
    """``results.json`` reloads through ``load_results`` bit-identical to ``results.csv``.

    The CSV carries 17 significant digits, so it is an independent exact copy
    of every value; it is parsed here without the package's own reader.
    """
    run_dir = Path(run_dir)
    table = load_results(run_dir)
    with open(run_dir / "results.csv", newline="") as fh:
        records = list(csv.DictReader(fh))
    if len(records) != len(table.rows):
        return [f"results.json has {len(table.rows)} rows, results.csv {len(records)}"]
    out = []
    for row, rec in zip(table.rows, records):
        r = row.result
        mine = (row.solver, row.problem, row.dim, r.status, r.ni, r.nf, r.ng)
        theirs = (
            rec["solver"],
            rec["problem"],
            int(rec["dim"]),
            rec["status"],
            int(rec["ni"]),
            int(rec["nf"]),
            int(rec["ng"]),
        )
        floats = [(r.f_final, float(rec["f_final"])), (r.gnorm_inf_final, float(rec["gnorm_inf"]))]
        if mine != theirs or not all(_same_float(a, b) for a, b in floats):
            out.append(f"{row.solver}/{row.problem}/n={row.dim}: results.json {mine} != results.csv {theirs}")
    return out


def check_same_results(dir_a, dir_b) -> list[str]:
    """Two emitted result tables hold the same rows, floats compared bit for bit."""
    a = json.loads((Path(dir_a) / "results.json").read_text())["results"]
    b = json.loads((Path(dir_b) / "results.json").read_text())["results"]

    def key(rec):
        return tuple(v.hex() if isinstance(v, float) else v for v in rec.values())

    if [key(r) for r in a] != [key(r) for r in b]:
        return [f"results under {dir_a} and {dir_b} differ"]
    return []


def check_profiles(prof_dir, solvers) -> list[str]:
    """Each profile curve is defined on an ascending tau grid from 1, lies in
    [0, 1] and never decreases."""
    doc = json.loads((Path(prof_dir) / "results.json").read_text())
    out = []
    for metric in ("NI", "NF", "NG"):
        prof = doc["profiles"].get(metric)
        if prof is None:
            out.append(f"profile {metric} missing")
            continue
        tau = prof["tau"]
        if not tau or tau[0] != 1.0 or any(a > b for a, b in zip(tau, tau[1:])):
            out.append(f"profile {metric}: tau grid is not ascending from 1")
        if sorted(prof["solvers"]) != sorted(solvers):
            out.append(f"profile {metric}: solvers {sorted(prof['solvers'])} != {sorted(solvers)}")
        for solver, values in prof["solvers"].items():
            if len(values) != len(tau):
                out.append(f"profile {metric}/{solver}: {len(values)} points for {len(tau)} taus")
            if any(not 0.0 <= v <= 1.0 for v in values):
                out.append(f"profile {metric}/{solver}: a value lies outside [0, 1]")
            if any(a > b for a, b in zip(values, values[1:])):
                out.append(f"profile {metric}/{solver}: curve decreases")
    return out


_STATUS_LINE = re.compile(
    r"^status=(?P<status>\S+) ni=(?P<ni>\d+) nf=(?P<nf>\d+) ng=(?P<ng>\d+) gnorm=(?P<gnorm>\S+)$"
)


def parse_trace_output(text: str, solver: str, problem: str, dim: int, rows_wanted: int):
    """The cell a ``bench trace`` call reports on its last line, plus violations
    of the printed table's shape (one row per accepted step, up to ``rows_wanted``)."""
    lines = text.strip().splitlines()
    match = _STATUS_LINE.match(lines[-1]) if lines else None
    if match is None:
        return None, [f"trace {solver}/{problem}/n={dim}: no status line in output"]
    cell = Cell(
        solver,
        problem,
        dim,
        match["status"],
        int(match["ni"]),
        int(match["nf"]),
        int(match["ng"]),
        float(match["gnorm"]),
    )
    table_rows = len(lines) - 2  # header and status line
    if table_rows != min(rows_wanted, cell.ni):
        return cell, [f"trace {solver}/{problem}/n={dim}: {table_rows} table rows for ni={cell.ni}"]
    return cell, []
