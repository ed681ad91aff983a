"""Benchmark harness: solver-by-problem runs and Dolan-More profiles.

A suite run produces one row per (solver, problem, dimension) cell, failures
included.  Per metric (NI/NF/NG), each cell's cost is divided by the best
successful cost on that problem; failed runs receive a penalty ratio of twice
the largest finite ratio in the table.  Profiles are the cumulative fraction
of problems solved within a factor tau of the best solver, evaluated on a
shared tau grid.

Results and profile tables are emitted as CSV (floats at 17 significant
digits) and as a JSON mirror under the keys ``results`` and ``profiles``.
Cells run one after another in sorted (solver, problem, dim) order; a thread
pool only made suites slower, since the solver holds the GIL.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .problems import family_names, problem
from .solver import CONVERGED, EVAL_ERROR, RunResult, default_config, minimize

METRICS = ("ni", "nf", "ng")


@dataclass(frozen=True)
class SolverSpec:
    """A benchmark solver id: direction method plus secant order where relevant."""

    method: str
    m: float = 3

    @property
    def label(self) -> str:
        if self.method in ("scgmmwls", "m2"):
            return f"{self.method}:m={self.m:g}"
        return self.method

    @classmethod
    def parse(cls, text: str) -> "SolverSpec":
        """Parse ids like ``dk``, ``jian``, ``scgmmwls:m=3`` or ``m2:m=inf``."""
        name, _, opts = text.strip().partition(":")
        m = 3.0
        if opts:
            key, _, value = opts.partition("=")
            if key.strip() != "m":
                raise ValueError(f"unknown solver option '{opts}' in '{text}'")
            m = math.inf if value.strip() in ("inf", "infinity") else float(value)
        if not m == math.inf and m == int(m):
            m = int(m)
        return cls(method=name.strip().lower(), m=m)

    def config(self, **overrides):
        return default_config(method=self.method, m=self.m, **overrides)


@dataclass
class ResultRow:
    solver: str
    problem: str
    dim: int
    result: RunResult


@dataclass
class ResultTable:
    rows: list[ResultRow]

    def metric(self, row: ResultRow, name: str) -> int:
        return getattr(row.result, name)


@dataclass
class ProfileCurve:
    solver: str
    metric: str
    points: list[tuple[float, float]]


@dataclass
class RatioSet:
    metric: str
    solvers: list[str]
    problems: list[str]
    excluded: list[str]
    ratios: dict[tuple[str, str], float]
    r_fail: float


def run_suite(solvers, problems=None, dims=(100,), **config_overrides) -> ResultTable:
    """One run per (solver, problem, dim); failures are recorded, never dropped."""
    specs = [SolverSpec.parse(s) if isinstance(s, str) else s for s in solvers]
    names = family_names() if problems in (None, "all") else list(problems)
    if not specs or not names or not dims:
        raise ValueError("solvers, problems and dims must all be nonempty")
    cells = sorted((s.label, name, int(d)) for s in specs for name in names for d in dims)
    if len(set(cells)) != len(cells):
        raise ValueError("duplicate (solver, problem, dim) cells requested")
    by_label = {s.label: s for s in specs}

    rows = []
    for label, name, dim in cells:
        cfg = by_label[label].config(**config_overrides)
        rows.append(ResultRow(label, name, dim, minimize(problem(name, dim), cfg)))
    return ResultTable(rows)


def performance_ratios(table: ResultTable, metric: str) -> RatioSet:
    """Per-problem cost ratios relative to the best successful solver."""
    metric = metric.lower()
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}, got '{metric}'")
    if not table.rows:
        raise ValueError("empty result table")

    solvers = sorted({r.solver for r in table.rows})
    keys = sorted({(r.problem, r.dim) for r in table.rows})
    cells = {(r.solver, r.problem, r.dim): r for r in table.rows}

    included: list[str] = []
    excluded: list[str] = []
    raw: dict[tuple[str, str], float | None] = {}
    for name, dim in keys:
        key = f"{name}:{dim}"
        best = None
        for s in solvers:
            row = cells.get((s, name, dim))
            if row is not None and row.result.status == CONVERGED:
                value = table.metric(row, metric)
                best = value if best is None else min(best, value)
        if best is None:
            excluded.append(key)
            continue
        included.append(key)
        for s in solvers:
            row = cells.get((s, name, dim))
            if row is None or row.result.status != CONVERGED:
                raw[(s, key)] = None
            else:
                value = table.metric(row, metric)
                ratio = 1.0 if value == best else value / best
                raw[(s, key)] = ratio if math.isfinite(ratio) else None

    finite = [v for v in raw.values() if v is not None]
    r_fail = 2.0 * max(finite) if finite else 2.0
    ratios = {k: (v if v is not None else r_fail) for k, v in raw.items()}
    return RatioSet(metric, solvers, included, excluded, ratios, r_fail)


def default_grid(r_fail: float, points: int = 200) -> list[float]:
    if r_fail <= 1.0:
        return [1.0]
    return [float(t) for t in np.geomspace(1.0, r_fail, points)]


def performance_profile(ratio_set: RatioSet, grid=None) -> list[ProfileCurve]:
    """Cumulative distribution of the ratios on a shared tau grid."""
    if grid is None:
        grid = default_grid(ratio_set.r_fail)
    grid = [float(t) for t in grid]
    if not grid or grid[0] != 1.0 or any(a > b for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be sorted ascending and start at 1")
    n_p = len(ratio_set.problems)
    curves = []
    for s in ratio_set.solvers:
        values = sorted(ratio_set.ratios[(s, p)] for p in ratio_set.problems)
        points = []
        for tau in grid:
            count = sum(1 for v in values if v <= tau)
            points.append((tau, count / n_p if n_p else 0.0))
        curves.append(ProfileCurve(solver=s, metric=ratio_set.metric, points=points))
    return curves


def _fmt(x: float) -> str:
    return "%.17g" % x


def _result_record(row: ResultRow) -> dict:
    return {
        "solver": row.solver,
        "problem": row.problem,
        "dim": row.dim,
        "status": row.result.status,
        "ni": row.result.ni,
        "nf": row.result.nf,
        "ng": row.result.ng,
        "f_final": row.result.f_final,
        "gnorm_inf": row.result.gnorm_inf_final,
    }


def _group_curves(curves) -> dict[str, list[ProfileCurve]]:
    if curves is None:
        return {}
    if isinstance(curves, dict):
        return {m.upper(): list(cs) for m, cs in curves.items()}
    grouped: dict[str, list[ProfileCurve]] = {}
    for c in curves:
        grouped.setdefault(c.metric.upper(), []).append(c)
    if not grouped:
        grouped = {m.upper(): [] for m in METRICS}
    return grouped


def emit(table: ResultTable, curves, fmt: str, prefix) -> list[Path]:
    """Write ``results`` and ``profile_<METRIC>`` files under ``prefix``.

    ``curves`` may be a flat list of :class:`ProfileCurve`, a mapping from
    metric name to curves, or ``None`` to emit results only.  An empty list
    emits header-only profile files for all three metrics.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got '{fmt}'")
    prefix = Path(prefix)
    try:
        prefix.mkdir(parents=True, exist_ok=True)
        grouped = _group_curves(curves)
        written: list[Path] = []
        if fmt == "csv":
            path = prefix / "results.csv"
            lines = ["solver,problem,dim,status,ni,nf,ng,f_final,gnorm_inf"]
            for row in table.rows:
                r = row.result
                lines.append(
                    f"{row.solver},{row.problem},{row.dim},{r.status},"
                    f"{r.ni},{r.nf},{r.ng},{_fmt(r.f_final)},{_fmt(r.gnorm_inf_final)}"
                )
            path.write_text("\n".join(lines) + "\n")
            written.append(path)
            for metric, metric_curves in sorted(grouped.items()):
                path = prefix / f"profile_{metric}.csv"
                solvers = [c.solver for c in metric_curves]
                lines = [",".join(["tau"] + solvers)]
                if metric_curves:
                    for i, (tau, _) in enumerate(metric_curves[0].points):
                        vals = [_fmt(tau)] + [_fmt(c.points[i][1]) for c in metric_curves]
                        lines.append(",".join(vals))
                path.write_text("\n".join(lines) + "\n")
                written.append(path)
        else:
            doc = {
                "results": [_result_record(row) for row in table.rows],
                "profiles": {
                    metric: {
                        "tau": [p[0] for p in (mc[0].points if mc else [])],
                        "solvers": {c.solver: [p[1] for p in c.points] for c in mc},
                    }
                    for metric, mc in sorted(grouped.items())
                },
            }
            path = prefix / "results.json"
            path.write_text(json.dumps(doc, indent=1) + "\n")
            written.append(path)
        return written
    except OSError as exc:
        raise OSError(f"while writing benchmark output under '{prefix}': {exc}") from exc


def load_results(prefix) -> ResultTable:
    """Rebuild a result table from an emitted directory (JSON preferred)."""
    prefix = Path(prefix)
    json_path = prefix / "results.json"
    rows: list[ResultRow] = []
    if json_path.exists():
        doc = json.loads(json_path.read_text())
        records = doc["results"]
        for rec in records:
            rows.append(
                ResultRow(
                    rec["solver"],
                    rec["problem"],
                    int(rec["dim"]),
                    RunResult(
                        status=rec["status"],
                        ni=int(rec["ni"]),
                        nf=int(rec["nf"]),
                        ng=int(rec["ng"]),
                        f_final=float(rec["f_final"]),
                        gnorm_inf_final=float(rec["gnorm_inf"]),
                    ),
                )
            )
        return ResultTable(rows)
    csv_path = prefix / "results.csv"
    if not csv_path.exists():
        raise FileNotFoundError(f"no results.json or results.csv under '{prefix}'")
    lines = csv_path.read_text().strip().splitlines()
    for line in lines[1:]:
        solver, name, dim, status, ni, nf, ng, f_final, gnorm = line.split(",")
        rows.append(
            ResultRow(
                solver,
                name,
                int(dim),
                RunResult(status, int(ni), int(nf), int(ng), float(f_final), float(gnorm)),
            )
        )
    return ResultTable(rows)


def had_eval_error(table: ResultTable) -> bool:
    return any(row.result.status == EVAL_ERROR for row in table.rows)
