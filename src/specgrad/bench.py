"""Benchmark harness: solver-by-problem runs and Dolan-More profiles.

A suite run produces one row per (solver, problem, dimension) cell, failures
included.  Per metric (NI/NF/NG), each cell's cost is divided by the best
successful cost on that problem; failed runs receive a penalty ratio of twice
the largest finite ratio in the table.  Profiles are the cumulative fraction
of problems solved within a factor tau of the best solver, evaluated on a
shared tau grid.

One :func:`emit` call per format writes the files of a command: the results,
profile and exclusion tables as CSV (floats at 17 significant digits), or
their JSON mirror under the keys ``results`` and ``profiles``.
Cells run one after another in sorted (solver, problem, dim) order; a thread
pool only made suites slower, since the solver holds the GIL.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .directions import METHODS, ORDER_METHODS
from .problems import family_names, problem
from .secant import SecantParams
from .solver import CONVERGED, EVAL_ERROR, RunResult, default_config, minimize

METRICS = ("ni", "nf", "ng")
RESULT_FIELDS = ("solver", "problem", "dim", "status", "ni", "nf", "ng", "f_final", "gnorm_inf")


@dataclass(frozen=True)
class SolverSpec:
    """A benchmark solver id: direction method plus secant order where relevant."""

    method: str
    m: float = 3

    @property
    def label(self) -> str:
        if self.method in ORDER_METHODS:
            return f"{self.method}:m={self.m:g}"
        return self.method

    @classmethod
    def parse(cls, text: str) -> "SolverSpec":
        """Parse ids like ``dk``, ``jian``, ``scgmmwls:m=3`` or ``m2:m=inf``."""
        name, _, opts = text.strip().partition(":")
        name = name.strip().lower()
        m = 3.0
        if opts:
            key, _, value = opts.partition("=")
            if key.strip() != "m":
                raise ValueError(f"unknown solver option '{opts}' in '{text}'")
            if name in METHODS and name not in ORDER_METHODS:
                valid = " and ".join(ORDER_METHODS)
                raise ValueError(f"an order suffix is only valid on {valid}, got '{text}'")
            m = math.inf if value.strip() in ("inf", "infinity") else float(value)
        if math.isfinite(m) and m == int(m):
            m = int(m)
        SecantParams(m=m)  # the order check every config makes: ValueError here, before any run
        return cls(method=name, m=m)

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


def suite_cells(solvers, problems=None, dims=(100,), **config_overrides) -> list[tuple]:
    """The sorted (label, problem, dim, config) cells of a suite, checked before
    any run: each config is built and each (problem, dim) instantiated once and
    dropped, so bad input raises ``ValueError``/``KeyError`` here."""
    specs = [SolverSpec.parse(s) if isinstance(s, str) else s for s in solvers]
    names = family_names() if problems in (None, "all") else list(problems)
    if not specs or not names or not dims:
        raise ValueError("solvers, problems and dims must all be nonempty")
    cells = sorted((s.label, name, int(d)) for s in specs for name in names for d in dims)
    if len(set(cells)) != len(cells):
        raise ValueError("duplicate (solver, problem, dim) cells requested")
    configs = {s.label: s.config(**config_overrides) for s in specs}
    for name in names:
        for d in dims:
            problem(name, int(d))
    return [(label, name, dim, configs[label]) for label, name, dim in cells]


def run_suite(solvers, problems=None, dims=(100,), **config_overrides) -> ResultTable:
    """One run per (solver, problem, dim); failures are recorded, never dropped."""
    rows = [
        ResultRow(label, name, dim, minimize(problem(name, dim), cfg))
        for label, name, dim, cfg in suite_cells(solvers, problems, dims, **config_overrides)
    ]
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
                value = getattr(row.result, metric)
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
                value = getattr(row.result, metric)
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


def _csv_line(values) -> str:
    return ",".join("%.17g" % v if isinstance(v, float) else str(v) for v in values)


def _result_record(row: ResultRow) -> dict:
    r = row.result
    values = (
        row.solver, row.problem, row.dim, r.status, r.ni, r.nf, r.ng, r.f_final, r.gnorm_inf_final
    )
    return dict(zip(RESULT_FIELDS, values))


def emit(table: ResultTable, curves, fmt: str, prefix, *, excluded=None) -> list[Path]:
    """Write the files of one format under ``prefix``.

    ``fmt="csv"`` writes ``results.csv``; ``curves``, the :class:`ProfileCurve`
    list of every profiled metric, adds one ``profile_<METRIC>.csv`` per metric,
    and ``excluded``, a list of ``(METRIC, problem)`` pairs, adds
    ``excluded.csv``, header-only when the list is empty.  ``fmt="json"``
    writes ``results.json`` with the same tables under ``results`` and
    ``profiles``.  ``curves`` is ``None`` to emit results only.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got '{fmt}'")
    if excluded is not None and fmt != "csv":
        raise ValueError("excluded.csv is written with fmt='csv'")
    prefix = Path(prefix)
    records = [_result_record(row) for row in table.rows]
    tables = {"results": (RESULT_FIELDS, [r.values() for r in records])}
    grouped: dict[str, list[ProfileCurve]] = {}
    for c in curves or ():
        grouped.setdefault(c.metric.upper(), []).append(c)
    profiles = {}
    for metric, mc in sorted(grouped.items()):
        tau = [p[0] for p in mc[0].points]
        solvers = {c.solver: [p[1] for p in c.points] for c in mc}
        profiles[metric] = {"tau": tau, "solvers": solvers}
        tables[f"profile_{metric}"] = (["tau", *solvers], zip(tau, *solvers.values()))
    if excluded is not None:
        tables["excluded"] = (("metric", "problem"), excluded)
    try:
        prefix.mkdir(parents=True, exist_ok=True)
        if fmt == "json":
            path = prefix / "results.json"
            path.write_text(json.dumps({"results": records, "profiles": profiles}, indent=1) + "\n")
            return [path]
        written = []
        for name, (header, rows) in tables.items():
            path = prefix / f"{name}.csv"
            path.write_text("\n".join([",".join(header)] + [_csv_line(r) for r in rows]) + "\n")
            written.append(path)
        return written
    except OSError as exc:
        raise OSError(f"while writing benchmark output under '{prefix}': {exc}") from exc


def load_results(prefix) -> ResultTable:
    """Rebuild a result table from the ``results.json`` of an emitted directory."""
    json_path = Path(prefix) / "results.json"
    if not json_path.exists():
        raise FileNotFoundError(f"no results.json under '{prefix}'")
    rows = [
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
        for rec in json.loads(json_path.read_text())["results"]
    ]
    return ResultTable(rows)


def had_eval_error(table: ResultTable) -> bool:
    return any(row.result.status == EVAL_ERROR for row in table.rows)
