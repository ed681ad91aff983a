"""Benchmark harness: solver-by-problem runs and Dolan-More profiles.

A suite run produces one row per (solver, problem, dimension) cell, failures
included.  Per metric (NI/NF/NG), each cell's cost is divided by the best
successful cost on that problem; failed runs receive a penalty ratio of twice
the largest finite ratio in the table.  A metric's :class:`Profile` holds,
on one tau grid, each solver's cumulative fraction of problems solved within
a factor tau of the best solver.

One :func:`emit` call per format writes the files of a command: the results
table, one profile table per metric and the exclusion table as CSV (floats at
17 significant digits), or their JSON mirror under the keys ``results`` and
``profiles``.
Cells run one after another in sorted (solver, problem, dim) order; a thread
pool only made suites slower, since the solver holds the GIL.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .problems import family_names, problem
from .solver import CONVERGED, EVAL_ERROR, STATUSES, RunResult, default_config, minimize

METRICS = ("ni", "nf", "ng")
RESULT_FIELDS = ("solver", "problem", "dim", "status", "ni", "nf", "ng", "f_final", "gnorm_inf")
# The JSON type of each field in results.json; a float field also takes an
# integer, and NaN (an eval_error row's f_final), but no bool.
_FIELD_TYPES = dict(zip(RESULT_FIELDS, (str, str, int, str, int, int, int, float, float)))
_TYPE_NAMES = {str: "a string", int: "an integer", float: "a number"}


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
class Profile:
    """One metric's profile: ``rho[solver][i]`` is the fraction of problems the
    solver solves within a factor ``tau[i]`` of the best."""

    metric: str
    tau: list[float]
    rho: dict[str, list[float]]

    def __post_init__(self) -> None:
        if any(len(values) != len(self.tau) for values in self.rho.values()):
            raise ValueError("each solver's rho needs one value per tau")


@dataclass
class RatioSet:
    metric: str
    solvers: list[str]
    problems: list[str]
    excluded: list[str]
    ratios: dict[tuple[str, str], float]
    r_fail: float


def suite_cells(solvers, problems, dims, **config_overrides) -> list[tuple]:
    """The sorted (label, problem, dim, config) cells of a suite, checked before
    any run: each solver id's config is built and each (problem, dim)
    instantiated once and dropped, so bad input raises ``ValueError``/``KeyError``
    here.  Cells are keyed by ``config.direction.label`` and ``Problem.name``."""
    names = family_names() if problems == "all" else list(problems)
    if not solvers or not names or not dims:
        raise ValueError("solvers, problems and dims must all be nonempty")
    configs = [default_config(s, **config_overrides) for s in solvers]
    keys = [(problem(name, int(d)).name, int(d)) for name in names for d in dims]
    cells = sorted((c.direction.label, name, dim) for c in configs for name, dim in keys)
    if len(set(cells)) != len(cells):
        raise ValueError("duplicate (solver, problem, dim) cells requested")
    by_label = {c.direction.label: c for c in configs}
    return [(label, name, dim, by_label[label]) for label, name, dim in cells]


def run_suite(solvers, problems, dims, **config_overrides) -> ResultTable:
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
    solved: dict[tuple[str, int], dict[str, int]] = {}  # converged costs per problem
    for r in table.rows:
        costs = solved.setdefault((r.problem, r.dim), {})
        if r.result.status == CONVERGED:
            costs[r.solver] = getattr(r.result, metric)

    included: list[str] = []
    excluded: list[str] = []
    raw: dict[tuple[str, str], float] = {}
    for (name, dim), costs in sorted(solved.items()):
        key = f"{name}:{dim}"
        if not costs:
            excluded.append(key)
            continue
        included.append(key)
        best = min(costs.values())
        for s in solvers:
            value = costs.get(s, math.inf)  # a failed run has no finite ratio
            raw[(s, key)] = 1.0 if value == best else (value / best if best else math.inf)

    finite = [v for v in raw.values() if math.isfinite(v)]
    r_fail = 2.0 * max(finite) if finite else 2.0
    ratios = {k: (v if math.isfinite(v) else r_fail) for k, v in raw.items()}
    return RatioSet(metric, solvers, included, excluded, ratios, r_fail)


def performance_profile(ratio_set: RatioSet) -> Profile:
    """Cumulative distribution of the ratios on a tau grid of 200 points spaced
    geometrically from 1 to the failure ratio."""
    tau = [float(t) for t in np.geomspace(1.0, ratio_set.r_fail, 200)]
    n_p = len(ratio_set.problems)
    rho = {}
    for s in ratio_set.solvers:
        values = sorted(ratio_set.ratios[(s, p)] for p in ratio_set.problems)
        rho[s] = [bisect_right(values, t) / n_p if n_p else 0.0 for t in tau]
    return Profile(ratio_set.metric, tau, rho)


def _csv_line(values) -> str:
    return ",".join("%.17g" % v if isinstance(v, float) else str(v) for v in values)


def _result_record(row: ResultRow) -> dict:
    r = row.result
    values = (
        row.solver, row.problem, row.dim, r.status, r.ni, r.nf, r.ng, r.f_final, r.gnorm_inf_final
    )
    return dict(zip(RESULT_FIELDS, values))


def emit(table: ResultTable, profiles: list[Profile] | None, fmt: str, prefix, *, excluded=None) -> None:
    """Write the files of one format under ``prefix``, and return nothing.

    ``fmt="csv"`` writes ``results.csv``; ``profiles``, one :class:`Profile`
    per metric, adds one ``profile_<METRIC>.csv`` each, and ``excluded``, a
    list of ``(METRIC, problem)`` pairs, adds ``excluded.csv``, header-only
    when the list is empty.  ``fmt="json"`` writes ``results.json`` with the
    same tables under ``results`` and ``profiles``.  ``profiles`` is ``None``
    to emit results only.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got '{fmt}'")
    if excluded is not None and fmt != "csv":
        raise ValueError("excluded.csv is written with fmt='csv'")
    prefix = Path(prefix)
    records = [_result_record(row) for row in table.rows]
    tables = {"results": (RESULT_FIELDS, [r.values() for r in records])}
    profiles = sorted(profiles or (), key=lambda p: p.metric.upper())
    docs = {p.metric.upper(): {"tau": p.tau, "solvers": p.rho} for p in profiles}
    for p in profiles:
        tables[f"profile_{p.metric.upper()}"] = (["tau", *p.rho], zip(p.tau, *p.rho.values()))
    if excluded is not None:
        tables["excluded"] = (("metric", "problem"), excluded)
    try:
        prefix.mkdir(parents=True, exist_ok=True)
        if fmt == "json":
            doc = {"results": records, "profiles": docs}
            (prefix / "results.json").write_text(json.dumps(doc, indent=1) + "\n")
        else:
            for name, (header, rows) in tables.items():
                lines = [",".join(header)] + [_csv_line(r) for r in rows]
                (prefix / f"{name}.csv").write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"while writing benchmark output under '{prefix}': {exc}") from exc


def load_results(prefix) -> ResultTable:
    """Rebuild a result table from the ``results.json`` of an emitted directory;
    JSON nested too deeply to parse, a field of the wrong JSON type, a float
    field beyond float range, a solver or problem holding a comma, a double
    quote or a line break (the CSV tables quote nothing), an unknown status, a
    count below 0 or above 2**53, a ``dim`` below 2 (no family exists there), an
    ``nf`` below 1 (every run evaluates its start point), an ``ng`` other than
    ``nf`` (each evaluation takes both) or a repeated cell raises ``ValueError``."""
    json_path = Path(prefix) / "results.json"
    if not json_path.exists():
        raise FileNotFoundError(f"no results.json under '{prefix}'")
    try:
        records = json.loads(json_path.read_text())["results"]
    except RecursionError:
        raise ValueError("results.json is nested too deeply") from None
    for rec in records:
        for key, kind in _FIELD_TYPES.items():
            # type(), not isinstance(): bool is an int subclass
            if type(rec[key]) is not kind and (kind, type(rec[key])) != (float, int):
                raise ValueError(f"{key} is not {_TYPE_NAMES[kind]}: {rec[key]!r}")
        for key in ("solver", "problem"):
            if any(ch in rec[key] for ch in ',"\r\n'):
                raise ValueError(f"{key} holds a comma, a double quote or a line break: {rec[key]!r}")
    try:
        rows = [
            ResultRow(rec["solver"], rec["problem"], rec["dim"],
                      RunResult(rec["status"], rec["ni"], rec["nf"],
                                float(rec["f_final"]), float(rec["gnorm_inf"])))
            for rec in records
        ]
    except OverflowError:  # float() of a JSON integer
        raise ValueError("f_final or gnorm_inf is an integer beyond float range") from None
    unknown = {r.result.status for r in rows}.difference(STATUSES)
    if unknown:
        raise ValueError(f"unknown status {', '.join(sorted(unknown))}")
    counts = [(rec["ni"], rec["nf"], rec["ng"]) for rec in records]
    if any(min(c) < 0 for c in counts):
        raise ValueError("negative ni, nf or ng")
    # The profile divides the counts as floats; up to 2**53 they are exact,
    # and every ratio, hence r_fail and the tau grid, stays finite.
    if any(max(c) > 2**53 for c in counts):
        raise ValueError("ni, nf or ng above 2**53")
    if any(r.dim < 2 for r in rows):
        raise ValueError("dim below 2")
    if any(min(c[1:]) < 1 for c in counts):
        raise ValueError("nf or ng below 1")
    if any(ng != nf for _, nf, ng in counts):
        raise ValueError("ng differs from nf, though each evaluation takes f and g together")
    cells = [(r.solver, r.problem, r.dim) for r in rows]
    if len(set(cells)) != len(cells):
        raise ValueError("repeated (solver, problem, dim) cell")
    return ResultTable(rows)


def had_eval_error(table: ResultTable) -> bool:
    return any(row.result.status == EVAL_ERROR for row in table.rows)
