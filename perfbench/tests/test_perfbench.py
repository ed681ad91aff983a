"""Tests of the benchmark's own logic: statistics, output checks, tracing.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

from checks import (  # noqa: E402
    Cell,
    check_cells,
    check_exit_code,
    check_profiles,
    check_reload,
    check_same_results,
    fingerprint,
    load_cells,
    parse_trace_output,
)
from stats import median, quartile_spread, ratio  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import FAMILIES, SOLVERS, WORKLOADS  # noqa: E402

import specgrad.cli  # noqa: E402
from specgrad.bench import emit, run_suite  # noqa: E402
from specgrad.problems import family_names, problem  # noqa: E402
from specgrad.solver import default_config  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _cell(**kw):
    base = dict(solver="dk", problem="arwhead", dim=10, status="converged", ni=5, nf=7, ng=7, gnorm_inf=1e-9)
    base.update(kw)
    return Cell(**base)


# -- statistics ---------------------------------------------------------------


def test_ratio_with_zero_base():
    assert ratio(3, 4) == 0.75
    assert ratio(3, 0) == 0.0


def test_quartile_spread_uses_exclusive_quartiles():
    # quantiles(1..10, n=4) = [2.75, 5.5, 8.25]; median 5.5
    assert quartile_spread(range(1, 11)) == pytest.approx((8.25 - 2.75) / 5.5)
    assert quartile_spread([7.0, 7.0, 7.0]) == 0.0
    assert quartile_spread([4.2]) == 0.0
    assert median([3, 1, 2]) == 2


# -- output checks ------------------------------------------------------------


def test_check_cells_accepts_valid_cells():
    cells = [_cell(), _cell(problem="qf1", status="iter_limit", ni=50, gnorm_inf=0.3)]
    expected = [("dk", "arwhead", 10), ("dk", "qf1", 10)]
    assert check_cells(cells, eps=1e-8, budget=50, expected=expected) == []


@pytest.mark.parametrize(
    "bad, needle",
    [
        (dict(gnorm_inf=2e-8), "gnorm_inf"),
        (dict(ng=8), "nf 7 != ng 8"),
        (dict(ni=51), "budget"),
        (dict(status="stalled"), "unknown status"),
    ],
)
def test_check_cells_flags_each_violation(bad, needle):
    out = check_cells([_cell(**bad)], eps=1e-8, budget=50, expected=[("dk", "arwhead", 10)])
    assert any(needle in v for v in out), out


def test_check_cells_flags_missing_cells():
    out = check_cells([_cell()], eps=1e-8, budget=50, expected=[("dk", "arwhead", 10), ("dk", "qf1", 10)])
    assert len(out) == 1 and "requested grid" in out[0]


def test_exit_code_must_report_eval_errors():
    assert check_exit_code(0, [_cell()], "run") == []
    assert check_exit_code(1, [_cell(status="eval_error")], "run") == []
    assert check_exit_code(0, [_cell(status="eval_error")], "run")
    assert check_exit_code(1, [_cell()], "run")


def test_fingerprint_ignores_order_but_not_counts():
    a, b = _cell(), _cell(problem="qf1")
    assert fingerprint([a, b]) == fingerprint([b, a])
    assert fingerprint([a, b]) != fingerprint([a, _cell(problem="qf1", nf=8, ng=8)])


@pytest.fixture
def emitted(tmp_path):
    """A real small run emitted by the package, plus its profiles."""
    table = run_suite(["dk", "scgmmwls:m=3"], ["arwhead", "qf1"], [10], max_iter=200)
    run_dir, prof_dir = tmp_path / "run", tmp_path / "profile"
    emit(table, None, "csv", run_dir)
    emit(table, None, "json", run_dir)
    assert specgrad.cli.main(["profile", "--in", str(run_dir), "--out", str(prof_dir)]) == 0
    return run_dir, prof_dir


def test_untampered_run_passes_every_check(emitted):
    run_dir, prof_dir = emitted
    cells = load_cells(run_dir)
    expected = [(s, p, 10) for s in ("dk", "scgmmwls:m=3") for p in ("arwhead", "qf1")]
    assert check_cells(cells, eps=1e-8, budget=200, expected=expected) == []
    assert check_reload(run_dir) == []
    assert check_same_results(run_dir, prof_dir) == []
    assert check_profiles(prof_dir, ["dk", "scgmmwls:m=3"]) == []


def test_tampered_results_json_is_rejected(emitted):
    run_dir, prof_dir = emitted
    path = run_dir / "results.json"
    doc = json.loads(path.read_text())
    row = next(r for r in doc["results"] if r["status"] == "converged")
    row["gnorm_inf"] = 1e-3
    path.write_text(json.dumps(doc))
    cells = load_cells(run_dir)
    expected = [(c.solver, c.problem, c.dim) for c in cells]
    assert any("gnorm_inf" in v for v in check_cells(cells, eps=1e-8, budget=200, expected=expected))
    assert check_reload(run_dir)  # results.csv still holds the true value
    assert check_same_results(run_dir, prof_dir)


def test_reload_detects_a_last_digit_change(emitted):
    run_dir, _ = emitted
    path = run_dir / "results.json"
    doc = json.loads(path.read_text())
    doc["results"][0]["f_final"] = math.nextafter(doc["results"][0]["f_final"], math.inf)
    path.write_text(json.dumps(doc))
    assert check_reload(run_dir)


@pytest.mark.parametrize("values, needle", [([0.5, 0.25, 1.0], "decreases"), ([0.5, 0.75, 1.5], "outside")])
def test_bad_profile_curves_are_rejected(emitted, values, needle):
    _, prof_dir = emitted
    path = prof_dir / "results.json"
    doc = json.loads(path.read_text())
    doc["profiles"]["NI"] = {"tau": [1.0, 1.5, 2.0], "solvers": {"dk": values, "scgmmwls:m=3": [0, 0, 1]}}
    path.write_text(json.dumps(doc))
    assert any(needle in v for v in check_profiles(prof_dir, ["dk", "scgmmwls:m=3"]))


def test_parse_trace_output(capsys):
    argv = ["trace", "--problem", "qf1", "--dim", "10", "--solver", "dk", "--max-iter", "500"]
    rc = specgrad.cli.main(argv)
    text = capsys.readouterr().out
    cell, bad = parse_trace_output(text, "dk", "qf1", 10, 24)
    assert bad == [] and rc == 0
    assert cell.status == "converged" and cell.nf == cell.ng and cell.gnorm_inf <= 1e-8
    _, bad = parse_trace_output(text.replace("status=", "state="), "dk", "qf1", 10, 24)
    assert bad


# -- tracing ------------------------------------------------------------------


def test_tracer_restores_every_patched_name():
    before = (specgrad.cli.main, specgrad.solver.next_direction, specgrad.linesearch.dot)
    tracer = Tracer()
    tracer.install()
    assert specgrad.cli.main is not before[0]
    tracer.restore()
    assert (specgrad.cli.main, specgrad.solver.next_direction, specgrad.linesearch.dot) == before


def test_traced_run_adds_up_and_counts_steps(capsys):
    tracer = Tracer()
    tracer.install()
    try:
        specgrad.cli.main(["trace", "--problem", "ext_rosenbrock", "--dim", "10", "--solver", "scgmmwls:m=3"])
    finally:
        tracer.restore()
    cell, _ = parse_trace_output(capsys.readouterr().out, "scgmmwls:m=3", "ext_rosenbrock", 10, 24)
    m = tracer.layer_metrics()
    assert tracer.self_total() == pytest.approx(tracer.traced_s, rel=1e-9)
    module_self = [
        "numkit.dot.self_s", "problems.eval_fg.self_s", "secant.self_s", "linesearch.self_s",
        "directions.self_s", "solver.minimize.self_s", "solver.audit.self_s",
        "bench.run_suite.self_s", "bench.profile_s", "bench.emit_s", "bench.load_s", "cli.main.self_s",
    ]
    assert sum(m[k] for k in module_self) == pytest.approx(tracer.self_total(), rel=1e-9)
    assert m["linesearch.calls"] == cell.ni == m["directions.calls"] == m["solver.trace.records"]
    assert m["problems.eval_fg.calls"] == cell.nf
    assert m["secant.z_built"] == cell.nf - 1  # every trial builds a bundle; the start point does not
    assert 0.0 < m["linesearch.accept_ratio"] <= 1.0
    assert m["solver.audit.violations"] == 0


def test_uphill_steps_counted_at_the_line_search_match_the_full_trace():
    prob = problem("raydan1", 10)  # near the roundoff floor of f some accepted steps raise it
    tracer = Tracer()
    tracer.install()
    try:
        result = specgrad.solver.minimize(prob, default_config("dk", max_iter=2000, trace_level="full"))
    finally:
        tracer.restore()
    f = [prob.objective(prob.start)] + [rec.f for rec in result.trace]
    rises = sum(b > a for a, b in zip(f, f[1:]))
    assert rises > 0
    assert tracer.layer_metrics()["solver.uphill_frac"] == rises / len(result.trace)


# -- BENCHMARK.json -----------------------------------------------------------


def test_benchmark_json_matches_the_workloads_and_metrics():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for w in SPEC["workloads"]:
        assert f"budget {WORKLOADS[w['name']].budget}" in w["why"]
    e2e = {m["name"]: m for m in SPEC["end_to_end"]}
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values()) <= 0.25
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    assert set(Tracer().layer_metrics()) <= per_layer
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))


def test_workload_grid_is_the_paper_grid():
    assert set(FAMILIES) == set(family_names())
    assert SOLVERS == ("scgmmwls:m=3", "dk", "jian", "m2:m=3")
    wl = WORKLOADS["suite-n100"]
    assert wl.dim(0) == 100 and wl.dim(3) == 106 and wl.dim(16) == 100
    assert all(w.dim(s) % 2 == 0 for w in WORKLOADS.values() for s in range(40))
