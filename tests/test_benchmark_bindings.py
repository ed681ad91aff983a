"""The benchmark's tracer (``perfbench/tracer.py``) still sees every layer.

The tracer replaces package functions at the names their callers look up.
If one of those names is renamed or a call is re-routed around it, the
benchmark's per-layer metrics silently read zero; these tests run a small
``bench run`` plus ``bench profile``, and single traced runs as ``bench
trace`` makes them, under the tracer and check that each layer's count
matches what the run reports, and that every span the tracer sets up opens.
"""

from dataclasses import fields
from pathlib import Path

import pytest

import specgrad.bench
import specgrad.cli
from specgrad.bench import load_results, run_suite
from specgrad.problems import problem
from specgrad.solver import CONVERGED, AuditReport, RunResult, default_config

from reference import violations

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SOLVERS = "scgmmwls:m=3,dk,jian,m2:m=3"


def test_tracer_counts_match_the_run(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    run_dir, prof_dir = tmp_path / "run", tmp_path / "prof"
    tracer = Tracer()
    tracer.install()
    try:
        rc_run = specgrad.cli.main(
            ["run", "--solvers", SOLVERS, "--problems", "qf1,ext_rosenbrock", "--dims", "10",
             "--out", str(run_dir)]
        )
        rc_prof = specgrad.cli.main(["profile", "--in", str(run_dir), "--out", str(prof_dir)])
    finally:
        tracer.restore()
    capsys.readouterr()
    assert rc_run == rc_prof == 0

    rows = load_results(run_dir).rows
    assert len(rows) == 8 and all(r.result.status == "converged" for r in rows)
    ni = sum(r.result.ni for r in rows)
    nf = sum(r.result.nf for r in rows)
    m = tracer.layer_metrics()
    assert m["linesearch.calls"] == m["directions.calls"] == ni
    # Only the modified search (scgmmwls) builds z, once per accepted step.
    assert m["secant.z_built"] == sum(r.result.ni for r in rows if r.solver.startswith("scgmmwls"))
    assert m["problems.eval_fg.calls"] == nf
    # Every trial takes mu and t; only each cell's start point is evaluated outside a search.
    assert tracer.calls["secant.mu"] == tracer.calls["secant.t_coefficient"] == nf - len(rows)
    assert tracer.calls["solver.minimize"] == 8
    # One check_wolfe per step, plus one check_direction per spectral (non-dk) step.
    spectral_ni = sum(r.result.ni for r in rows if r.solver != "dk")
    assert tracer.calls["solver.audit"] == ni + spectral_ni
    for span in ("solver.audit", "bench.emit", "bench.load", "bench.profile"):
        assert tracer.calls[span] > 0, span
        assert tracer.self_s[span] > 0.0, span
    for span in ("numkit.dot", "secant.t_coefficient", "secant.v_vector_m2", "bench.run_suite",
                 "cli.main"):
        assert tracer.calls[span] > 0, span


@pytest.mark.parametrize("solver", ["scgmmwls", "dk"])
def test_tracer_counts_match_a_traced_run(monkeypatch, solver):
    """The trace path: ``bench trace`` runs ``minimize`` with a full trace under
    the name ``specgrad.cli.minimize``, which the tracer patches."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        cfg = default_config(solver, trace_level="full")
        res = specgrad.cli.minimize(problem("ext_rosenbrock", 10), cfg)
    finally:
        tracer.restore()
    assert res.status == CONVERGED and res.ni > 0
    m = tracer.layer_metrics()
    assert m["linesearch.calls"] == m["directions.calls"] == m["solver.trace.records"] == res.ni
    assert m["problems.eval_fg.calls"] == res.nf
    assert tracer.calls["secant.mu"] == tracer.calls["secant.t_coefficient"] == res.nf - 1
    assert tracer.counts["directions.restarts"] == sum(rec.restart for rec in res.trace)
    # Only the modified search builds z, once per accepted step (not once per evaluation).
    assert m["secant.z_built"] == (res.ni if solver == "scgmmwls" else 0)
    assert tracer.calls["solver.minimize"] == 1


def test_every_span_the_tracer_sets_up_is_reached(tmp_path, monkeypatch, capsys):
    """A small ``bench run`` + ``bench profile`` + ``bench trace`` opens every
    span ``Tracer.install`` sets up, so no call is routed around a patched
    name.  A span named per call (``problems.eval_fg.<family>``) is keyed by
    its owner and attribute."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    set_up, reached = set(), set()
    patch = Tracer.patch

    def recording_patch(self, owner, attr, name, after=None):
        key = name if isinstance(name, str) else f"{owner.__name__}.{attr}"
        set_up.add(key)

        def seen(args, out, dur):
            reached.add(key)
            if after is not None:
                after(args, out, dur)

        patch(self, owner, attr, name, seen)

    monkeypatch.setattr(Tracer, "patch", recording_patch)
    run_dir = tmp_path / "run"
    tracer = Tracer()
    tracer.install()
    try:
        rc_run = specgrad.cli.main(
            ["run", "--solvers", SOLVERS, "--problems", "qf1,ext_rosenbrock", "--dims", "10",
             "--out", str(run_dir)]
        )
        rc_prof = specgrad.cli.main(["profile", "--in", str(run_dir), "--out", str(tmp_path / "prof")])
        rc_trace = specgrad.cli.main(["trace", "--problem", "ext_rosenbrock", "--dim", "10"])
    finally:
        tracer.restore()
    capsys.readouterr()
    assert rc_run == rc_prof == rc_trace == 0
    assert "secant.mu" in set_up and "InstrumentedOracle.eval_fg" in set_up
    assert sorted(set_up - reached) == []


def test_tracer_sums_every_audit_violation_tally(monkeypatch):
    """The tracer's ``solver.audit.violations`` adds up every ``*_violations``
    field of the audit, each set here to a distinct power of two."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    names = [f.name for f in fields(AuditReport) if f.name.endswith("_violations")]
    audit = AuditReport(**{name: 2**i for i, name in enumerate(names)})
    result = RunResult(CONVERGED, 1, 2, 0.0, 0.0, audit=audit)
    monkeypatch.setattr(specgrad.bench, "minimize", lambda prob, cfg: result)
    tracer = Tracer()
    tracer.install()
    try:
        run_suite(["dk"], ["qf1"], dims=[10])
    finally:
        tracer.restore()
    assert tracer.calls["solver.minimize"] == 1
    assert tracer.counts["solver.audit.violations"] == violations(audit) == 2 ** len(names) - 1
