"""The benchmark's tracer (``perfbench/tracer.py``) still sees every layer.

The tracer replaces package functions at the names their callers look up.
If one of those names is renamed or a call is re-routed around it, the
benchmark's per-layer metrics silently read zero; this test runs a small
``bench run`` plus ``bench profile`` under the tracer and checks that each
layer's count matches what the run reports.
"""

from dataclasses import fields
from pathlib import Path

import specgrad.bench
import specgrad.cli
from specgrad.bench import load_results, run_suite
from specgrad.solver import CONVERGED, AuditReport, RunResult

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
