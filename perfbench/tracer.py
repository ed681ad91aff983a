"""Per-module split of a workload, measured from outside the package.

:class:`Tracer` replaces each traced function at the name its caller looks
up (a module global or a class attribute) with a wrapper that opens a span.
Spans nest on one stack: a span's self time is its duration minus the
durations of the spans it directly contains, so the self times of all spans
add up to the time spent inside the outermost ones.  Spans are folded into
per-name totals as they close (the n=100 suite opens millions of ``dot``
spans); the ``solver.minimize`` spans, one per (solver, problem) cell, are
also kept one by one, and the benchmark writes both out when it ends
(:meth:`Tracer.record`).

Counters that need a return value (accepted steps, restarts, audit
violations) are taken by small callbacks after the span closes.
"""

from __future__ import annotations

import time
from collections import defaultdict

import specgrad.bench
import specgrad.cli
import specgrad.directions
import specgrad.linesearch
import specgrad.secant
import specgrad.solver
from specgrad.problems import InstrumentedOracle
from specgrad.solver import AuditReport

from stats import ratio
from workloads import FAMILIES


class Tracer:
    def __init__(self):
        self._stack = [[0.0]]  # one frame per open span: time covered by its children
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.cells = []  # one record per solver.minimize span
        self._undo = []

    @property
    def traced_s(self) -> float:
        """Total duration of the outermost spans."""
        return self._stack[0][0]

    def _wrap(self, name, fn, after=None):
        stack, clock, calls, self_s = self._stack, time.perf_counter, self.calls, self.self_s
        named = callable(name)

        def traced(*args, **kwargs):
            span = name(args) if named else name
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                self.counts[span + ".errors"] += 1
                raise
            finally:
                dur = clock() - t0
                stack.pop()
                stack[-1][0] += dur
                calls[span] += 1
                self_s[span] += dur - frame[0]
            if after is not None:
                after(args, out, dur)
            return out

        return traced

    def patch(self, owner, attr, name, after=None):
        original = owner.__dict__[attr]
        setattr(owner, attr, self._wrap(name, original, after))
        self._undo.append((owner, attr, original))

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def install(self):
        """Patch every traced name; :meth:`restore` undoes it."""
        sg = specgrad
        for mod in (sg.secant, sg.linesearch, sg.directions, sg.solver):
            self.patch(mod, "dot", "numkit.dot")
        self.patch(InstrumentedOracle, "eval_fg", lambda args: "problems.eval_fg." + args[0].problem.name)
        for attr in ("mu", "t_coefficient", "z_vector"):
            self.patch(sg.linesearch, attr, "secant." + attr)
        self.patch(sg.directions, "v_vector_m2", "secant.v_vector_m2")
        for attr in ("modified_wolfe", "standard_wolfe"):
            self.patch(sg.solver, attr, "linesearch", self._after_search)
        self.patch(sg.solver, "next_direction", "directions", self._after_direction)
        self.patch(AuditReport, "check_wolfe", "solver.audit")
        self.patch(AuditReport, "check_direction", "solver.audit")
        self.patch(sg.bench, "minimize", "solver.minimize", self._after_minimize)
        self.patch(sg.cli, "minimize", "solver.minimize", self._after_minimize)
        self.patch(sg.cli, "run_suite", "bench.run_suite")
        self.patch(sg.cli, "performance_ratios", "bench.profile")
        self.patch(sg.cli, "performance_profile", "bench.profile")
        self.patch(sg.cli, "emit", "bench.emit")
        self.patch(sg.cli, "load_results", "bench.load")
        self.patch(sg.cli, "main", "cli.main")

    def _after_search(self, args, outcome, _dur):
        c = self.counts
        c["linesearch.trials"] += outcome.nf_used
        if outcome.status == "accepted":
            c["linesearch.accepted"] += 1
            c["solver.uphill"] += outcome.f_new > args[2]  # args: oracle, x, f, ...
        else:
            c["linesearch.failures"] += 1

    def _after_direction(self, _args, out, _dur):
        self.counts["directions.restarts"] += out[1].restart

    def _after_minimize(self, args, result, dur):
        c = self.counts
        audit = result.audit
        if audit is not None:
            c["solver.audit.violations"] += (
                audit.armijo_violations
                + audit.curvature_violations
                + audit.dz_curvature_violations
                + audit.t_bound_violations
                + audit.descent_violations
                + audit.theta_violations
            )
        c["solver.trace.records"] += len(result.trace or ())
        prob, cfg = args
        self.cells.append(
            {
                "method": cfg.direction.method,
                "problem": prob.name,
                "dim": prob.dim,
                "status": result.status,
                "ni": result.ni,
                "nf": result.nf,
                "duration_s": dur,
            }
        )

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counters, self times and ratios of everything traced so far."""
        calls, self_s, c = self.calls, self.self_s, self.counts
        accepted = c["linesearch.accepted"]
        evals = {f: "problems.eval_fg." + f for f in FAMILIES}
        eval_calls = sum(calls[n] for n in evals.values())
        eval_s = sum(self_s[n] for n in evals.values())
        secant = [n for n in calls if n.startswith("secant.")]
        m = {
            "numkit.dot.calls_per_iter": ratio(calls["numkit.dot"], accepted),
            "numkit.dot.self_s": self_s["numkit.dot"],
            "problems.eval_fg.calls": eval_calls,
            "problems.eval_fg.self_s": eval_s,
            "problems.eval_fg.us_per_call": 1e6 * ratio(eval_s, eval_calls),
            "problems.eval_fg.errors": sum(c[n + ".errors"] for n in evals.values()),
        }
        for fam, n in evals.items():
            m["problems.eval_fg.self_s." + fam] = self_s[n]
        m.update(
            {
                "secant.calls": sum(calls[n] for n in secant),
                "secant.self_s": sum(self_s[n] for n in secant),
                "secant.z_built": calls["secant.z_vector"],
                "secant.z_use_ratio": ratio(accepted, calls["secant.z_vector"]),
                "linesearch.calls": calls["linesearch"],
                "linesearch.self_s": self_s["linesearch"],
                "linesearch.accept_ratio": ratio(accepted, c["linesearch.trials"]),
                "linesearch.failures": c["linesearch.failures"],
                "directions.calls": calls["directions"],
                "directions.self_s": self_s["directions"],
                "directions.us_per_call": 1e6 * ratio(self_s["directions"], calls["directions"]),
                "directions.restart_ratio": ratio(c["directions.restarts"], calls["directions"]),
                "solver.minimize.self_s": self_s["solver.minimize"],
                "solver.audit.calls": calls["solver.audit"],
                "solver.audit.self_s": self_s["solver.audit"],
                "solver.audit.violations": c["solver.audit.violations"],
                "solver.trace.records": c["solver.trace.records"],
                "solver.uphill_frac": ratio(c["solver.uphill"], accepted),
                "bench.run_suite.self_s": self_s["bench.run_suite"],
                "bench.profile_s": self_s["bench.profile"],
                "bench.emit_s": self_s["bench.emit"],
                "bench.load_s": self_s["bench.load"],
                "cli.main.self_s": self_s["cli.main"],
            }
        )
        return m

    def self_total(self) -> float:
        return sum(self.self_s.values())

    def record(self) -> dict:
        """Span totals, counters and per-cell spans, ready for ``json.dump``."""
        return {
            "spans": {
                name: {"calls": self.calls[name], "self_s": self.self_s[name]}
                for name in sorted(self.calls)
            },
            "counts": dict(sorted(self.counts.items())),
            "cells": self.cells,
        }
