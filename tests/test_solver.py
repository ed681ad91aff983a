import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

import specgrad.solver
from specgrad.directions import ETA, METHODS, TAU, next_direction
from specgrad.linesearch import ACCEPTED, ALPHA_MAX, WolfeParams, modified_wolfe, standard_wolfe
from specgrad.numkit import dot
from specgrad.problems import InstrumentedOracle, Problem, problem
from specgrad.solver import (
    CONVERGED,
    EVAL_ERROR,
    ITER_LIMIT,
    LINESEARCH_FAILURE,
    AuditReport,
    IterationRecord,
    RunResult,
    SolverConfig,
    default_config,
    minimize,
)

from reference import gradient, log_cosh, violations


@pytest.fixture
def searches(monkeypatch):
    """The (args, outcome) of every search ``minimize`` runs, in order."""
    calls = []

    def recording(search):
        def recorded(*args):
            out = search(*args)
            calls.append((args, out))
            return out

        return recorded

    for name in ("modified_wolfe", "standard_wolfe"):
        monkeypatch.setattr(specgrad.solver, name, recording(getattr(specgrad.solver, name)))
    return calls


def steepest_descent_iters_qf1(n, eps=1e-8, max_iter=100000):
    """Independent exact-line-search steepest descent on f = 0.5 sum i x_i^2."""
    idx = np.arange(1.0, n + 1.0)
    x = np.ones(n)
    ni = 0
    while np.max(np.abs(idx * x)) > eps and ni < max_iter:
        g = idx * x
        alpha = float(g @ g) / float(g @ (idx * g))
        x = x - alpha * g
        ni += 1
    return ni


class TestConfig:
    def test_method_defaults(self):
        assert (default_config("scgmmwls").wolfe.rho, default_config("scgmmwls").wolfe.sigma) == (
            0.18,
            0.2,
        )
        for method in ("dk", "jian", "m2"):
            cfg = default_config(method)
            assert (cfg.wolfe.rho, cfg.wolfe.sigma) == (0.1, 0.9)

    def test_one_rho_sigma_pair_sets_the_search_and_the_audit(self):
        # f = x^3 from x = 1 along d = -1: alpha = 1 is accepted with mu = -1
        # and |s|^2 = 1, so t = C mu.  The audit's bound -C L <= t holds for
        # L = 2 with C of (0.1, 0.9), 8/17, and fails with C of (0.18, 0.2), 1/42.
        cfg = SolverConfig(WolfeParams(0.1, 0.9), default_config("scgmmwls").direction)
        C = (0.9 - 0.1) / (1.0 - 2.0 * 0.1 + 0.9)
        assert cfg.wolfe.C == C
        cube = Problem("cube", lambda x: (float(x[0] ** 3), 3.0 * x * x), np.ones(1))
        x, g, d = np.ones(1), np.array([3.0]), np.array([-1.0])
        coef = cfg.direction.coefficient
        out = modified_wolfe(InstrumentedOracle(cube), x, 1.0, g, d, cfg.wolfe, coef, 1.0, -3.0)
        assert (out.status, out.alpha, out.mu) == (ACCEPTED, 1.0, -1.0)
        assert out.t == C * out.mu / 1.0
        audit = AuditReport()
        audit.check_wolfe(1.0, g, d, out, cfg, 2.0, modified=True)
        assert violations(audit) == 0
        other = AuditReport()
        other.check_wolfe(1.0, g, d, out, default_config("scgmmwls"), 2.0, modified=True)
        assert other.t_bound_violations == 1

    @pytest.mark.parametrize(
        "solver,pair,coefficient",
        [
            ("scgmmwls:m=3", (0.18, 0.2), 3.0),
            ("dk", (0.1, 0.9), 3.0),
            ("jian", (0.1, 0.9), 3.0),
            ("m2:m=3", (0.1, 0.9), 3.0),
        ],
    )
    def test_benchmark_ids(self, solver, pair, coefficient):
        cfg = default_config(solver)
        assert cfg.direction.label == solver
        assert (cfg.wolfe.rho, cfg.wolfe.sigma) == pair
        assert cfg.direction.coefficient == coefficient

    def test_the_order_is_given_only_in_the_solver_id(self):
        assert default_config("m2:m=inf").direction.coefficient == 1.0
        assert default_config("m2:m=4").direction.coefficient == 2.0
        with pytest.raises(TypeError):
            default_config("m2", m=4)
        with pytest.raises(TypeError):
            default_config("m2", 4)

    def test_rho_and_sigma_are_set_only_through_wolfe_params(self):
        with pytest.raises(TypeError):
            default_config("dk", rho=0.05)
        with pytest.raises(TypeError):
            default_config("scgmmwls", sigma=0.5)
        with pytest.raises(TypeError):
            default_config("dk", wolfe=WolfeParams())

    def test_validation(self):
        cfg = default_config("scgmmwls")
        for epsilon in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="epsilon must be positive and finite"):
                SolverConfig(cfg.wolfe, cfg.direction, epsilon=epsilon)
        with pytest.raises(ValueError):
            SolverConfig(cfg.wolfe, cfg.direction, trace_level="everything")
        with pytest.raises(ValueError):
            SolverConfig(cfg.wolfe, cfg.direction, trace_level="summary")
        assert cfg.trace_level == "none"


class TestRecords:
    def test_ng_reads_nf_and_cannot_be_set(self):
        result = RunResult(CONVERGED, 3, 7, 0.5, 1e-9)
        assert (result.nf, result.ng) == (7, 7)
        with pytest.raises(TypeError):
            RunResult(CONVERGED, 3, 7, 7, 0.5, 1e-9)  # the old order, with ng after nf
        with pytest.raises(TypeError):
            RunResult(CONVERGED, 3, 7, 0.5, 1e-9, ng=7)

    def test_trace_and_audit_are_keyword_only(self):
        with pytest.raises(TypeError):
            RunResult(CONVERGED, 3, 7, 0.5, 1e-9, [])
        assert RunResult(CONVERGED, 3, 7, 0.5, 1e-9, trace=[]).trace == []

    def test_a_trace_record_holds_no_iteration_number(self):
        assert "k" not in IterationRecord.__slots__
        res = minimize(problem("qf1", 10), default_config("dk", trace_level="full"))
        assert len(res.trace) == res.ni


class TestMinimize:
    def test_qf1_converges_and_beats_10x_steepest_descent(self):
        sd_ni = steepest_descent_iters_qf1(10)
        res = minimize(problem("qf1", 10), default_config("scgmmwls:m=3"))
        assert res.status == CONVERGED
        assert res.gnorm_inf_final <= 1e-8
        assert res.ni <= 200
        assert res.ni <= 10 * sd_ni

    def test_constant_function_converges_immediately(self):
        p = Problem("const", lambda x: (42.0, np.zeros(3)), np.ones(3))
        res = minimize(p, default_config("scgmmwls"))
        assert res.status == CONVERGED
        assert (res.ni, res.nf, res.ng) == (0, 1, 1)

    def test_zero_iteration_budget(self):
        cfg = default_config("scgmmwls", max_iter=0)
        res = minimize(problem("qf1", 5), cfg)
        assert res.status == ITER_LIMIT
        assert res.ni == 0

    def test_eval_error_at_start(self):
        p = Problem("bad", lambda x: (math.inf, np.zeros(2)), np.ones(2))
        res = minimize(p, default_config("scgmmwls"))
        assert res.status == EVAL_ERROR
        assert (res.ni, res.nf, res.ng) == (0, 1, 1)

    def test_linear_objective_reports_linesearch_failure(self):
        p = Problem("lin", lambda x: (float(-x.sum()), -np.ones(2)), np.zeros(2))
        res = minimize(p, default_config("scgmmwls"))
        assert res.status == LINESEARCH_FAILURE
        assert res.ni == 0

    @pytest.mark.parametrize("method", ["scgmmwls", "dk"])
    def test_overflowing_slope_ends_the_run_without_a_trial(self, method):
        # f = exp(2000 x) + exp(-2000 x) from x = -0.3: f and g are finite, but
        # |g| is about 7.6e263, so g^T d = -|g|^2 overflows to -inf and no
        # trial could satisfy Armijo.
        def fg(x):
            e_pos, e_neg = np.exp(2000.0 * x), np.exp(-2000.0 * x)
            return float(np.sum(e_pos + e_neg)), 2000.0 * (e_pos - e_neg)

        res = minimize(Problem("steep", fg, np.array([-0.3])), default_config(method))
        assert res.status == LINESEARCH_FAILURE
        assert (res.ni, res.nf, res.ng) == (0, 1, 1)

    @pytest.mark.parametrize("method", ["scgmmwls", "dk"])
    def test_first_trial_step_is_capped_at_alpha_max(self, method):
        # f = 0.5e-7 |x|^2 from x = 1: 1/|g0|_inf = 1e7 exceeds ALPHA_MAX, so the
        # first trial is x0 - ALPHA_MAX g0 = 0.9, not x0 - g0/|g0|_inf = 0.
        points = []

        def fg(x):
            points.append(x.copy())
            return float(0.5e-7 * (x @ x)), 1e-7 * x

        start = np.ones(2)
        minimize(Problem("flat", fg, start), default_config(method, max_iter=1))
        g0 = 1e-7 * start
        assert 1.0 / np.max(np.abs(g0)) > ALPHA_MAX
        assert np.array_equal(points[1], start - ALPHA_MAX * g0)

    def test_each_search_after_the_first_is_handed_the_last_step(self, searches):
        # The first search starts from 1/|g0|_inf; every later one gets the
        # previous accepted outcome, from which it takes its own first trial.
        p = problem("ext_rosenbrock", 10)
        res = minimize(p, default_config("scgmmwls", max_iter=20))
        assert len(searches) == res.ni == 20
        (first, _), later = searches[0], searches[1:]
        assert first[7] == 1.0 / np.max(np.abs(gradient(p, p.start))) and first[9] is None
        assert all(args[9] is prev_out for (args, _), (_, prev_out) in zip(later, searches))
        # alpha0 is worked out once; the later searches do not read it.
        assert all(args[7] == first[7] for args, _ in later)

    @pytest.mark.parametrize("method", ["scgmmwls", "dk", "jian", "m2"])
    def test_each_slope_comes_from_the_update_that_made_the_direction(self, searches, method):
        # The first search gets -g0^T g0, the slope of d = -g0; every later one
        # the trace row's gd of the update before it.  Each is g^T d bit for bit.
        res = minimize(problem("ext_rosenbrock", 10), default_config(method, trace_level="full"))
        assert res.status == CONVERGED and len(searches) == res.ni > 1
        gds = [args[8] for args, _ in searches]
        assert gds[1:] == [rec.gd for rec in res.trace[:-1]]
        g0 = searches[0][0][3]
        assert float.hex(gds[0]) == float.hex(-dot(g0, g0))
        for args, _ in searches:
            g, d = args[3], args[4]
            assert float.hex(args[8]) == float.hex(dot(g, d))

    @pytest.mark.parametrize("n", [10000, 10006])
    def test_dk_converges_on_arwhead_at_n_10000(self, n):
        # Under the Shanno-Phua first trial these runs ended linesearch_failure
        # at steps 40 and 35, near f's round-off floor.
        res = minimize(problem("arwhead", n), default_config("dk", max_iter=500))
        assert res.status == CONVERGED
        assert violations(res.audit) == 0

    @pytest.mark.parametrize("name", ["qf1", "raydan1"])
    def test_scgmmwls_converges_on_qf1_and_raydan1_within_200_steps(self, name):
        # Under the Shanno-Phua first trial these took 819 and 1233 steps at n = 100.
        res = minimize(problem(name, 100), default_config("scgmmwls", max_iter=200))
        assert res.status == CONVERGED
        assert violations(res.audit) == 0

    def test_scgmmwls_does_not_fail_its_search_on_diagonal1_at_n_1002(self):
        # Without the mu noise gate this run ended linesearch_failure at step
        # 251 with |g|_inf = 1.7e-5: near f's minimum the per-step decrease
        # sinks below ulp(f), and mu turns into rounding noise.
        res = minimize(problem("diagonal1", 1002), default_config("scgmmwls", max_iter=2000))
        assert res.status != LINESEARCH_FAILURE
        assert violations(res.audit) == 0

    def test_first_direction_is_steepest_descent(self):
        p = problem("ext_himmelblau", 4)
        cfg = default_config("scgmmwls", max_iter=1, trace_level="full")
        res = minimize(p, cfg)
        rec = res.trace[0]
        g0 = gradient(p, p.start)
        d0 = -g0.copy()
        x1 = p.start + rec.alpha * d0
        assert p.objective(x1) == rec.f

    def test_monotone_descent_along_trace(self):
        p = problem("ext_rosenbrock", 20)
        res = minimize(p, default_config("scgmmwls:m=3", trace_level="full"))
        assert res.status == CONVERGED
        f_prev = p.objective(p.start)
        for rec in res.trace:
            assert rec.f <= f_prev + 1e-12 * (1.0 + abs(f_prev))
            f_prev = rec.f

    def test_determinism_bitwise(self):
        cfg = default_config("scgmmwls:m=3", trace_level="full")
        a = minimize(problem("arwhead", 50), cfg)
        b = minimize(problem("arwhead", 50), cfg)
        assert (a.status, a.ni, a.nf, a.ng) == (b.status, b.ni, b.nf, b.ng)
        assert a.f_final == b.f_final
        assert a.gnorm_inf_final == b.gnorm_inf_final
        assert [r.alpha for r in a.trace] == [r.alpha for r in b.trace]
        assert [r.mu for r in a.trace] == [r.mu for r in b.trace]

    def test_counters_match_independent_tally(self):
        p = problem("qf1", 8)
        calls = 0

        def fg(x):
            nonlocal calls
            calls += 1
            return p.fg(x)

        wrapped = Problem(p.name, fg, p.start, lipschitz_hint=p.lipschitz_hint)
        res = minimize(wrapped, default_config("scgmmwls"))
        assert res.status == CONVERGED
        assert res.nf == res.ng == calls

    def test_run_result_invariants(self):
        res = minimize(problem("engval1", 30), default_config("scgmmwls"))
        assert res.status == CONVERGED
        assert res.gnorm_inf_final <= 1e-8
        assert res.ni <= 10000

    @pytest.mark.parametrize("method", ["dk", "jian", "m2"])
    def test_baselines_converge_on_qf1(self, method):
        res = minimize(problem("qf1", 10), default_config(method))
        assert res.status == CONVERGED
        assert violations(res.audit) == 0

    def test_zoutendijk_summands_decay(self, searches):
        # (g^T d)^2 / |d|^2 of each step, from its search's own g^T d and d^T d.
        res = minimize(problem("qf1", 50), default_config("scgmmwls"))
        assert res.status == CONVERGED and len(searches) == res.ni
        z = [out.gd_old * out.gd_old / out.dd for _, out in searches]
        assert all(np.isfinite(z)) and np.isfinite(sum(z))
        dec = max(1, len(z) // 10)
        assert np.mean(z[-dec:]) < np.mean(z[:dec])

    @pytest.mark.parametrize("c", [1e-3, 1e3])
    def test_invariants_hold_under_objective_scaling(self, c):
        base = problem("ext_rosenbrock", 10)

        def fg(x):
            f, g = base.fg(x)
            return c * f, c * g

        scaled = Problem(f"scaled_{c}", fg, base.start)
        res = minimize(scaled, default_config("scgmmwls:m=3"))
        assert res.status != EVAL_ERROR
        assert violations(res.audit) == 0


class TestMuTrace:
    def test_qf1_mu_at_roundoff_scale(self):
        p = problem("qf1", 100)
        cfg = default_config("scgmmwls:m=3", trace_level="full")
        res = minimize(p, cfg)
        assert res.status == CONVERGED
        f_prev = p.objective(p.start)
        for rec in res.trace:
            assert abs(rec.mu) <= 1e-9 * (1.0 + abs(f_prev) + abs(rec.f))
            f_prev = rec.f

    def test_arwhead_first_mu_negative(self):
        cfg = default_config("scgmmwls:m=3", max_iter=1, trace_level="full")
        res = minimize(problem("arwhead", 100), cfg)
        assert res.trace[0].mu < 0.0

    def test_quartic_first_mu_matches_independent_evaluation(self):
        n = 6
        p = Problem("quartic", lambda x: (float(np.sum(x**4)), 4.0 * x**3), np.ones(n))
        cfg = default_config("scgmmwls:m=3", max_iter=1, trace_level="full")
        res = minimize(p, cfg)
        rec = res.trace[0]
        g0 = gradient(p, p.start)
        s = rec.alpha * (-g0.copy())
        x1 = p.start + s
        mu_ind = math.fsum(
            [2.0 * (p.objective(p.start) - p.objective(x1))]
            + [(g0[i] + gradient(p, x1)[i]) * s[i] for i in range(n)]
        )
        assert math.copysign(1.0, rec.mu) == math.copysign(1.0, mu_ind)

    def test_limit_argument(self, searches):
        cfg = default_config("scgmmwls", max_iter=5, trace_level="full")
        res = minimize(problem("qf1", 20), cfg)
        assert (res.status, res.ni) == (ITER_LIMIT, 5)
        assert len(res.trace) == len(searches) == 5
        assert all(out.gd_old * out.gd_old / out.dd > 0.0 for _, out in searches)


class TestAudit:
    @pytest.mark.parametrize("method", METHODS)
    def test_runs_on_every_step_without_a_trace(self, monkeypatch, method):
        calls = {"check_wolfe": 0, "check_direction": 0}

        def counted(name):
            check = getattr(AuditReport, name)

            def call(*args, **kwargs):
                calls[name] += 1
                return check(*args, **kwargs)

            return call

        for name in calls:
            monkeypatch.setattr(AuditReport, name, counted(name))
        res = minimize(problem("qf1", 20), default_config(method))
        assert res.status == CONVERGED and res.trace is None
        assert calls == {"check_wolfe": res.ni, "check_direction": res.ni} and res.ni > 0
        assert violations(res.audit) == 0

    def test_t_bounds_are_checked_where_mu_is_positive(self, searches):
        # On qf1 mu reads 0 on every step, so t = 0 and the bounds cannot fail.
        cfg = default_config("scgmmwls:m=3")
        exact = log_cosh()
        res = minimize(exact, cfg)
        assert res.status == CONVERGED and violations(res.audit) == 0
        assert len(searches) == res.ni and any(out.mu > 0.0 for _, out in searches)
        # Too small an L puts the larger t above c_m L, and each such step counts.
        L = 1e-3
        searches.clear()
        low = minimize(Problem(exact.name, exact.fg, exact.start, lipschitz_hint=L), cfg)
        outside = [not -cfg.wolfe.C * L <= out.t <= cfg.direction.coefficient * L
                   for _, out in searches]
        assert low.audit.t_bound_violations == sum(outside) > 0

    COUNTERS = ("armijo_violations", "curvature_violations", "dz_curvature_violations",
                "t_bound_violations")

    @staticmethod
    def accepted_step(search):
        """One accepted step on qf1 (n = 30, exact Lipschitz constant 30)."""
        p = problem("qf1", 30)
        cfg = default_config("scgmmwls:m=3")
        f, g = p.objective(p.start), gradient(p, p.start)
        d = -g
        out = search(InstrumentedOracle(p), p.start, f, g, d, cfg.wolfe, cfg.direction.coefficient,
                     1.0 / np.max(np.abs(g)), dot(g, d))
        assert out.status == ACCEPTED
        return p, cfg, f, g, d, out

    @pytest.mark.parametrize(
        "tamper,counter",
        [
            (lambda f, g, out: replace(out, f_new=f + 1.0), "armijo_violations"),
            # the old gradient: its slope g^T d fails sigma g^T d
            (lambda f, g, out: replace(out, g_new=g), "curvature_violations"),
            (lambda f, g, out: replace(out, z=1e-3 * out.z), "dz_curvature_violations"),
        ],
        ids=["raised_f_new", "lowered_g_new", "shrunk_z"],
    )
    def test_each_wolfe_check_counts_its_own_violation(self, tamper, counter):
        p, cfg, f, g, d, out = self.accepted_step(modified_wolfe)
        audit = AuditReport()
        audit.check_wolfe(f, g, d, out, cfg, p.lipschitz_hint, modified=True)
        assert violations(audit) == 0
        audit = AuditReport()
        audit.check_wolfe(f, g, d, tamper(f, g, out), cfg, p.lipschitz_hint, modified=True)
        expected = {name: int(name == counter) for name in self.COUNTERS}
        assert {name: getattr(audit, name) for name in self.COUNTERS} == expected
        assert violations(audit) != 0

    def test_a_standard_step_never_counts_dz_or_t(self):
        p, cfg, f, g, d, out = self.accepted_step(standard_wolfe)
        assert out.z is None  # only the modified search builds z
        audit = AuditReport()
        audit.check_wolfe(f, g, d, replace(out, z=0.0 * out.y, t=1e300), cfg, p.lipschitz_hint,
                          modified=False)
        assert violations(audit) == 0

    def test_no_lipschitz_constant_skips_the_t_bounds(self):
        p, cfg, f, g, d, out = self.accepted_step(modified_wolfe)
        far = replace(out, t=1e300)
        audit = AuditReport()
        audit.check_wolfe(f, g, d, far, cfg, None, modified=True)
        assert violations(audit) == 0
        audit.check_wolfe(f, g, d, far, cfg, p.lipschitz_hint, modified=True)
        assert audit.t_bound_violations == violations(audit) == 1

    DIRECTION_COUNTERS = ("descent_violations", "theta_violations")

    @pytest.mark.parametrize(
        "scale,theta,counter",
        [
            (-1.0, 1.0, None),
            (-1.0, 0.25 + ETA, None),
            (-1.0, TAU, None),
            (-ETA, 1.0, None),  # g^T d = -ETA |g|^2 exactly
            (-1.0, 0.2, "theta_violations"),
            (-1.0, 10.5, "theta_violations"),
            (-1.0, math.nan, "theta_violations"),
            (1.0, 1.0, "descent_violations"),
            # 2.5e-16 above the bound: within the old 1e-12 slack, so only the
            # update's own bound, without slack, counts it
            (-ETA * (1.0 - 1e-14), 1.0, "descent_violations"),
        ],
        ids=["unit", "theta_floor", "theta_tau", "descent_bound", "theta_low", "theta_high",
             "theta_nan", "uphill", "descent_just_short"],
    )
    def test_each_direction_check_counts_its_own_violation(self, scale, theta, counter):
        g = np.array([3.0, 4.0])
        audit = AuditReport()
        audit.check_direction(g, scale * g, theta)
        expected = {name: int(name == counter) for name in self.DIRECTION_COUNTERS}
        assert {name: getattr(audit, name) for name in self.DIRECTION_COUNTERS} == expected


    @pytest.mark.parametrize("method", METHODS)
    def test_an_uphill_next_direction_is_counted_under_every_method(self, monkeypatch, method):
        # The update restarts rather than hand back a direction that fails the
        # descent test, so flip the one minimize receives: dk's is checked too.
        def uphill(d, outcome, params):
            d_new, rec = next_direction(d, outcome, params)
            return -d_new, rec

        monkeypatch.setattr(specgrad.solver, "next_direction", uphill)
        res = minimize(problem("qf1", 20), default_config(method, max_iter=1))
        assert (res.ni, res.audit.descent_violations) == (1, 1)


class TestFloatingPointState:
    @pytest.mark.parametrize("method", ["scgmmwls", "dk"])
    def test_an_overflowing_trial_warns_nothing_and_keeps_the_status(self, method):
        # f = x^2 + exp(800 (x + 0.4)) from x = -0.5: the first trial, a unit
        # step to x = 0.5, overflows exp; the search backs off and converges.
        overflows = 0

        def fg(x):
            nonlocal overflows
            e = np.exp(800.0 * (x + 0.4))
            f = float(np.sum(x * x + e))
            overflows += not math.isfinite(f)
            return f, 2.0 * x + 800.0 * e

        prob = Problem("wall", fg, np.array([-0.5]))
        cfg = default_config(method)
        quiet = minimize(prob, cfg)
        assert overflows == 1 and quiet.status == CONVERGED
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            strict = minimize(prob, cfg)
        assert overflows == 2
        assert (strict.status, strict.ni, strict.nf) == (quiet.status, quiet.ni, quiet.nf)
        assert np.geterr()["over"] == "warn"  # the run's error state ends with it
