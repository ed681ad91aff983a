import math
import warnings

import numpy as np
import pytest

from specgrad.linesearch import ACCEPTED, modified_wolfe
from specgrad.problems import InstrumentedOracle, Problem, problem
from specgrad.solver import (
    CONVERGED,
    EVAL_ERROR,
    ITER_LIMIT,
    LINESEARCH_FAILURE,
    AuditReport,
    SolverConfig,
    default_config,
    minimize,
)


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

    def test_lone_rho_or_sigma_keeps_the_other_default(self):
        cfg = default_config("dk", rho=0.05)
        assert (cfg.wolfe.rho, cfg.wolfe.sigma) == (0.05, 0.9)
        assert cfg.wolfe.C == (0.9 - 0.05) / (1.0 - 2.0 * 0.05 + 0.9)
        cfg = default_config("scgmmwls", sigma=0.5)
        assert (cfg.wolfe.rho, cfg.wolfe.sigma) == (0.18, 0.5)
        assert cfg.wolfe.C == (0.5 - 0.18) / (1.0 - 2.0 * 0.18 + 0.5)

    def test_lone_override_forming_an_invalid_pair_is_rejected(self):
        with pytest.raises(ValueError):
            default_config("scgmmwls", rho=0.5)  # sigma stays 0.2
        with pytest.raises(ValueError):
            default_config("dk", sigma=0.05)  # rho stays 0.1

    def test_one_rho_sigma_pair_sets_the_search_and_the_audit(self):
        # f = x^3 from x = 1 along d = -1: alpha = 1 is accepted with mu = -1
        # and |s|^2 = 1, so t = C mu.  The audit's bound -C L <= t holds for
        # L = 2 with C of (0.1, 0.9), 8/17, and fails with C of (0.18, 0.2), 1/42.
        cfg = default_config("scgmmwls", rho=0.1, sigma=0.9)
        C = (0.9 - 0.1) / (1.0 - 2.0 * 0.1 + 0.9)
        assert cfg.wolfe.C == C
        cube = Problem("cube", 1, lambda x: (float(x[0] ** 3), 3.0 * x * x), np.ones(1))
        x, g, d = np.ones(1), np.array([3.0]), np.array([-1.0])
        sp = cfg.direction.secant
        out = modified_wolfe(InstrumentedOracle(cube), x, 1.0, g, d, cfg.wolfe, sp, 1.0)
        assert (out.status, out.alpha, out.secant.mu) == (ACCEPTED, 1.0, -1.0)
        assert out.secant.t == C * out.secant.mu / 1.0
        audit = AuditReport()
        audit.check_wolfe(1.0, g, d, out, cfg, 2.0, modified=True)
        assert audit.clean and audit.t_bound_checks == 1
        other = AuditReport()
        other.check_wolfe(1.0, g, d, out, default_config("scgmmwls"), 2.0, modified=True)
        assert other.t_bound_violations == 1

    def test_validation(self):
        cfg = default_config("scgmmwls")
        with pytest.raises(ValueError):
            SolverConfig(cfg.wolfe, cfg.direction, epsilon=0.0)
        with pytest.raises(ValueError):
            SolverConfig(cfg.wolfe, cfg.direction, trace_level="everything")
        with pytest.raises(ValueError):
            SolverConfig(cfg.wolfe, cfg.direction, trace_level="summary")
        assert cfg.trace_level == "none"


class TestMinimize:
    def test_qf1_converges_and_beats_10x_steepest_descent(self):
        sd_ni = steepest_descent_iters_qf1(10)
        res = minimize(problem("qf1", 10), default_config("scgmmwls", m=3))
        assert res.status == CONVERGED
        assert res.gnorm_inf_final <= 1e-8
        assert res.ni <= 200
        assert res.ni <= 10 * sd_ni

    def test_constant_function_converges_immediately(self):
        p = Problem("const", 3, lambda x: (42.0, np.zeros(3)), np.ones(3))
        res = minimize(p, default_config("scgmmwls"))
        assert res.status == CONVERGED
        assert (res.ni, res.nf, res.ng) == (0, 1, 1)

    def test_zero_iteration_budget(self):
        cfg = default_config("scgmmwls", max_iter=0)
        res = minimize(problem("qf1", 5), cfg)
        assert res.status == ITER_LIMIT
        assert res.ni == 0

    def test_eval_error_at_start(self):
        p = Problem("bad", 2, lambda x: (math.inf, np.zeros(2)), np.ones(2))
        res = minimize(p, default_config("scgmmwls"))
        assert res.status == EVAL_ERROR
        assert (res.ni, res.nf, res.ng) == (0, 1, 1)

    def test_linear_objective_reports_linesearch_failure(self):
        p = Problem("lin", 2, lambda x: (float(-x.sum()), -np.ones(2)), np.zeros(2))
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

        res = minimize(Problem("steep", 1, fg, np.array([-0.3])), default_config(method))
        assert res.status == LINESEARCH_FAILURE
        assert (res.ni, res.nf, res.ng) == (0, 1, 1)

    def test_first_direction_is_steepest_descent(self):
        p = problem("ext_himmelblau", 4)
        cfg = default_config("scgmmwls", max_iter=1, trace_level="full")
        res = minimize(p, cfg)
        rec = res.trace[0]
        g0 = p.gradient(p.start)
        d0 = -g0.copy()
        x1 = p.start + rec.alpha * d0
        assert p.objective(x1) == rec.f

    def test_monotone_descent_along_trace(self):
        p = problem("ext_rosenbrock", 20)
        res = minimize(p, default_config("scgmmwls", m=3, trace_level="full"))
        assert res.status == CONVERGED
        f_prev = p.objective(p.start)
        for rec in res.trace:
            assert rec.f <= f_prev + 1e-12 * (1.0 + abs(f_prev))
            f_prev = rec.f

    def test_determinism_bitwise(self):
        cfg = default_config("scgmmwls", m=3, trace_level="full")
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

        wrapped = Problem(p.name, p.dim, fg, p.start, p.lipschitz_hint)
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
        res = minimize(problem("qf1", 10), default_config(method, m=3))
        assert res.status == CONVERGED
        assert res.audit.clean

    def test_zoutendijk_summands_decay(self):
        res = minimize(problem("qf1", 50), default_config("scgmmwls", trace_level="full"))
        assert res.status == CONVERGED
        z = res.audit.zoutendijk
        assert all(np.isfinite(z)) and np.isfinite(sum(z))
        dec = max(1, len(z) // 10)
        assert np.mean(z[-dec:]) < np.mean(z[:dec])

    @pytest.mark.parametrize("c", [1e-3, 1e3])
    def test_invariants_hold_under_objective_scaling(self, c):
        base = problem("ext_rosenbrock", 10)

        def fg(x):
            f, g = base.fg(x)
            return c * f, c * g

        scaled = Problem(f"scaled_{c}", base.dim, fg, base.start)
        res = minimize(scaled, default_config("scgmmwls", m=3))
        assert res.status != EVAL_ERROR
        assert res.audit.clean


class TestMuTrace:
    def test_qf1_mu_at_roundoff_scale(self):
        p = problem("qf1", 100)
        cfg = default_config("scgmmwls", m=3, trace_level="full")
        res = minimize(p, cfg)
        assert res.status == CONVERGED
        f_prev = p.objective(p.start)
        for rec in res.trace:
            assert abs(rec.mu) <= 1e-9 * (1.0 + abs(f_prev) + abs(rec.f))
            f_prev = rec.f

    def test_arwhead_first_mu_negative(self):
        cfg = default_config("scgmmwls", m=3, max_iter=1, trace_level="full")
        res = minimize(problem("arwhead", 100), cfg)
        assert res.trace[0].mu < 0.0

    def test_quartic_first_mu_matches_independent_evaluation(self):
        n = 6
        p = Problem("quartic", n, lambda x: (float(np.sum(x**4)), 4.0 * x**3), np.ones(n))
        cfg = default_config("scgmmwls", m=3, max_iter=1, trace_level="full")
        res = minimize(p, cfg)
        rec = res.trace[0]
        g0 = p.gradient(p.start)
        s = rec.alpha * (-g0.copy())
        x1 = p.start + s
        mu_ind = math.fsum(
            [2.0 * (p.objective(p.start) - p.objective(x1))]
            + [(g0[i] + p.gradient(x1)[i]) * s[i] for i in range(n)]
        )
        assert math.copysign(1.0, rec.mu) == math.copysign(1.0, mu_ind)

    def test_limit_argument(self):
        cfg = default_config("scgmmwls", max_iter=5, trace_level="full")
        res = minimize(problem("qf1", 20), cfg)
        assert (res.status, res.ni) == (ITER_LIMIT, 5)
        assert [rec.k for rec in res.trace] == [0, 1, 2, 3, 4]
        assert len(res.audit.zoutendijk) == 5


class TestAudit:
    @pytest.mark.parametrize("method", ["scgmmwls", "dk"])
    def test_runs_on_every_step_without_a_trace(self, method):
        res = minimize(problem("qf1", 20), default_config(method))
        assert res.status == CONVERGED and res.trace is None
        assert res.audit.steps == res.ni > 0
        assert res.audit.clean
        assert res.audit.zoutendijk == []  # collected only with trace_level="full"


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

        prob = Problem("wall", 1, fg, np.array([-0.5]))
        cfg = default_config(method)
        quiet = minimize(prob, cfg)
        assert overflows == 1 and quiet.status == CONVERGED
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            strict = minimize(prob, cfg)
        assert overflows == 2
        assert (strict.status, strict.ni, strict.nf) == (quiet.status, quiet.ni, quiet.nf)
        assert np.geterr()["over"] == "warn"  # the run's error state ends with it
