import numpy as np
import pytest

import specgrad.linesearch
from specgrad.linesearch import (
    ACCEPTED,
    ALPHA_MAX,
    DEGENERATE_DIRECTION,
    MAX_TRIALS,
    MAX_TRIALS_EXCEEDED,
    TrialPoint,
    WolfeParams,
    bracket_zoom,
    modified_wolfe,
    standard_wolfe,
    verify_accepted_step,
)
from specgrad.numkit import dot, norm_inf
from specgrad.problems import InstrumentedOracle, Problem, problem
from specgrad.secant import SecantParams, mu, t_coefficient, z_vector


def vec(*vals):
    return np.array(vals, dtype=float)


def problem_1d(f, g, name="p1d"):
    return Problem(name, 1, lambda x: (float(f(x[0])), np.array([g(x[0])])), np.ones(1))


PARAMS = WolfeParams(rho=0.18, sigma=0.2)
SP = SecantParams(m=3)


class TestWolfeParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            WolfeParams(rho=0.5, sigma=0.2)

    @pytest.mark.parametrize(
        "rho,sigma", [(0.0, 0.2), (-0.1, 0.5), (0.2, 0.2), (0.1, 1.0)]
    )
    def test_rejects_pairs_outside_0_rho_sigma_1(self, rho, sigma):
        with pytest.raises(ValueError):
            WolfeParams(rho=rho, sigma=sigma)


class TestStandardWolfe:
    def test_quadratic_acceptance_interval(self):
        # f = x^2 at x = 1 with d = -2: Armijo allows alpha <= 0.82, curvature
        # needs alpha >= 0.4.
        oracle = InstrumentedOracle(problem_1d(lambda x: x * x, lambda x: 2.0 * x))
        out = standard_wolfe(oracle, vec(1.0), 1.0, vec(2.0), vec(-2.0), PARAMS, SP, alpha0=1.0)
        assert out.status == ACCEPTED
        assert 0.4 - 1e-9 <= out.alpha <= 0.82 + 1e-9
        assert out.nf_used <= 10

    def test_exact_minimizer_accepted_first(self):
        oracle = InstrumentedOracle(problem_1d(lambda x: x * x, lambda x: 2.0 * x))
        out = standard_wolfe(oracle, vec(1.0), 1.0, vec(2.0), vec(-2.0), PARAMS, SP, alpha0=0.5)
        assert out.status == ACCEPTED
        assert out.alpha == 0.5
        assert out.nf_used == 1

    def test_zero_slope_is_degenerate(self):
        oracle = InstrumentedOracle(problem_1d(lambda x: x * x, lambda x: 2.0 * x))
        out = standard_wolfe(oracle, vec(0.0), 0.0, vec(0.0), vec(1.0), PARAMS, SP, alpha0=1.0)
        assert out.status == DEGENERATE_DIRECTION
        assert out.nf_used == 0

    @pytest.mark.parametrize("search", [standard_wolfe, modified_wolfe])
    def test_infinite_slope_is_degenerate(self, search):
        oracle = InstrumentedOracle(problem_1d(lambda x: x * x, lambda x: 2.0 * x))
        # g^T d of g = 1e200, d = -1e200 overflows to -inf
        out = search(oracle, vec(0.5), 0.25, vec(1e200), vec(-1e200), PARAMS, SP, 1.0, gd=-np.inf)
        assert out.status == DEGENERATE_DIRECTION
        assert out.nf_used == oracle.nf == 0

    def test_linear_objective_exhausts_trials(self):
        # phi' is constant, the curvature condition never holds.
        oracle = InstrumentedOracle(problem_1d(lambda x: -x, lambda x: -1.0))
        out = standard_wolfe(oracle, vec(0.0), 0.0, vec(-1.0), vec(1.0), PARAMS, SP, alpha0=1.0)
        assert out.status == MAX_TRIALS_EXCEEDED

    def test_expansion_stops_at_alpha_max(self):
        # Every trial on f = -x passes Armijo and points downhill, so the
        # search doubles 1, 2, ..., 2**19 and then tries ALPHA_MAX once.
        oracle = InstrumentedOracle(problem_1d(lambda x: -x, lambda x: -1.0))
        out = standard_wolfe(oracle, vec(0.0), 0.0, vec(-1.0), vec(1.0), PARAMS, SP, alpha0=1.0)
        assert out.status == MAX_TRIALS_EXCEEDED
        assert out.nf_used == oracle.nf == 21 < MAX_TRIALS


class TestModifiedWolfe:
    def test_negative_mu_rejects_short_step(self):
        # f = x^3 at x = 1, d = -1: the trial alpha = 0.5 has mu = -0.125 and
        # fails the corrected curvature test, so the engine must move on.
        oracle = InstrumentedOracle(problem_1d(lambda x: x**3, lambda x: 3.0 * x * x))
        sp = SecantParams(m=3)
        out = modified_wolfe(oracle, vec(1.0), 1.0, vec(3.0), vec(-1.0), PARAMS, sp, alpha0=0.5)
        assert out.status == ACCEPTED
        assert out.alpha != 0.5
        assert out.alpha == 1.0  # x lands on the stationary point of x^3
        assert out.nf_used == 2

    def test_accepted_step_carries_secant_bundle(self):
        p = problem("ext_rosenbrock", 10)
        oracle = InstrumentedOracle(p)
        f, g = p.objective(p.start), p.gradient(p.start)
        d = -g
        sp = SecantParams(m=3)
        out = modified_wolfe(
            oracle, p.start, f, g, d, PARAMS, sp, alpha0=1.0 / norm_inf(g)
        )
        assert out.status == ACCEPTED
        sec = out.secant
        np.testing.assert_allclose(sec.s, out.alpha * d)
        np.testing.assert_allclose(sec.y, out.g_new - g)
        np.testing.assert_allclose(sec.z, sec.y + sec.t * sec.s)

    def test_degenerate_direction(self):
        p = problem("qf1", 4)
        oracle = InstrumentedOracle(p)
        g = p.gradient(p.start)
        sp = SecantParams(m=3)
        out = modified_wolfe(oracle, p.start, 1.0, g, g, PARAMS, sp, alpha0=1.0)  # ascent
        assert out.status == DEGENERATE_DIRECTION

    def test_alpha_underflow_reports_failure(self):
        oracle = InstrumentedOracle(problem_1d(lambda x: -x, lambda x: -1.0))
        sp = SecantParams(m=3)
        out = modified_wolfe(
            oracle, vec(0.0), 0.0, vec(-1.0), vec(1e-200), PARAMS, sp, alpha0=5e-124
        )
        assert out.status == MAX_TRIALS_EXCEEDED

    def test_reduction_to_standard_on_dyadic_quadratic(self):
        # mu evaluates to exactly 0 on a dyadic quadratic state, so both
        # searches walk identical trial sequences and accept the same alpha.
        make = lambda: InstrumentedOracle(problem_1d(lambda x: 0.5 * x * x, lambda x: x))
        sp = SecantParams(m=3)
        a = standard_wolfe(make(), vec(1.0), 0.5, vec(1.0), vec(-1.0), PARAMS, sp, 0.25)
        b = modified_wolfe(make(), vec(1.0), 0.5, vec(1.0), vec(-1.0), PARAMS, sp, 0.25)
        assert a.status == b.status == ACCEPTED
        assert a.alpha == b.alpha
        assert a.nf_used == b.nf_used

    def test_reduction_to_standard_on_qf1(self):
        p = problem("qf1", 5)
        f, g = p.objective(p.start), p.gradient(p.start)
        d = -g
        sp = SecantParams(m=3)
        a = standard_wolfe(InstrumentedOracle(p), p.start, f, g, d, PARAMS, sp, 0.2)
        b = modified_wolfe(InstrumentedOracle(p), p.start, f, g, d, PARAMS, sp, 0.2)
        assert a.status == b.status == ACCEPTED
        assert a.alpha == b.alpha
        assert a.nf_used == b.nf_used


class TestAccounting:
    def test_counts_match_oracle_deltas(self):
        p = problem("ext_beale", 8)
        oracle = InstrumentedOracle(p)
        f, g = oracle.eval_fg(p.start)
        before = (oracle.nf, oracle.ng)
        out = modified_wolfe(oracle, p.start, f, g, -g, PARAMS, SP, alpha0=1.0 / norm_inf(g))
        assert out.status == ACCEPTED
        assert out.nf_used == oracle.nf - before[0]
        assert out.nf_used == oracle.ng - before[1]  # one f and one g per trial


class TestAcceptedBundleOnly:
    """The secant bundle is built once, for the accepted trial only."""

    @pytest.fixture
    def z_calls(self, monkeypatch):
        calls = []

        def counted(y, s, t):
            calls.append(t)
            return z_vector(y, s, t)

        monkeypatch.setattr(specgrad.linesearch, "z_vector", counted)
        return calls

    @pytest.mark.parametrize("name", ["ext_rosenbrock", "ext_beale"])
    @pytest.mark.parametrize("modified", [True, False])
    def test_accepted_search_builds_one_bundle_equal_to_raw_rebuild(self, z_calls, name, modified):
        p = problem(name, 10)
        f, g = p.objective(p.start), p.gradient(p.start)
        d = -g
        sp = SecantParams(m=3)
        if modified:
            out = modified_wolfe(InstrumentedOracle(p), p.start, f, g, d, PARAMS, sp, 1.0)
        else:
            out = standard_wolfe(InstrumentedOracle(p), p.start, f, g, d, PARAMS, sp, 1.0)
        assert out.status == ACCEPTED
        assert out.nf_used >= 2
        assert len(z_calls) == 1

        alpha = out.alpha
        s = alpha * d
        y = out.g_new - g
        gd, gd_new, dd = dot(g, d), dot(out.g_new, d), dot(d, d)
        # The search takes mu in slope form, from raw scalars only.
        mu_raw = 2.0 * (f - out.f_new) + alpha * (gd + gd_new)
        t_raw = t_coefficient(mu_raw, alpha * (alpha * dd), sp.coefficient, PARAMS.C)
        sec = out.secant
        np.testing.assert_array_equal(out.x_new, p.start + s)
        np.testing.assert_array_equal(sec.s, s)
        np.testing.assert_array_equal(sec.y, y)
        assert sec.mu == mu_raw
        # The vector form differs only by rounding: mu is a difference of
        # O(|f|) terms, so compare on the scale of f and of the slope terms.
        scale = abs(f) + abs(out.f_new) + alpha * (abs(gd) + abs(gd_new))
        assert abs(sec.mu - mu(f, out.f_new, g, out.g_new, s)) <= 1e-14 * scale
        assert sec.t == t_raw
        np.testing.assert_array_equal(sec.z, z_vector(y, s, t_raw))
        assert out.slopes == (alpha, gd, gd_new, dd)

        checks = verify_accepted_step(
            f, g, d, out, PARAMS, modified=modified, order_coefficient=sp.coefficient
        )
        assert checks and all(checks.values()), checks

    @pytest.mark.parametrize("modified", [True, False])
    def test_failed_search_builds_no_bundle(self, z_calls, modified):
        oracle = InstrumentedOracle(problem_1d(lambda x: -x, lambda x: -1.0))
        sp = SecantParams(m=3)
        if modified:
            out = modified_wolfe(oracle, vec(0.0), 0.0, vec(-1.0), vec(1.0), PARAMS, sp, 1.0)
        else:
            out = standard_wolfe(oracle, vec(0.0), 0.0, vec(-1.0), vec(1.0), PARAMS, sp, 1.0)
        assert out.status == MAX_TRIALS_EXCEEDED
        assert out.nf_used > 1
        assert out.secant is None
        assert z_calls == []


class TestVerifier:
    def test_accepted_modified_step_verifies(self):
        p = problem("qf1", 30)
        oracle = InstrumentedOracle(p)
        f, g = p.objective(p.start), p.gradient(p.start)
        d = -g
        sp = SecantParams(m=3)
        out = modified_wolfe(oracle, p.start, f, g, d, PARAMS, sp, alpha0=1.0 / norm_inf(g))
        assert out.status == ACCEPTED
        checks = verify_accepted_step(
            f, g, d, out, PARAMS, modified=True,
            lipschitz=p.lipschitz_hint, order_coefficient=sp.coefficient,
        )
        assert checks == {
            "armijo": True, "curvature": True, "dz_curvature": True, "t_bounds": True,
        }

    def test_armijo_invariant_tolerance(self):
        p = problem("ext_himmelblau", 6)
        oracle = InstrumentedOracle(p)
        f, g = p.objective(p.start), p.gradient(p.start)
        d = -g
        out = standard_wolfe(oracle, p.start, f, g, d, PARAMS, SP, alpha0=0.01)
        assert out.status == ACCEPTED
        gd = dot(g, d)
        assert out.f_new <= f + PARAMS.rho * out.alpha * gd + 1e-12 * (1.0 + abs(f))
        assert dot(out.g_new, d) >= PARAMS.sigma * gd - 1e-12 * abs(gd)


class TestBracketZoom:
    def test_window_predicate_found_quickly(self):
        # Predicate accepting alpha in [0.4, 0.82] on phi = (1 - 2a)^2.
        def evaluate(alpha):
            f = (1.0 - 2.0 * alpha) ** 2
            dphi = -4.0 * (1.0 - 2.0 * alpha)
            return TrialPoint(alpha, f, dphi, alpha <= 0.82, alpha >= 0.4)

        best, trials, status = bracket_zoom(evaluate, 1.0, -4.0, alpha0=1.0)
        assert status == ACCEPTED
        assert 0.4 <= best.alpha <= 0.82
        assert trials <= 10

    def test_unsatisfiable_predicate_exhausts_budget(self):
        def evaluate(alpha):
            return TrialPoint(alpha, 1.0 + alpha, 1.0, False, False)

        best, trials, status = bracket_zoom(evaluate, 1.0, -1.0, alpha0=1.0)
        assert best is None
        assert status == MAX_TRIALS_EXCEEDED
        assert trials <= MAX_TRIALS

    def test_acceptable_alpha0_takes_one_trial(self):
        def evaluate(alpha):
            return TrialPoint(alpha, 0.5, -0.1, True, True)

        best, trials, status = bracket_zoom(evaluate, 1.0, -1.0, alpha0=0.7)
        assert status == ACCEPTED
        assert best.alpha == 0.7
        assert trials == 1

    def test_alpha0_capped_at_alpha_max(self):
        seen = []

        def evaluate(alpha):
            seen.append(alpha)
            return TrialPoint(alpha, 0.0, -0.1, True, True)

        best, trials, status = bracket_zoom(evaluate, 1.0, -1.0, alpha0=10.0 * ALPHA_MAX)
        assert (status, trials, seen) == (ACCEPTED, 1, [ALPHA_MAX])

    def test_nonpositive_alpha0_rejected(self):
        with pytest.raises(ValueError):
            bracket_zoom(lambda a: None, 1.0, -1.0, alpha0=0.0)

    def test_nonpositive_slope_rejected_without_trials(self):
        best, trials, status = bracket_zoom(lambda a: None, 1.0, 0.0, alpha0=1.0)
        assert (best, trials, status) == (None, 0, DEGENERATE_DIRECTION)
