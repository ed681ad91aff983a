import math
import tracemalloc
import weakref

import numpy as np
import pytest

import specgrad.linesearch
from specgrad.directions import DirectionParams
from specgrad.linesearch import (
    ACCEPTED,
    ALPHA_MAX,
    DEGENERATE_DIRECTION,
    MAX_TRIALS,
    MAX_TRIALS_EXCEEDED,
    WolfeParams,
    bracket_zoom,
    modified_wolfe,
    standard_wolfe,
)
from specgrad.numkit import dot, norm_inf
from specgrad.problems import InstrumentedOracle, Problem, problem
from specgrad.secant import mu, t_coefficient, z_vector
from specgrad.solver import AuditReport, default_config

from reference import violations


def vec(*vals):
    return np.array(vals, dtype=float)


def problem_1d(f, g, name="p1d"):
    return Problem(name, 1, lambda x: (float(f(x[0])), np.array([g(x[0])])), np.ones(1))


PARAMS = WolfeParams(rho=0.18, sigma=0.2)
COEF = DirectionParams(m=3).coefficient
CONFIG = default_config("scgmmwls:m=3")  # the audit's config: PARAMS and COEF


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
        out = standard_wolfe(oracle, vec(1.0), 1.0, vec(2.0), vec(-2.0), PARAMS, COEF, 1.0, -4.0)
        assert out.status == ACCEPTED
        assert 0.4 - 1e-9 <= out.alpha <= 0.82 + 1e-9
        assert out.nf_used <= 10

    def test_exact_minimizer_accepted_first(self):
        oracle = InstrumentedOracle(problem_1d(lambda x: x * x, lambda x: 2.0 * x))
        out = standard_wolfe(oracle, vec(1.0), 1.0, vec(2.0), vec(-2.0), PARAMS, COEF, 0.5, -4.0)
        assert out.status == ACCEPTED
        assert out.alpha == 0.5
        assert out.nf_used == 1

    def test_zero_slope_is_degenerate(self):
        oracle = InstrumentedOracle(problem_1d(lambda x: x * x, lambda x: 2.0 * x))
        out = standard_wolfe(oracle, vec(0.0), 0.0, vec(0.0), vec(1.0), PARAMS, COEF, 1.0, 0.0)
        assert out.status == DEGENERATE_DIRECTION
        assert out.nf_used == 0

    @pytest.mark.parametrize("search", [standard_wolfe, modified_wolfe])
    def test_infinite_slope_is_degenerate(self, search):
        oracle = InstrumentedOracle(problem_1d(lambda x: x * x, lambda x: 2.0 * x))
        # g^T d of g = 1e200, d = -1e200 overflows to -inf
        out = search(oracle, vec(0.5), 0.25, vec(1e200), vec(-1e200), PARAMS, COEF, 1.0, gd=-np.inf)
        assert out.status == DEGENERATE_DIRECTION
        assert out.nf_used == oracle.nf == 0

    def test_linear_objective_exhausts_trials(self):
        # phi' is constant, the curvature condition never holds.
        oracle = InstrumentedOracle(problem_1d(lambda x: -x, lambda x: -1.0))
        out = standard_wolfe(oracle, vec(0.0), 0.0, vec(-1.0), vec(1.0), PARAMS, COEF, 1.0, -1.0)
        assert out.status == MAX_TRIALS_EXCEEDED

    def test_expansion_stops_at_alpha_max(self):
        # Every trial on f = -x passes Armijo and points downhill, so the
        # search doubles 1, 2, ..., 2**19 and then tries ALPHA_MAX once.
        oracle = InstrumentedOracle(problem_1d(lambda x: -x, lambda x: -1.0))
        out = standard_wolfe(oracle, vec(0.0), 0.0, vec(-1.0), vec(1.0), PARAMS, COEF, 1.0, -1.0)
        assert out.status == MAX_TRIALS_EXCEEDED
        assert out.nf_used == oracle.nf == 21 < MAX_TRIALS


class TestModifiedWolfe:
    def test_negative_mu_rejects_short_step(self):
        # f = x^3 at x = 1, d = -1: the trial alpha = 0.5 has mu = -0.125 and
        # fails the corrected curvature test, so the engine must move on.
        oracle = InstrumentedOracle(problem_1d(lambda x: x**3, lambda x: 3.0 * x * x))
        out = modified_wolfe(oracle, vec(1.0), 1.0, vec(3.0), vec(-1.0), PARAMS, COEF, 0.5, -3.0)
        assert out.status == ACCEPTED
        assert out.alpha != 0.5
        assert out.alpha == 1.0  # x lands on the stationary point of x^3
        assert out.nf_used == 2

    def test_accepted_step_carries_secant_bundle(self):
        p = problem("ext_rosenbrock", 10)
        oracle = InstrumentedOracle(p)
        f, g = p.objective(p.start), p.gradient(p.start)
        d = -g
        out = modified_wolfe(
            oracle, p.start, f, g, d, PARAMS, COEF, 1.0 / norm_inf(g), dot(g, d)
        )
        assert out.status == ACCEPTED
        np.testing.assert_allclose(out.s, out.alpha * d)
        np.testing.assert_allclose(out.y, out.g_new - g)
        np.testing.assert_allclose(out.z, out.y + out.t * out.s)

    def test_degenerate_direction(self):
        p = problem("qf1", 4)
        oracle = InstrumentedOracle(p)
        g = p.gradient(p.start)
        out = modified_wolfe(oracle, p.start, 1.0, g, g, PARAMS, COEF, 1.0, dot(g, g))  # ascent
        assert out.status == DEGENERATE_DIRECTION

    def test_alpha_underflow_reports_failure(self):
        oracle = InstrumentedOracle(problem_1d(lambda x: -x, lambda x: -1.0))
        out = modified_wolfe(
            oracle, vec(0.0), 0.0, vec(-1.0), vec(1e-200), PARAMS, COEF, 5e-124, -1e-200
        )
        assert out.status == MAX_TRIALS_EXCEEDED

    def test_reduction_to_standard_on_dyadic_quadratic(self):
        # mu evaluates to exactly 0 on a dyadic quadratic state, so both
        # searches walk identical trial sequences and accept the same alpha.
        make = lambda: InstrumentedOracle(problem_1d(lambda x: 0.5 * x * x, lambda x: x))
        a = standard_wolfe(make(), vec(1.0), 0.5, vec(1.0), vec(-1.0), PARAMS, COEF, 0.25, -1.0)
        b = modified_wolfe(make(), vec(1.0), 0.5, vec(1.0), vec(-1.0), PARAMS, COEF, 0.25, -1.0)
        assert a.status == b.status == ACCEPTED
        assert a.alpha == b.alpha
        assert a.nf_used == b.nf_used

    def test_reduction_to_standard_on_qf1(self):
        p = problem("qf1", 5)
        f, g = p.objective(p.start), p.gradient(p.start)
        d = -g
        a = standard_wolfe(InstrumentedOracle(p), p.start, f, g, d, PARAMS, COEF, 0.2, dot(g, d))
        b = modified_wolfe(InstrumentedOracle(p), p.start, f, g, d, PARAMS, COEF, 0.2, dot(g, d))
        assert a.status == b.status == ACCEPTED
        assert a.alpha == b.alpha
        assert a.nf_used == b.nf_used


class TestAccounting:
    def test_counts_match_oracle_deltas(self):
        p = problem("ext_beale", 8)
        oracle = InstrumentedOracle(p)
        f, g = oracle.eval_fg(p.start)
        before = oracle.nf
        d = -g
        out = modified_wolfe(oracle, p.start, f, g, d, PARAMS, COEF, 1.0 / norm_inf(g), dot(g, d))
        assert out.status == ACCEPTED
        assert out.nf_used == oracle.nf - before  # one fused f and g per trial


class TestAcceptedBundleOnly:
    """The secant bundle is built once, for the accepted trial only; z, and mu
    and t on every trial, only by the modified search."""

    @pytest.fixture
    def z_calls(self, monkeypatch):
        calls = []

        def counted(y, s, t):
            calls.append(t)
            return z_vector(y, s, t)

        monkeypatch.setattr(specgrad.linesearch, "z_vector", counted)
        return calls

    @pytest.fixture
    def t_calls(self, monkeypatch):
        calls = []

        def counted(mu_value, s_norm_sq, coefficient, C):
            calls.append(mu_value)
            return t_coefficient(mu_value, s_norm_sq, coefficient, C)

        monkeypatch.setattr(specgrad.linesearch, "t_coefficient", counted)
        return calls

    @pytest.mark.parametrize("name", ["ext_rosenbrock", "ext_beale"])
    @pytest.mark.parametrize("modified", [True, False])
    def test_accepted_search_builds_one_bundle_equal_to_raw_rebuild(self, z_calls, t_calls, name, modified):
        p = problem(name, 10)
        f, g = p.objective(p.start), p.gradient(p.start)
        d = -g
        search = modified_wolfe if modified else standard_wolfe
        out = search(InstrumentedOracle(p), p.start, f, g, d, PARAMS, COEF, 1.0, dot(g, d))
        assert out.status == ACCEPTED
        assert out.nf_used >= 2
        assert len(z_calls) == int(modified)
        # The standard curvature test reads g_t^T d only, so that search takes
        # mu and t for the accepted trial alone; the modified test needs t on
        # every trial.
        assert len(t_calls) == (out.nf_used if modified else 1)

        alpha = out.alpha
        s = alpha * d
        y = out.g_new - g
        gd, gd_new, dd = dot(g, d), dot(out.g_new, d), dot(d, d)
        # The search takes mu in slope form, from raw scalars only.
        mu_raw = 2.0 * (f - out.f_new) + alpha * (gd + gd_new)
        t_raw = t_coefficient(mu_raw, alpha * (alpha * dd), COEF, PARAMS.C)
        np.testing.assert_array_equal(out.x_new, p.start + s)
        np.testing.assert_array_equal(out.s, s)
        np.testing.assert_array_equal(out.y, y)
        assert out.mu == mu_raw
        # The vector form differs only by rounding: mu is a difference of
        # O(|f|) terms, so compare on the scale of f and of the slope terms.
        scale = abs(f) + abs(out.f_new) + alpha * (abs(gd) + abs(gd_new))
        assert abs(out.mu - mu(f, out.f_new, g, out.g_new, s)) <= 1e-14 * scale
        assert out.t == t_raw
        if modified:
            np.testing.assert_array_equal(out.z, z_vector(y, s, t_raw))
        else:
            assert out.z is None
        assert (out.alpha, out.gd_old, out.gd_new, out.dd) == (alpha, gd, gd_new, dd)

        audit = AuditReport()
        audit.check_wolfe(f, g, d, out, CONFIG, None, modified)
        assert audit.steps == 1 and violations(audit) == 0, audit

    @pytest.mark.parametrize("modified", [True, False])
    def test_failed_search_builds_no_bundle(self, z_calls, t_calls, modified):
        oracle = InstrumentedOracle(problem_1d(lambda x: -x, lambda x: -1.0))
        search = modified_wolfe if modified else standard_wolfe
        out = search(oracle, vec(0.0), 0.0, vec(-1.0), vec(1.0), PARAMS, COEF, 1.0, -1.0)
        assert out.status == MAX_TRIALS_EXCEEDED
        assert out.nf_used > 1
        assert out.s is None and out.y is None and out.z is None
        assert z_calls == []
        assert len(t_calls) == (out.nf_used if modified else 0)


class TestTrialVectorsFreed:
    """A search keeps only the accepted trial's vectors; each rejected trial's
    x, g and s are freed as soon as the engine moves on."""

    @staticmethod
    def watched(p):
        """``p`` with an fg that records a weak reference to every x and g it sees."""
        refs = []

        def fg(x):
            f, g = p.fg(x)
            refs.extend((weakref.ref(x), weakref.ref(g)))
            return f, g

        return Problem(p.name, p.dim, fg, p.start), refs

    @pytest.mark.parametrize("search", [standard_wolfe, modified_wolfe])
    def test_only_the_accepted_x_and_g_outlive_the_search(self, search):
        plain = problem("ext_rosenbrock", 10)
        f, g = plain.fg(plain.start)
        d = -g
        p, refs = self.watched(plain)
        out = search(InstrumentedOracle(p), p.start, f, g, d, PARAMS, COEF, 1.0, dot(g, d))
        assert out.status == ACCEPTED
        assert out.nf_used >= 3 and len(refs) == 2 * out.nf_used
        alive = [obj for obj in (r() for r in refs) if obj is not None]
        assert len(alive) == 2 and alive[0] is out.x_new and alive[1] is out.g_new

    @pytest.mark.parametrize("search", [standard_wolfe, modified_wolfe])
    def test_failed_search_keeps_no_trial_vector(self, search):
        p, refs = self.watched(problem_1d(lambda x: -x, lambda x: -1.0))
        out = search(InstrumentedOracle(p), vec(0.0), 0.0, vec(-1.0), vec(1.0), PARAMS, COEF, 1.0, -1.0)
        assert out.status == MAX_TRIALS_EXCEEDED
        assert out.nf_used >= 3 and len(refs) == 2 * out.nf_used
        assert all(r() is None for r in refs)

    @pytest.mark.parametrize("modified", [True, False])
    def test_retained_memory_is_the_outcome_vectors(self, modified):
        # x_new, g_new, s and y, plus z from the modified search; a kept s or
        # x of any of the rejected trials would add one more vector each.
        n = 10000
        p = problem("ext_rosenbrock", n)
        f, g = p.fg(p.start)
        d = -g
        search = modified_wolfe if modified else standard_wolfe
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = search(InstrumentedOracle(p), p.start, f, g, d, PARAMS, COEF, 1.0, dot(g, d))
            retained = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert out.status == ACCEPTED and out.nf_used >= 3
        vectors = 4 + int(modified)
        assert vectors * 8 * n <= retained < (vectors + 0.5) * 8 * n


class TestVerifier:
    """The solver's audit re-checks an accepted step from the raw vectors."""

    def test_accepted_modified_step_verifies(self):
        p = problem("qf1", 30)
        oracle = InstrumentedOracle(p)
        f, g = p.objective(p.start), p.gradient(p.start)
        d = -g
        out = modified_wolfe(oracle, p.start, f, g, d, PARAMS, COEF, 1.0 / norm_inf(g), dot(g, d))
        assert out.status == ACCEPTED
        audit = AuditReport()
        audit.check_wolfe(f, g, d, out, CONFIG, p.lipschitz_hint, modified=True)
        assert violations(audit) == 0
        assert (audit.steps, audit.t_bound_checks) == (1, 1)

    def test_armijo_invariant_tolerance(self):
        p = problem("ext_himmelblau", 6)
        oracle = InstrumentedOracle(p)
        f, g = p.objective(p.start), p.gradient(p.start)
        d = -g
        out = standard_wolfe(oracle, p.start, f, g, d, PARAMS, COEF, 0.01, dot(g, d))
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
            return f, dphi, alpha <= 0.82, alpha >= 0.4

        alpha, trials, status = bracket_zoom(evaluate, 1.0, -4.0, alpha0=1.0)
        assert status == ACCEPTED
        assert 0.4 <= alpha <= 0.82
        assert trials <= 10

    def test_unsatisfiable_predicate_exhausts_budget(self):
        def evaluate(alpha):
            return 1.0 + alpha, 1.0, False, False

        alpha, trials, status = bracket_zoom(evaluate, 1.0, -1.0, alpha0=1.0)
        assert alpha is None
        assert status == MAX_TRIALS_EXCEEDED
        assert trials == MAX_TRIALS

    def test_acceptable_alpha0_takes_one_trial(self):
        def evaluate(alpha):
            return 0.5, -0.1, True, True

        alpha, trials, status = bracket_zoom(evaluate, 1.0, -1.0, alpha0=0.7)
        assert status == ACCEPTED
        assert alpha == 0.7
        assert trials == 1

    def test_alpha0_capped_at_alpha_max(self):
        seen = []

        def evaluate(alpha):
            seen.append(alpha)
            return 0.0, -0.1, True, True

        alpha, trials, status = bracket_zoom(evaluate, 1.0, -1.0, alpha0=10.0 * ALPHA_MAX)
        assert (status, trials, seen) == (ACCEPTED, 1, [ALPHA_MAX])
        assert alpha == ALPHA_MAX

    def test_nonpositive_alpha0_rejected(self):
        with pytest.raises(ValueError):
            bracket_zoom(lambda a: None, 1.0, -1.0, alpha0=0.0)

    def test_nonpositive_slope_rejected_without_trials(self):
        alpha, trials, status = bracket_zoom(lambda a: None, 1.0, 0.0, alpha0=1.0)
        assert (alpha, trials, status) == (None, 0, DEGENERATE_DIRECTION)

    def test_secant_expansion_lands_on_the_quadratic_minimizer(self):
        # phi = (alpha - 1)^2 from alpha0 = 1/64: the secant of phi' through
        # lo and each short trial has its zero at 1, so the steps grow by the
        # cap of 4 until 1 is within reach (doubling needs 7 trials).
        seen = []

        def evaluate(alpha):
            seen.append(alpha)
            return (alpha - 1.0) ** 2, 2.0 * (alpha - 1.0), alpha <= 1.5, alpha >= 0.9

        alpha, trials, status = bracket_zoom(evaluate, 1.0, -2.0, alpha0=1.0 / 64.0)
        assert seen == [1.0 / 64.0, 1.0 / 16.0, 0.25, 1.0]
        assert (status, trials, alpha) == (ACCEPTED, 4, 1.0)

    def test_secant_zero_below_twice_alpha_still_doubles(self):
        # phi' rises from -1 to -0.01 over [0, 1]: its secant vanishes at
        # 1 + 1/99 < 2, and the next trial is the floor 2 alpha.
        seen = []

        def evaluate(alpha):
            seen.append(alpha)
            return 1.0 - alpha, -0.01, True, alpha >= 2.0

        alpha, trials, status = bracket_zoom(evaluate, 1.0, -1.0, alpha0=1.0)
        assert seen == [1.0, 2.0]
        assert (status, trials, alpha) == (ACCEPTED, 2, 2.0)

    def test_trial_sequence_expands_past_a_nan_slope_brackets_and_zooms(self):
        # phi = (alpha - 2.7)^4 from alpha0 = 0.25.  The secant of phi' sends
        # the second trial to 0.9887.  That Armijo-ok trial reports a NaN
        # slope, so the expansion goes on by doubling: no secant runs through
        # a NaN, neither from it nor from the next trial, 1.98, whose lo it
        # is.  3.95 rises above f(1.98) and closes the bracket; the zoom then
        # moves lo until |phi'| <= 1e-4.
        f0, slope0 = 2.7**4, -4.0 * 2.7**3
        seen = []

        def evaluate(alpha):
            seen.append(alpha)
            f = (alpha - 2.7) ** 4
            dphi = math.nan if len(seen) == 2 else 4.0 * (alpha - 2.7) ** 3
            armijo_ok = f <= f0 + 0.1 * alpha * slope0
            return f, dphi, armijo_ok, abs(dphi) <= 1e-4

        alpha, trials, status = bracket_zoom(evaluate, f0, slope0, alpha0=0.25)
        assert seen[2] == 2.0 * seen[1]
        assert seen == [
            0.25, 0.9887228431495669, 1.9774456862991339, 3.9548913725982677,
            2.545761679489554, 2.6866746488004254,
        ]
        assert (status, trials, alpha) == (ACCEPTED, 6, seen[-1])
