import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specgrad.linesearch
from specgrad.directions import DirectionParams
from specgrad.linesearch import (
    ACCEPTED,
    ALPHA_MAX,
    DEGENERATE_DIRECTION,
    MAX_TRIALS,
    MAX_TRIALS_EXCEEDED,
    LineSearchOutcome,
    WolfeParams,
    armijo_holds,
    bracket_zoom,
    curvature_holds,
    initial_alpha,
    modified_wolfe,
    standard_wolfe,
)
from specgrad.numkit import dot, norm_inf
from specgrad.problems import InstrumentedOracle, Problem, problem
from specgrad.secant import EPS, mu, t_coefficient, z_vector
from specgrad.solver import AuditReport, default_config

from reference import gradient, nonconvex_quartic, vector_mu, violations


def vec(*vals):
    return np.array(vals, dtype=float)


def problem_1d(f, g, name="p1d"):
    return Problem(name, lambda x: (float(f(x[0])), np.array([g(x[0])])), np.ones(1))


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

    # The one screen of a slope outside (-inf, 0): bracket_zoom relies on it.
    # -inf is g^T d of g = 1e200, d = -1e200, which overflows.
    @pytest.mark.parametrize("gd", [0.0, -0.0, 1.0, math.nan, -math.inf])
    @pytest.mark.parametrize("search", [standard_wolfe, modified_wolfe])
    def test_slope_outside_minus_inf_to_zero_is_degenerate(self, search, gd):
        oracle = InstrumentedOracle(problem_1d(lambda x: x * x, lambda x: 2.0 * x))
        out = search(oracle, vec(0.5), 0.25, vec(1e200), vec(-1e200), PARAMS, COEF, 1.0, gd=gd)
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
        # fails the corrected curvature test, so the engine must move on.  The
        # secant of phi' through 0 and 0.5 vanishes at 2/3, below the floor
        # 1.5 alpha, so the second trial is 0.75.
        oracle = InstrumentedOracle(problem_1d(lambda x: x**3, lambda x: 3.0 * x * x))
        out = modified_wolfe(oracle, vec(1.0), 1.0, vec(3.0), vec(-1.0), PARAMS, COEF, 0.5, -3.0)
        assert out.status == ACCEPTED
        assert out.alpha != 0.5
        assert out.alpha == 0.75  # x lands at 0.25, short of the stationary point of x^3
        assert out.nf_used == 2

    def test_standard_search_accepts_a_step_the_modified_one_rejects(self):
        # The modified search's reason to exist, at the paper's (rho, sigma):
        # the first trial alpha = 0.25 has mu = -22.9 and t = -0.0738, and
        # passes the standard curvature test although d^T z = 93.94 falls
        # short of (1 - sigma)|g^T d| = 94.6125.  The modified test is
        # d^T z >= (1 - sigma)|g^T d| at t < 0, so that search moves on to
        # alpha = 0.375, with d^T z = 99.80.  Both margins exceed 0.5% of
        # |g^T d|, far above the 1e-12 acceptance tolerance.
        p, params = nonconvex_quartic(), WolfeParams()
        f, g = p.objective(p.start), gradient(p, p.start)
        d = -g
        gd = dot(g, d)
        bound, margin = (1.0 - params.sigma) * abs(gd), 0.005 * abs(gd)
        assert bound == pytest.approx(94.6125, rel=1e-12)
        std = standard_wolfe(InstrumentedOracle(p), p.start, f, g, d, params, 3.0, 0.25, gd)
        assert (std.status, std.alpha, std.nf_used) == (ACCEPTED, 0.25, 1)
        assert std.mu == pytest.approx(-22.9, abs=0.05)
        assert std.t == pytest.approx(-0.0738, abs=1e-4)
        dz_std = dot(d, z_vector(std.y, std.s, std.t))
        assert dz_std == pytest.approx(93.94, abs=0.01) and dz_std < bound - margin
        mod = modified_wolfe(InstrumentedOracle(p), p.start, f, g, d, params, 3.0, 0.25, gd)
        assert (mod.status, mod.alpha, mod.nf_used) == (ACCEPTED, 0.375, 2)
        dz_mod = dot(d, mod.z)
        assert dz_mod == pytest.approx(99.80, abs=0.01) and dz_mod > bound + margin

    def test_accepted_step_carries_secant_bundle(self):
        p = problem("ext_rosenbrock", 10)
        oracle = InstrumentedOracle(p)
        f, g = p.objective(p.start), gradient(p, p.start)
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
        g = gradient(p, p.start)
        out = modified_wolfe(oracle, p.start, 1.0, g, g, PARAMS, COEF, 1.0, dot(g, g))  # ascent
        assert out.status == DEGENERATE_DIRECTION

    def test_alpha_underflow_reports_failure(self):
        oracle = InstrumentedOracle(problem_1d(lambda x: -x, lambda x: -1.0))
        out = modified_wolfe(
            oracle, vec(0.0), 0.0, vec(-1.0), vec(1e-200), PARAMS, COEF, 5e-124, -1e-200
        )
        assert out.status == MAX_TRIALS_EXCEEDED

    @pytest.mark.parametrize("search", [standard_wolfe, modified_wolfe])
    def test_mu_at_the_rounding_of_f_reads_as_zero(self, search):
        # f = 1 + x^4 from x = 1e-4 along d = -1, accepted at the first trial
        # x = 0.  f falls by 1e-16 < ulp(1), so f_t rounds to f, and the slope
        # form of mu is -4e-16, within 4 eps (|f| + |f_t|): both the step's mu
        # and its t read 0.
        oracle = InstrumentedOracle(problem_1d(lambda x: 1.0 + x**4, lambda x: 4.0 * x**3))
        f, g = oracle.eval_fg(vec(1e-4))
        gd = -g[0]
        out = search(oracle, vec(1e-4), f, g, vec(-1.0), PARAMS, COEF, 1e-4, gd)
        assert (out.status, out.nf_used, out.alpha, out.f_new) == (ACCEPTED, 1, 1e-4, f)
        raw = 2.0 * (f - out.f_new) + out.alpha * (gd + out.gd_new)
        assert 0.0 < abs(raw) <= 4.0 * EPS * (abs(f) + abs(out.f_new))
        assert out.mu == out.t == 0.0

    @pytest.mark.parametrize("search", [standard_wolfe, modified_wolfe])
    def test_mu_well_above_the_rounding_of_f_is_kept(self, search):
        # The same f from x = 1: mu = 2 (f - f_t) + alpha (g^T d + g_t^T d) = -2.
        oracle = InstrumentedOracle(problem_1d(lambda x: 1.0 + x**4, lambda x: 4.0 * x**3))
        f, g = oracle.eval_fg(vec(1.0))
        out = search(oracle, vec(1.0), f, g, vec(-1.0), PARAMS, COEF, 1.0, -g[0])
        assert (out.status, out.nf_used, out.alpha) == (ACCEPTED, 1, 1.0)
        assert out.mu == 2.0 * (f - out.f_new) + out.alpha * (-g[0] + out.gd_new) == -2.0
        assert out.t == t_coefficient(-2.0, 1.0, COEF, PARAMS.C) < 0.0

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
        f, g = p.objective(p.start), gradient(p, p.start)
        d = -g
        a = standard_wolfe(InstrumentedOracle(p), p.start, f, g, d, PARAMS, COEF, 0.2, dot(g, d))
        b = modified_wolfe(InstrumentedOracle(p), p.start, f, g, d, PARAMS, COEF, 0.2, dot(g, d))
        assert a.status == b.status == ACCEPTED
        assert a.alpha == b.alpha
        assert a.nf_used == b.nf_used


def last_step(alpha, gd_old, gd_new, dd):
    """An accepted outcome carrying only the scalars the next first trial reads."""
    return LineSearchOutcome(ACCEPTED, 1, 0.0, alpha, gd_old=gd_old, gd_new=gd_new, dd=dd)


class TestInitialAlpha:
    """alpha0 = min(a_sp, sqrt(a_sp a_bb)) when the last step had s^T y > 0, else a_sp."""

    def test_shanno_phua_when_s_y_is_not_positive(self):
        # a_sp = 0.5 (-4) / (-2) = 1; s^T y = 0 and s^T y < 0 keep it.
        for gd_new in (-4.0, -5.0):
            assert initial_alpha(last_step(0.5, -4.0, gd_new, 3.0), -2.0, 1.0) == 1.0

    def test_shanno_phua_when_q_is_not_finite(self):
        # s^T y / alpha = 2^-52 > 0, but q = alpha d^T d / 2^-52 overflows to inf.
        prev = last_step(0.5, -1.0, -1.0 + 2.0**-52, 1e300)
        assert math.isinf(prev.alpha * prev.dd / (prev.gd_new - prev.gd_old))
        assert initial_alpha(prev, -2.0, 1.0) == 0.25

    def test_shanno_phua_when_d_d_underflows(self):
        # d = 1e-170 has d^T d = 0 in double precision: no division by it.
        assert initial_alpha(last_step(0.5, -4.0, 2.0, 3.0), -2.0, 0.0) == 1.0

    def test_geometric_mean_when_the_bb_step_is_shorter(self):
        # a_sp = 1; q = 0.5 * 3 / 6 = 0.25, a_bb = 2 * 0.25 / 1 = 0.5.
        a_sp, a_bb = 0.5 * (-4.0 / -2.0), 2.0 * (0.5 * 3.0 / 6.0) / 1.0
        assert a_bb < a_sp
        assert initial_alpha(last_step(0.5, -4.0, 2.0, 3.0), -2.0, 1.0) == math.sqrt(a_sp * a_bb)

    @pytest.mark.parametrize("gd_new", [-3.9, -1.0, 0.0, 1.0, 1e3])
    @pytest.mark.parametrize("dd", [1e-6, 1.0, 1e6])
    def test_never_exceeds_shanno_phua(self, gd_new, dd):
        a_sp = 0.5 * (-4.0 / -2.0)
        assert initial_alpha(last_step(0.5, -4.0, gd_new, 3.0), -2.0, dd) <= a_sp

    def test_guards_on_the_shanno_phua_step(self):
        # A zero or non-finite quotient becomes 1 (s^T y <= 0 leaves it), and
        # no first trial falls below 1e-10.
        assert initial_alpha(last_step(0.5, 0.0, -1.0, 3.0), -2.0, 1.0) == 1.0
        assert initial_alpha(last_step(math.inf, -4.0, -5.0, 3.0), -2.0, 1.0) == 1.0
        assert initial_alpha(last_step(1e-300, -4.0, 2.0, 1e-300), -2.0, 1.0) == 1e-10

    @pytest.mark.parametrize("search", [standard_wolfe, modified_wolfe])
    def test_search_handed_the_last_step_starts_from_its_rule(self, search, monkeypatch):
        # alpha0 is ignored once prev is given; the rule reads the search's own d^T d.
        p = problem("ext_rosenbrock", 10)
        f, g = p.objective(p.start), gradient(p, p.start)
        d = -g
        prev = last_step(1e-3, -4.0, -1.0, 2.0)
        first = initial_alpha(prev, dot(g, d), dot(d, d))
        seen = []

        def first_trial_only(evaluate, f0, slope0, alpha0):
            seen.append(alpha0)
            return None, 0, MAX_TRIALS_EXCEEDED

        monkeypatch.setattr(specgrad.linesearch, "bracket_zoom", first_trial_only)
        search(InstrumentedOracle(p), p.start, f, g, d, PARAMS, COEF, 123.0, dot(g, d), prev)
        search(InstrumentedOracle(p), p.start, f, g, d, PARAMS, COEF, 123.0, dot(g, d))
        assert seen == [first, 123.0]

    @pytest.mark.parametrize("search", [standard_wolfe, modified_wolfe])
    def test_ascent_direction_ends_the_search_before_the_rule_runs(self, search):
        # The last step had s^T y > 0, so the rule would take the square root
        # of a_sp (-g^T d) q / d^T d < 0 for g^T d > 0: the search must end on
        # the direction before it asks for a first trial.
        oracle = InstrumentedOracle(problem_1d(lambda x: x * x, lambda x: 2.0 * x))
        prev = last_step(0.5, -4.0, 2.0, 3.0)
        assert prev.gd_new - prev.gd_old > 0.0
        out = search(oracle, vec(1.0), 1.0, vec(2.0), vec(1.0), PARAMS, COEF, 1.0, 2.0, prev)
        assert (out.status, out.nf_used, oracle.nf) == (DEGENERATE_DIRECTION, 0, 0)


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
    """Both searches take mu and t on every trial; the secant vectors are
    built once, for the accepted trial only, and z only by the modified search."""

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

    @pytest.fixture
    def mu_calls(self, monkeypatch):
        calls = []

        def counted(f_old, f_new, alpha, gd_old, gd_new):
            calls.append(alpha)
            return mu(f_old, f_new, alpha, gd_old, gd_new)

        monkeypatch.setattr(specgrad.linesearch, "mu", counted)
        return calls

    @pytest.mark.parametrize("name", ["ext_rosenbrock", "ext_beale"])
    @pytest.mark.parametrize("modified", [True, False])
    def test_accepted_search_builds_one_bundle_equal_to_raw_rebuild(
        self, z_calls, t_calls, mu_calls, name, modified
    ):
        p = problem(name, 10)
        f, g = p.objective(p.start), gradient(p, p.start)
        d = -g
        search = modified_wolfe if modified else standard_wolfe
        out = search(InstrumentedOracle(p), p.start, f, g, d, PARAMS, COEF, 1.0, dot(g, d))
        assert out.status == ACCEPTED
        assert out.nf_used >= 2
        assert len(z_calls) == int(modified)
        # One trial rule: each trial takes mu, then t from it, whether or not
        # its curvature test reads t; the last trial is the accepted one.
        assert len(mu_calls) == len(t_calls) == out.nf_used
        assert mu_calls[-1] == out.alpha and t_calls[-1] == out.mu

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
        assert abs(out.mu - vector_mu(f, out.f_new, g, out.g_new, s)) <= 1e-14 * scale
        assert out.t == t_raw
        if modified:
            np.testing.assert_array_equal(out.z, z_vector(y, s, t_raw))
        else:
            assert out.z is None
        assert (out.alpha, out.gd_old, out.gd_new, out.dd) == (alpha, gd, gd_new, dd)

        audit = AuditReport()
        audit.check_wolfe(f, g, d, out, CONFIG, None, modified)
        assert violations(audit) == 0, audit

    @pytest.mark.parametrize("modified", [True, False])
    def test_failed_search_builds_no_bundle(self, z_calls, t_calls, mu_calls, modified):
        oracle = InstrumentedOracle(problem_1d(lambda x: -x, lambda x: -1.0))
        search = modified_wolfe if modified else standard_wolfe
        out = search(oracle, vec(0.0), 0.0, vec(-1.0), vec(1.0), PARAMS, COEF, 1.0, -1.0)
        assert out.status == MAX_TRIALS_EXCEEDED
        assert out.nf_used > 1
        assert out.s is None and out.y is None and out.z is None
        assert z_calls == []
        assert len(mu_calls) == len(t_calls) == out.nf_used


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

        return Problem(p.name, fg, p.start), refs

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
        f, g = p.objective(p.start), gradient(p, p.start)
        d = -g
        out = modified_wolfe(oracle, p.start, f, g, d, PARAMS, COEF, 1.0 / norm_inf(g), dot(g, d))
        assert out.status == ACCEPTED
        audit = AuditReport()
        audit.check_wolfe(f, g, d, out, CONFIG, p.lipschitz_hint, modified=True)
        assert violations(audit) == 0

    def test_armijo_invariant_tolerance(self):
        p = problem("ext_himmelblau", 6)
        oracle = InstrumentedOracle(p)
        f, g = p.objective(p.start), gradient(p, p.start)
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

    def test_secant_expansion_lands_on_the_quadratic_minimizer(self):
        # phi = (alpha - 1)^2 from alpha0 = 1/64: the secant of phi' through
        # lo = 0 and the short first trial has its zero at 1, and the next
        # trial goes there however far it is (doubling needs 7 trials).
        seen = []

        def evaluate(alpha):
            seen.append(alpha)
            return (alpha - 1.0) ** 2, 2.0 * (alpha - 1.0), alpha <= 1.5, alpha >= 0.9

        alpha, trials, status = bracket_zoom(evaluate, 1.0, -2.0, alpha0=1.0 / 64.0)
        assert seen == [1.0 / 64.0, 1.0]
        assert (status, trials, alpha) == (ACCEPTED, 2, 1.0)

    def test_secant_zero_beyond_alpha_max_is_capped(self):
        # phi' = -1 + 1e-7 alpha: its secant through 0 and 1 vanishes at 1e7,
        # beyond ALPHA_MAX, so the second trial is ALPHA_MAX itself.
        seen = []

        def evaluate(alpha):
            seen.append(alpha)
            return 1.0 - alpha + 5e-8 * alpha * alpha, -1.0 + 1e-7 * alpha, True, alpha >= ALPHA_MAX

        alpha, trials, status = bracket_zoom(evaluate, 1.0, -1.0, alpha0=1.0)
        assert seen == [1.0, ALPHA_MAX]
        assert (status, trials, alpha) == (ACCEPTED, 2, ALPHA_MAX)

    def test_secant_zero_below_twice_alpha_still_doubles(self):
        # phi' rises from -1 to -0.01 over [0, 1]: its secant vanishes at
        # 1 + 1/99 < 1.5, and the next trial is the floor 1.5 alpha.  phi' does
        # not rise from 1 to 1.5, so the trial after that doubles.
        seen = []

        def evaluate(alpha):
            seen.append(alpha)
            return 1.0 - alpha, -0.01, True, alpha >= 2.0

        alpha, trials, status = bracket_zoom(evaluate, 1.0, -1.0, alpha0=1.0)
        assert seen == [1.0, 1.5, 3.0]
        assert (status, trials, alpha) == (ACCEPTED, 3, 3.0)

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


def fuzz_phi(a4, a2, c, b, omega):
    """phi(a) = a4 a^4 + a2 a^2 + a1 a + b sin(omega a) with phi'(0) = a1 + b omega = -c."""
    a1 = -c - b * omega

    def phi(alpha):
        f = a4 * alpha**4 + a2 * alpha**2 + a1 * alpha + b * math.sin(omega * alpha)
        dphi = 4.0 * a4 * alpha**3 + 2.0 * a2 * alpha + a1 + b * omega * math.cos(omega * alpha)
        return f, dphi

    return phi


class TestBracketZoomFuzz:
    """bracket_zoom on smooth quartic-plus-sine phi with phi'(0) < 0, under
    both (rho, sigma) pairs in use; derandomized, so tier-1 stays repeatable."""

    # A failing example makes hypothesis import libcst to print a patch, and
    # that import warns; as an error it would abort the session.
    @pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
    @pytest.mark.parametrize("rho,sigma", [(0.18, 0.2), (0.1, 0.9)])
    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(
        a4=st.floats(1e-3, 10.0),
        a2=st.floats(-5.0, 5.0),
        c=st.floats(1e-3, 10.0),
        b=st.floats(0.0, 2.0),
        omega=st.floats(0.1, 10.0),
        log_alpha0=st.floats(-6.0, 3.0),
    )
    def test_accepts_a_wolfe_step_within_budget(self, rho, sigma, a4, a2, c, b, omega, log_alpha0):
        phi = fuzz_phi(a4, a2, c, b, omega)
        f0, slope0 = phi(0.0)
        ftol = 1e-12 * (1.0 + abs(f0))  # bracket_zoom's f-comparison slack
        trials = []

        def evaluate(alpha):
            f, dphi = phi(alpha)
            flags = armijo_holds(f0, slope0, alpha, f, rho), curvature_holds(dphi, slope0, sigma)
            trials.append((alpha, f, dphi) + flags)
            return (f, dphi) + flags

        alpha, used, status = bracket_zoom(evaluate, f0, slope0, 10.0**log_alpha0)
        assert status == ACCEPTED
        assert used == len(trials) <= MAX_TRIALS
        assert all(0.0 < a <= ALPHA_MAX for a, *_ in trials)
        f, dphi = phi(alpha)
        assert armijo_holds(f0, slope0, alpha, f, rho) and curvature_holds(dphi, slope0, sigma)
        # Expansion: while no trial has closed a bracket, an Armijo trial below
        # lo's f that still points downhill is followed by one >= 1.5 times it.
        lo_f = f0
        for (a, f, dphi, armijo_ok, curv_ok), nxt in zip(trials, trials[1:]):
            if not (armijo_ok and f < lo_f + ftol and dphi < 0.0):
                break
            assert nxt[0] >= 1.5 * a or nxt[0] == ALPHA_MAX
            lo_f = f
