"""Direction formulas: the solver's ``next_direction`` on step records of
s = alpha d, and the independent vector forms of ``reference.py``."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from specgrad.directions import DirectionParams, next_direction, theta_bar
from specgrad.linesearch import WolfeParams
from specgrad.numkit import dot

from reference import (
    ETA,
    Degenerate,
    accepted_step,
    beta_dk,
    beta_m,
    make_secant,
    next_direction_dk,
    next_direction_jian,
    next_direction_m2,
    next_direction_scgmmwls,
    secant_step,
    theta_tilde,
)

PARAMS = DirectionParams(method="scgmmwls")
C_DEFAULT = WolfeParams().C  # 1/42, from the default (rho, sigma) = (0.18, 0.2)


def vec(*vals):
    return np.array(vals, dtype=float)


# State after the f = x^3 step from x=1 to x=0.5 with d = -1 and m = 3.
T_CUBIC = (1.0 / 42.0) * (-0.125 / 0.25)  # C mu / |s|^2 = -1/84
Z_CUBIC = -2.25 + T_CUBIC * (-0.5)  # y + t s = -2.2440476...
CUBIC = dict(g_new=vec(0.75), g_old=vec(3.0), d=vec(-1.0), s=vec(-0.5), z=vec(Z_CUBIC))


def update_fields(rec):
    """The direction update's own fields of a trace row, without the step's."""
    return (rec.beta, rec.theta, rec.truncated_theta, rec.truncated_beta, rec.restart, rec.gd)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            DirectionParams(method="bfgs")

    @pytest.mark.parametrize("m", [4, 7, math.inf])
    @pytest.mark.parametrize("method", ["dk", "jian"])
    def test_dk_and_jian_take_no_order(self, method, m):
        # m would move the t column of the trace, while the label still reads dk or jian.
        with pytest.raises(ValueError, match=f"{method} takes no order m"):
            DirectionParams(method, m=m)


class TestSolverId:
    """``DirectionParams.parse`` reads a solver id; ``label`` writes it back."""

    def test_parse_with_order(self):
        params = DirectionParams.parse("scgmmwls:m=3")
        assert (params.method, params.m) == ("scgmmwls", 3)
        assert params.label == "scgmmwls:m=3"

    def test_parse_infinity(self):
        params = DirectionParams.parse("m2:m=inf")
        assert math.isinf(params.m)
        assert params.label == "m2:m=inf"

    def test_plain_methods_have_no_order_suffix(self):
        assert DirectionParams.parse("dk").label == "dk"
        assert DirectionParams.parse("jian").label == "jian"

    def test_unknown_option_rejected(self):
        with pytest.raises(ValueError):
            DirectionParams.parse("dk:q=2")

    @pytest.mark.parametrize("text", ["dk:m=5", "jian:m=inf", "DK:m=3"])
    def test_order_suffix_only_on_scgmmwls_and_m2(self, text):
        with pytest.raises(ValueError, match="order suffix is only valid on scgmmwls and m2"):
            DirectionParams.parse(text)

    @pytest.mark.parametrize("text", ["scgmmwls:m=-inf", "m2:m=nan", "scgmmwls:m=2"])
    def test_orders_no_config_accepts_rejected(self, text):
        with pytest.raises(ValueError, match="order m"):
            DirectionParams.parse(text)

    @pytest.mark.parametrize(
        "params",
        [DirectionParams(method, m=m) for method in ("scgmmwls", "m2") for m in (3, 4, math.inf)]
        + [DirectionParams("scgmmwls", m=m) for m in (1234567, 10**7 + 1, 2**53)]
        + [DirectionParams("dk"), DirectionParams("jian")],
        ids=lambda p: p.label,
    )
    def test_label_parses_back_to_the_same_params(self, params):
        assert DirectionParams.parse(params.label) == params


class TestBetaM:
    def test_cubic_state_one_dimensional_degeneracy(self):
        # In one dimension beta_L cancels identically; beta_R = -3 loses the max.
        beta, truncated = beta_m(CUBIC["g_new"], CUBIC["g_old"], CUBIC["d"], CUBIC["z"])
        assert abs(beta) <= 1e-12
        assert not truncated

    def test_orthogonal_gradient_zeroes_beta_l(self):
        beta, truncated = beta_m(vec(0, 0, 1), vec(-1, 0, 0), vec(1, 1, 0), vec(0, 1, 0))
        assert beta == 0.0  # max(0, -1/2)
        assert not truncated

    def test_beta_r_branch_wins(self):
        beta, truncated = beta_m(vec(0, -3), vec(-1, 0), vec(1, 0), vec(1, 1))
        assert beta == -1.0  # beta_L = -3 < beta_R = -1 < 0
        assert truncated

    def test_degenerate_curvature(self):
        with pytest.raises(Degenerate, match=r"d\^T z"):
            beta_m(vec(1, 0), vec(1, 0), vec(1, 0), vec(0, 1))


class TestTheta:
    def test_cubic_state_value(self):
        th = theta_tilde(CUBIC["g_new"], CUBIC["s"], CUBIC["d"], CUBIC["z"], beta=0.0)
        assert th == pytest.approx(0.22282, abs=1e-5)

    def test_orthogonal_s_gives_zero(self):
        th = theta_tilde(vec(0, 1), vec(1, 0), vec(1, 1), vec(0, 2), beta=0.0)
        assert th == 0.0

    def test_identity_hessian_newton_like(self):
        # s = y = z = d and g_new = s: the quotient collapses to 1.
        one = vec(1.0)
        assert theta_tilde(one, one, one, one, beta=0.0) == 1.0

    def test_degenerate_spectral(self):
        with pytest.raises(Degenerate, match=r"g_new\^T z"):
            theta_tilde(vec(1, 0), vec(1, 1), vec(1, 1), vec(0, 1), beta=0.0)

    @pytest.mark.parametrize(
        "value,expected",
        [
            (0.22282, 1.0),  # below 0.251
            (0.5, 0.5),
            (25.0, 1.0),  # above tau = 10
            (0.251, 0.251),
            (10.0, 10.0),
            (math.nan, 1.0),
            (math.inf, 1.0),
        ],
    )
    def test_theta_bar_truncation(self, value, expected):
        assert theta_bar(value) == expected


class TestScgmmwls:
    def test_cubic_state_composes_to_steepest_descent(self):
        sec = secant_step(s=CUBIC["s"], y=vec(-2.25), mu=-0.125, t=T_CUBIC, z=CUBIC["z"])
        d, diag = next_direction_scgmmwls(CUBIC["g_new"], CUBIC["d"], CUBIC["g_old"], sec)
        assert d[0] == pytest.approx(-0.75, abs=1e-12)
        assert diag.theta == 1.0
        assert diag.truncated_theta
        assert not diag.restart

    def test_zero_gradient_yields_zero_direction(self):
        sec = secant_step(s=vec(0.5, 0), y=vec(1, 1), mu=0.0, t=0.0, z=vec(1, 1))
        d, diag = next_direction_scgmmwls(vec(0, 0), vec(-1, -1), vec(2, 2), sec)
        np.testing.assert_array_equal(d, vec(0, 0))
        assert not diag.restart

    def test_degenerate_curvature_restarts(self):
        sec = secant_step(s=vec(1, 0), y=vec(0, 1), mu=0.0, t=0.0, z=vec(0, 1))
        g_new = vec(0.3, -0.2)
        d, diag = next_direction_scgmmwls(g_new, vec(1, 0), vec(-1, 0), sec)
        np.testing.assert_array_equal(d, -g_new)
        assert diag.restart and diag.beta == 0.0 and diag.theta == 1.0

    def test_sufficient_descent_always_holds(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = 6
            g_new = rng.standard_normal(n)
            g_old = rng.standard_normal(n)
            d_prev = -g_old + 0.1 * rng.standard_normal(n)
            s = 0.05 * rng.standard_normal(n)
            y = g_new - g_old
            sec = make_secant(s, y, float(rng.standard_normal()), PARAMS.coefficient, C_DEFAULT)
            d, diag = next_direction_scgmmwls(g_new, d_prev, g_old, sec)
            gg = float(g_new @ g_new)
            assert float(g_new @ d) <= -ETA * gg + 1e-12 * gg
            assert diag.theta == 1.0 or 0.251 <= diag.theta <= 10.0

    def test_beta_m_never_below_beta_r(self):
        # Exact max semantics: the returned value dominates g_old.d / |d|^2.
        rng = np.random.default_rng(19)
        for _ in range(50):
            g_new = rng.standard_normal(5)
            g_old = rng.standard_normal(5)
            d = rng.standard_normal(5)
            z = rng.standard_normal(5)
            beta, _ = beta_m(g_new, g_old, d, z)
            assert beta >= float(g_old @ d) / float(d @ d)


class TestDk:
    def test_one_dimensional_cancellation(self):
        d, diag = next_direction_dk(vec(0.75), vec(-1.0), vec(-2.25))
        assert abs(diag.beta) <= 1e-12
        assert d[0] == pytest.approx(-0.75, abs=1e-12)

    def test_orthogonal_state_is_steepest_descent(self):
        g_new = vec(0, 0, 2)
        d, diag = next_direction_dk(g_new, vec(1, 1, 0), vec(1, -1, 0))
        np.testing.assert_allclose(d, -g_new)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(123)
        g_new = rng.standard_normal(3)
        d_prev = rng.standard_normal(3)
        y = rng.standard_normal(3)
        dy = sum(d_prev[i] * y[i] for i in range(3))
        beta_ref = (
            sum(y[i] * g_new[i] for i in range(3)) / dy
            - sum(y[i] * y[i] for i in range(3))
            * sum(d_prev[i] * g_new[i] for i in range(3))
            / dy**2
        )
        d_ref = [-g_new[i] + beta_ref * d_prev[i] for i in range(3)]
        d, diag = next_direction_dk(g_new, d_prev, y)
        if not diag.restart:
            assert diag.beta == pytest.approx(beta_ref, rel=1e-12)
            np.testing.assert_allclose(d, d_ref, rtol=1e-12)

    def test_degenerate_dy_restarts(self):
        g_new = vec(1, 1)
        d, diag = next_direction_dk(g_new, vec(1, 0), vec(0, 1))
        np.testing.assert_array_equal(d, -g_new)
        assert diag.restart


class TestJian:
    def test_truncates_theta_outside_range(self):
        g_new = vec(1.0, 1.0)
        y = vec(1e-8, 0.0)
        d, diag = next_direction_jian(g_new, vec(-1, -1), y, vec(-0.1, -0.1))
        assert diag.theta == 1.0
        assert diag.truncated_theta

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(456)
        g_new = rng.standard_normal(3)
        d_prev = -g_new + 0.2 * rng.standard_normal(3)
        y = rng.standard_normal(3)
        s = 0.3 * d_prev
        dy = float(d_prev @ y)
        yy = float(y @ y)
        dg = float(d_prev @ g_new)
        yg = float(y @ g_new)
        sg = float(s @ g_new)
        beta_ref = yg / dy - yy * dg / dy**2
        theta_plus = 1.0 - (yy * dg / dy - sg) / yg
        theta_ref = theta_plus if 0.251 <= theta_plus <= 10.0 else 1.0
        d_ref = -theta_ref * g_new + beta_ref * d_prev
        d, diag = next_direction_jian(g_new, d_prev, y, s)
        if not diag.restart:
            assert diag.beta == pytest.approx(beta_ref, rel=1e-12)
            assert diag.theta == pytest.approx(theta_ref, rel=1e-12)
            np.testing.assert_allclose(d, d_ref, rtol=1e-12)


class TestM2:
    def test_nonpositive_mu_equals_scgmmwls_with_zero_t(self):
        s, y = vec(0.4, -0.2), vec(1.0, 0.5)
        g_new, d_prev, g_old = vec(0.2, -0.9), vec(-1.0, 0.3), vec(1.1, -0.4)
        sec_m2 = secant_step(s=s, y=y, mu=-0.5, t=-0.1, z=y - 0.1 * s)
        sec_ref = secant_step(s=s, y=y, mu=-0.5, t=0.0, z=y)
        d_a, diag_a = next_direction_m2(g_new, d_prev, g_old, sec_m2, PARAMS)
        d_b, diag_b = next_direction_scgmmwls(g_new, d_prev, g_old, sec_ref)
        np.testing.assert_array_equal(d_a, d_b)
        assert diag_a == diag_b

    def test_positive_mu_coincides_with_scgmmwls(self):
        s, y = vec(0.4, -0.2), vec(1.0, 0.5)
        g_new, d_prev, g_old = vec(0.2, -0.9), vec(-1.0, 0.3), vec(1.1, -0.4)
        sec = make_secant(s, y, 0.7, PARAMS.coefficient, C_DEFAULT)
        d_a, diag_a = next_direction_m2(g_new, d_prev, g_old, sec, PARAMS)
        d_b, diag_b = next_direction_scgmmwls(g_new, d_prev, g_old, sec)
        np.testing.assert_array_equal(d_a, d_b)
        assert diag_a == diag_b


class TestNextDirection:
    """The solver's ``next_direction`` itself, on step records of s = alpha d."""

    D = vec(1.0, 0.0)

    @staticmethod
    def params(method):
        return DirectionParams(method)

    def test_beta_r_branch_wins(self):
        # z = (1, 2), d^T z = 1: beta_L = 6 - 5 * 2 = -4 < beta_R = g_old^T d = -1.
        step = accepted_step(vec(-1, 0), vec(2, 2), self.D, 1.0, mu=-1.0, t=-2.0)
        d, rec = next_direction(self.D, step, PARAMS)
        assert (rec.beta, rec.truncated_beta, rec.restart) == (-1.0, True, False)
        np.testing.assert_array_equal(d, vec(-3, -2))

    @pytest.mark.parametrize("method", ["scgmmwls", "m2", "dk", "jian"])
    def test_degenerate_curvature_restarts(self, method):
        # y = (0, 1/2) is orthogonal to d, and t = 0, so d^T w = 0.
        g_new = vec(-1, 0.5)
        step = accepted_step(vec(-1, 0), g_new, self.D, 1.0)
        d, rec = next_direction(self.D, step, self.params(method))
        np.testing.assert_array_equal(d, -g_new)
        assert rec.restart and rec.beta == 0.0 and rec.theta == 1.0
        # The next search's slope, as the search would take it from d itself.
        assert float.hex(rec.gd) == float.hex(dot(g_new, d)) == float.hex(-1.25)

    @pytest.mark.parametrize("method", ["scgmmwls", "m2", "jian"])
    def test_degenerate_spectral_denominator_gives_theta_one(self, method):
        # w = y = (1, 0) is orthogonal to g_new = (0, 1): theta is undefined.
        step = accepted_step(vec(-1, 1), vec(0, 1), self.D, 1.0)
        d, rec = next_direction(self.D, step, self.params(method))
        assert (rec.theta, rec.truncated_theta, rec.restart) == (1.0, True, False)
        np.testing.assert_array_equal(d, vec(0, -1))

    @pytest.mark.parametrize(
        "a,alpha,theta,truncated",
        [
            (1.0, 0.2, 1.0, True),  # theta~ = alpha / 2 = 0.1, below 1/4 + eta
            (1.0, 1.0, 0.5, False),
            (1.0, 20.0, 10.0, False),  # at tau
            (1.0, 40.0, 1.0, True),  # above tau
            (4.0, 1e308, 1.0, True),  # s^T g_new overflows: theta~ = inf
        ],
    )
    def test_theta_truncation(self, a, alpha, theta, truncated):
        # w = y = (a + 1, 0) gives beta = 0 and theta~ = alpha a / (a (a + 1)).
        g_new = vec(a, 1)
        step = accepted_step(vec(-1, 1), g_new, self.D, alpha)
        d, rec = next_direction(self.D, step, PARAMS)
        assert (rec.beta, rec.theta, rec.truncated_theta) == (0.0, theta, truncated)
        assert not rec.restart
        np.testing.assert_array_equal(d, -theta * g_new)

    def test_dk_restarts_when_rounding_breaks_descent(self):
        # beta_DK = 2^54: -g_new vanishes in the rounding of beta d, so
        # g_new^T d_new = 0 although it is -2 in exact arithmetic.
        g_new, prev_d = vec(1, 1), vec(1, -1)
        step = accepted_step(vec(0, 2.0**-53), g_new, prev_d, 1.0)
        d, rec = next_direction(prev_d, step, self.params("dk"))
        d_ref, diag = next_direction_dk(g_new, prev_d, step.y)
        for direction, record in ((d, rec), (d_ref, diag)):
            np.testing.assert_array_equal(direction, -g_new)
            assert record.restart and record.beta == 0.0
        # The slope of -g_new, not the descent test's 0 for the direction it rejected.
        assert float.hex(rec.gd) == float.hex(dot(g_new, -g_new)) == float.hex(-2.0)
        assert beta_dk(g_new, prev_d, step.y) == 2.0**54

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 8).flatmap(lambda n: st.lists(
        st.just(0.0) | st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3),
        min_size=3 * n, max_size=3 * n)))
    def test_dk_meets_the_spectral_descent_test(self, values):
        # g_new^T d_new = -|g|^2 + g^T u - |u|^2 <= -3/4 |g|^2 with
        # u = (g^T d / d^T y) y, whatever d^T y is; bounding |d^T y| below
        # bounds beta d against g, so rounding cannot break the bound.
        g_new, prev_d, y = np.array(values).reshape(3, -1)
        step = accepted_step(g_new - y, g_new, prev_d, 1.0)
        dy = step.gd_new - step.gd_old  # d^T y as the update reads it
        assume(abs(dy) >= 1e-3 * np.linalg.norm(prev_d) * np.linalg.norm(step.y) > 0.0)
        _, rec = next_direction(prev_d, step, self.params("dk"))
        assert not rec.restart
        assert rec.gd <= -0.74 * dot(g_new, g_new)

    def test_jian_truncates_theta(self):
        # theta+ = 1 - (|y|^2 d^T g / d^T y - s^T g) / y^T g is about -2e7.
        step = accepted_step(vec(1 - 1e-8, 1), vec(1, 1), vec(-1, -1), 0.1)
        _, rec = next_direction(vec(-1, -1), step, self.params("jian"))
        assert (rec.theta, rec.truncated_theta, rec.restart) == (1.0, True, False)

    @pytest.mark.parametrize("mu", [-0.5, 0.0])
    def test_m2_with_nonpositive_mu_equals_scgmmwls_with_zero_t(self, mu):
        g_old, g_new, prev_d = vec(1.1, -0.4), vec(0.2, -0.9), vec(-1.0, 0.3)
        m2_step = accepted_step(g_old, g_new, prev_d, 0.4, mu=mu, t=-0.1)
        ref_step = accepted_step(g_old, g_new, prev_d, 0.4, mu=mu, t=0.0)
        d_a, rec_a = next_direction(prev_d, m2_step, self.params("m2"))
        d_b, rec_b = next_direction(prev_d, ref_step, PARAMS)
        np.testing.assert_array_equal(d_a, d_b)
        assert update_fields(rec_a) == update_fields(rec_b)
        assert not rec_a.restart
        # The step fields are each step's own: only t differs between the two.
        assert (rec_a.alpha, rec_a.mu, rec_a.t) == (0.4, mu, -0.1)
        assert (rec_b.alpha, rec_b.mu, rec_b.t) == (0.4, mu, 0.0)

    def test_jian_equals_m2_with_nonpositive_mu_and_an_unfloored_beta(self):
        # beta_DK is beta_L at w = y and Jian's theta+ is theta~ at that beta,
        # so where m2 keeps beta_L (v = y at mu <= 0) the two are one update.
        rng = np.random.default_rng(33)
        compared = 0
        for k in range(2000):
            g_old, g_new, prev_d = rng.standard_normal((3, 6))
            mu = 0.0 if k % 4 == 0 else -float(rng.exponential())
            step = accepted_step(g_old, g_new, prev_d, float(rng.uniform(0.01, 2.0)),
                                 mu=mu, t=float(rng.standard_normal()))
            d_m2, rec_m2 = next_direction(prev_d, step, self.params("m2"))
            if rec_m2.truncated_beta:
                continue
            d_jian, rec_jian = next_direction(prev_d, step, self.params("jian"))
            np.testing.assert_array_equal(d_jian, d_m2)
            assert update_fields(rec_jian) == update_fields(rec_m2)
            compared += 1
        assert compared >= 500

    def test_m2_with_positive_mu_equals_scgmmwls(self):
        g_old, g_new, prev_d = vec(1.1, -0.4), vec(0.2, -0.9), vec(-1.0, 0.3)
        step = accepted_step(g_old, g_new, prev_d, 0.4, mu=0.7, t=1.3)
        d_a, rec_a = next_direction(prev_d, step, self.params("m2"))
        d_b, rec_b = next_direction(prev_d, step, PARAMS)
        np.testing.assert_array_equal(d_a, d_b)
        assert update_fields(rec_a) == update_fields(rec_b)
        assert (rec_a.alpha, rec_a.mu, rec_a.t) == (rec_b.alpha, rec_b.mu, rec_b.t) == (0.4, 0.7, 1.3)

    @pytest.mark.parametrize("method", ["scgmmwls", "m2", "jian"])
    def test_sufficient_descent_always_holds(self, method):
        rng = np.random.default_rng(17)
        params = self.params(method)
        for _ in range(50):
            g_old, g_new = rng.standard_normal(6), rng.standard_normal(6)
            prev_d = -g_old + 0.1 * rng.standard_normal(6)
            t = float(rng.standard_normal())
            step = accepted_step(g_old, g_new, prev_d, 0.05, mu=t, t=t)
            d, rec = next_direction(prev_d, step, params)
            gg = float(g_new @ g_new)
            assert float(g_new @ d) <= -ETA * gg + 1e-12 * gg
            assert rec.theta == 1.0 or 0.251 <= rec.theta <= 10.0
