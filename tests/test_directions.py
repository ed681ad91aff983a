import math

import numpy as np
import pytest

from specgrad.directions import (
    DegenerateCurvatureError,
    DegenerateSpectralError,
    DirectionParams,
    theta_bar,
)
from specgrad.linesearch import WolfeParams
from specgrad.secant import SecantData, SecantParams

from reference import (
    beta_m,
    make_secant,
    next_direction_dk,
    next_direction_jian,
    next_direction_m2,
    next_direction_scgmmwls,
    theta_tilde,
)

PARAMS = DirectionParams(method="scgmmwls", eta=1e-3, tau=10.0)
C_DEFAULT = WolfeParams().C  # 1/42, from the default (rho, sigma) = (0.18, 0.2)


def vec(*vals):
    return np.array(vals, dtype=float)


# State after the f = x^3 step from x=1 to x=0.5 with d = -1 and m = 3.
T_CUBIC = (1.0 / 42.0) * (-0.125 / 0.25)  # C mu / |s|^2 = -1/84
Z_CUBIC = -2.25 + T_CUBIC * (-0.5)  # y + t s = -2.2440476...
CUBIC = dict(g_new=vec(0.75), g_old=vec(3.0), d=vec(-1.0), s=vec(-0.5), z=vec(Z_CUBIC))


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            DirectionParams(method="scgmmwls", eta=0.0)
        with pytest.raises(ValueError):
            DirectionParams(method="scgmmwls", eta=0.1, tau=0.3)
        with pytest.raises(ValueError):
            DirectionParams(method="bfgs")


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
        with pytest.raises(DegenerateCurvatureError):
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
        with pytest.raises(DegenerateSpectralError):
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
        assert theta_bar(value, PARAMS) == expected


class TestScgmmwls:
    def test_cubic_state_composes_to_steepest_descent(self):
        sec = SecantData(s=CUBIC["s"], y=vec(-2.25), mu=-0.125, t=T_CUBIC, z=CUBIC["z"])
        d, diag = next_direction_scgmmwls(CUBIC["g_new"], CUBIC["d"], CUBIC["g_old"], sec, PARAMS)
        assert d[0] == pytest.approx(-0.75, abs=1e-12)
        assert diag.theta == 1.0
        assert diag.truncated_theta
        assert not diag.restart

    def test_zero_gradient_yields_zero_direction(self):
        sec = SecantData(s=vec(0.5, 0), y=vec(1, 1), mu=0.0, t=0.0, z=vec(1, 1))
        d, diag = next_direction_scgmmwls(vec(0, 0), vec(-1, -1), vec(2, 2), sec, PARAMS)
        np.testing.assert_array_equal(d, vec(0, 0))
        assert not diag.restart

    def test_degenerate_curvature_restarts(self):
        sec = SecantData(s=vec(1, 0), y=vec(0, 1), mu=0.0, t=0.0, z=vec(0, 1))
        g_new = vec(0.3, -0.2)
        d, diag = next_direction_scgmmwls(g_new, vec(1, 0), vec(-1, 0), sec, PARAMS)
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
            sec = make_secant(s, y, float(rng.standard_normal()), SecantParams(m=3), C_DEFAULT)
            d, diag = next_direction_scgmmwls(g_new, d_prev, g_old, sec, PARAMS)
            gg = float(g_new @ g_new)
            assert float(g_new @ d) <= -PARAMS.eta * gg + 1e-12 * gg
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
        d, diag = next_direction_dk(vec(0.75), vec(-1.0), vec(3.0), vec(-2.25))
        assert abs(diag.beta) <= 1e-12
        assert d[0] == pytest.approx(-0.75, abs=1e-12)

    def test_orthogonal_state_is_steepest_descent(self):
        g_new = vec(0, 0, 2)
        d, diag = next_direction_dk(g_new, vec(1, 1, 0), vec(-1, 0, 0), vec(1, -1, 0))
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
        d, diag = next_direction_dk(g_new, d_prev, rng.standard_normal(3), y)
        if not diag.restart:
            assert diag.beta == pytest.approx(beta_ref, rel=1e-12)
            np.testing.assert_allclose(d, d_ref, rtol=1e-12)

    def test_degenerate_dy_restarts(self):
        g_new = vec(1, 1)
        d, diag = next_direction_dk(g_new, vec(1, 0), vec(-1, 0), vec(0, 1))
        np.testing.assert_array_equal(d, -g_new)
        assert diag.restart


class TestJian:
    def test_truncates_theta_outside_range(self):
        g_new = vec(1.0, 1.0)
        y = vec(1e-8, 0.0)
        d, diag = next_direction_jian(g_new, vec(-1, -1), vec(2, 2), y, vec(-0.1, -0.1), PARAMS)
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
        d, diag = next_direction_jian(g_new, d_prev, rng.standard_normal(3), y, s, PARAMS)
        if not diag.restart:
            assert diag.beta == pytest.approx(beta_ref, rel=1e-12)
            assert diag.theta == pytest.approx(theta_ref, rel=1e-12)
            np.testing.assert_allclose(d, d_ref, rtol=1e-12)


class TestM2:
    def test_nonpositive_mu_equals_scgmmwls_with_zero_t(self):
        s, y = vec(0.4, -0.2), vec(1.0, 0.5)
        g_new, d_prev, g_old = vec(0.2, -0.9), vec(-1.0, 0.3), vec(1.1, -0.4)
        sec_m2 = SecantData(s=s, y=y, mu=-0.5, t=-0.1, z=y - 0.1 * s)
        sec_ref = SecantData(s=s, y=y, mu=-0.5, t=0.0, z=y)
        d_a, diag_a = next_direction_m2(g_new, d_prev, g_old, sec_m2, PARAMS)
        d_b, diag_b = next_direction_scgmmwls(g_new, d_prev, g_old, sec_ref, PARAMS)
        np.testing.assert_array_equal(d_a, d_b)
        assert diag_a == diag_b

    def test_positive_mu_coincides_with_scgmmwls(self):
        s, y = vec(0.4, -0.2), vec(1.0, 0.5)
        g_new, d_prev, g_old = vec(0.2, -0.9), vec(-1.0, 0.3), vec(1.1, -0.4)
        sec = make_secant(s, y, 0.7, SecantParams(m=3), C_DEFAULT)
        d_a, diag_a = next_direction_m2(g_new, d_prev, g_old, sec, PARAMS)
        d_b, diag_b = next_direction_scgmmwls(g_new, d_prev, g_old, sec, PARAMS)
        np.testing.assert_array_equal(d_a, d_b)
        assert diag_a == diag_b
