import dataclasses
import math

import numpy as np
import pytest

from specgrad.directions import DirectionParams
from specgrad.linesearch import WolfeParams
from specgrad.problems import Problem
from specgrad.secant import (
    EPS,
    mu,
    t_coefficient,
    v_vector_m2,
    z_vector,
)

from reference import DegenerateStepError, hessian_error, m2_coefficient, make_secant, vector_mu


def vec(*vals):
    return np.array(vals, dtype=float)


def v_m2(y, s, mu_value, m):
    """The M2 vector as the solver builds it: the coefficient first, then v."""
    return v_vector_m2(y, s, m2_coefficient(mu_value, float(s @ s), m))


def cubic_1d() -> Problem:
    return Problem(
        "cube", lambda x: (float(x[0] ** 3), np.array([3.0 * x[0] ** 2])), np.ones(1)
    )


# C of the modified search's default pair (rho, sigma) = (0.18, 0.2): 1/42.
C_DEFAULT = WolfeParams().C


class TestParams:
    def test_c_formula(self):
        p = WolfeParams(rho=0.18, sigma=0.2)
        assert p.C == pytest.approx((0.2 - 0.18) / (1 - 2 * 0.18 + 0.2))
        assert 0.0 < p.C < 1.0

    def test_infinity_coefficient_is_one(self):
        assert DirectionParams.parse("scgmmwls:m=inf").coefficient == 1.0
        assert DirectionParams(m=math.inf).coefficient == 1.0

    def test_finite_coefficients(self):
        assert DirectionParams(m=3).coefficient == 3.0
        assert DirectionParams(m=4).coefficient == 2.0

    @pytest.mark.parametrize("m", [2, 1, 3.5, -1, -math.inf, math.nan])
    def test_rejects_bad_orders(self, m):
        with pytest.raises(ValueError):
            DirectionParams(m=m)

    def test_rejects_bad_rho_sigma(self):
        with pytest.raises(ValueError):
            WolfeParams(rho=0.5, sigma=0.2)

    def test_direction_params_hold_no_rho_or_sigma(self):
        # rho and sigma live in WolfeParams alone, so no config holds two pairs.
        names = [f.name for f in dataclasses.fields(DirectionParams)]
        assert names == ["method", "m"]


class TestMu:
    """``mu`` is the slope form the solver takes for a step s = alpha d;
    ``vector_mu`` (reference.py) is the vector form for any s."""

    def test_cubic_hand_value(self):
        # f(x) = x^3 from 0.5 to 1: mu = 2(0.125 - 1) + (0.75 + 3) 0.5, s = 0.5 d with d = 1.
        val = vector_mu(0.125, 1.0, vec(0.75), vec(3.0), vec(0.5))
        assert val == pytest.approx(0.125, abs=1e-15)
        assert mu(0.125, 1.0, 0.5, 0.75, 3.0) == 0.125

    def test_quadratic_exactly_zero(self):
        # f = x^2 from 1 to 0.3: 2(0.91) + 2.6 (-0.7) = 0.  Along d = -1 the
        # slope form rounds to 2^-52, within f's rounding, so it reads 0.
        val = vector_mu(1.0, 0.09, vec(2.0), vec(0.6), vec(-0.7))
        assert abs(val) <= 1e-15
        assert 2.0 * (1.0 - 0.09) + 0.7 * (-2.0 - 0.6) == 2.0**-52
        assert mu(1.0, 0.09, 0.7, -2.0, -0.6) == 0.0

    def test_rounding_gate_is_4_eps_of_the_f_values(self):
        # With f_old = f_new = 1, mu is alpha (g_old^T d + g_new^T d) and the gate 8 eps.
        gate = 4.0 * EPS * (1.0 + 1.0)
        above = math.nextafter(gate, 1.0)
        assert mu(1.0, 1.0, 1.0, gate, 0.0) == mu(1.0, 1.0, 1.0, -gate, 0.0) == 0.0
        assert mu(1.0, 1.0, 1.0, above, 0.0) == above
        assert mu(1.0, 1.0, 1.0, 0.0, -above) == -above
        assert mu(0.0, 0.0, 1.0, 1e-300, 0.0) == 1e-300  # f = 0 carries no rounding

    def test_quadratic_exactness_seeded_forms(self):
        rng = np.random.default_rng(42)
        n = 12
        for _ in range(10):
            m_ = rng.standard_normal((n, n))
            hess = m_ @ m_.T + np.eye(n)
            b = rng.standard_normal(n)
            f = lambda x: float(0.5 * x @ hess @ x + b @ x)
            g = lambda x: hess @ x + b
            for _ in range(10):
                x0 = rng.standard_normal(n)
                s = rng.standard_normal(n)
                x1 = x0 + s
                f0, f1 = f(x0), f(x1)
                bound = 1e-9 * (1.0 + abs(f0) + abs(f1))
                assert abs(vector_mu(f0, f1, g(x0), g(x1), s)) <= bound
                assert abs(mu(f0, f1, 1.0, float(g(x0) @ s), float(g(x1) @ s))) <= bound


class TestTCoefficient:
    def test_positive_mu_order_3(self):
        coef = DirectionParams(m=3).coefficient
        assert t_coefficient(0.125, 0.25, coef, C_DEFAULT) == pytest.approx(1.5)

    def test_negative_mu_uses_c(self):
        coef = DirectionParams(m=3).coefficient
        assert t_coefficient(-0.84, 1.0, coef, C_DEFAULT) == pytest.approx(-0.02, abs=1e-15)

    def test_zero_mu_gives_zero(self):
        assert t_coefficient(0.0, 0.7, DirectionParams(m=5).coefficient, C_DEFAULT) == 0.0


class TestZandV:
    def test_cubic_exactness_order_3(self):
        # From the x^3 step 0.5 -> 1 with m = 3: z = 3.0 and s z = s f''(1) s.
        z = z_vector(vec(2.25), vec(0.5), 1.5)
        assert z[0] == pytest.approx(3.0)
        assert 0.5 * z[0] == pytest.approx(0.5 * 6.0 * 0.5)

    def test_zero_t_returns_y(self):
        np.testing.assert_array_equal(z_vector(vec(1, -1), vec(2, 0), 0.0), vec(1, -1))

    def test_componentwise_arithmetic(self):
        np.testing.assert_array_equal(z_vector(vec(1, -1), vec(2, 0), -0.5), vec(0, -1))

    def test_v_truncates_negative_mu(self):
        y = vec(1.0, 2.0)
        np.testing.assert_array_equal(v_m2(y, vec(1.0, 0.0), -5.0, 3), y)

    def test_v_is_y_itself_for_a_zero_coefficient(self):
        # v is only read, so a truncated mu neither copies y nor adds 0 * s.
        y = vec(1.0, 2.0)
        assert m2_coefficient(-5.0, 1.0, 3) == 0.0
        assert v_vector_m2(y, vec(1.0, 0.0), 0.0) is y

    def test_v_matches_z_for_positive_mu(self):
        v = v_m2(vec(2.25), vec(0.5), 0.125, 3)
        assert v[0] == pytest.approx(3.0)

    def test_v_order_4_coefficient(self):
        v = v_m2(np.zeros(3), vec(1, 0, 0), 1.0, 4)
        np.testing.assert_allclose(v, vec(2, 0, 0))

    def test_v_zero_step_rejected(self):
        with pytest.raises(DegenerateStepError):
            m2_coefficient(1.0, 0.0, 3)

    def test_make_secant_bundle(self):
        sec = make_secant(vec(0.5), vec(2.25), 0.125, DirectionParams(m=3).coefficient, C_DEFAULT)
        assert sec.t == pytest.approx(1.5)
        assert sec.z[0] == pytest.approx(3.0)


class TestHessianError:
    def test_cubic_order_3_exact(self):
        p = cubic_1d()
        for x, s in [(1.0, 0.01), (0.4, 0.005), (2.0, 0.02)]:
            err = hessian_error(p, vec(x), vec(s), 3)
            assert abs(err) <= 1e-10

    def test_cubic_order_infinity_leading_term(self):
        # error = (1/3) * 6 h^3 = 2 h^3 for f = x^3
        p = cubic_1d()
        h = 1e-3
        err = hessian_error(p, vec(1.0), vec(h), math.inf)
        assert err == pytest.approx(2.0 * h**3, rel=0.05)

    def test_quadratic_any_order(self):
        q = Problem(
            "quad",
            lambda x: (
                float(2.0 * x[0] ** 2 + 0.5 * x[1] ** 2 + x[0] * x[1]),
                np.array([4.0 * x[0] + x[1], x[1] + x[0]]),
            ),
            np.ones(2),
        )
        for m in (3, 4, 5, math.inf):
            err = hessian_error(q, vec(0.3, -0.2), vec(0.05, 0.02), m)
            assert abs(err) <= 1e-9

    def test_order_ratio_ordering_on_cube_sum(self):
        # On f = sum x_i^3 the error per h^3 approaches (m-3)/(3(m-2)) * 6 sum u_i^3.
        n = 5
        p = Problem("cube_sum", lambda x: (float(np.sum(x**3)), 3.0 * x * x), np.ones(n))
        u = np.arange(1.0, n + 1.0)
        u /= np.linalg.norm(u)
        su3 = float(np.sum(u**3))
        h = 1e-3
        err = hessian_error(p, np.ones(n), h * u, 4)
        assert err / h**3 == pytest.approx((1.0 / 6.0) * 6.0 * su3, rel=0.05)
