import math

import numpy as np
import pytest

from specgrad.numkit import dot, norm_inf

from reference import FiniteDifferenceSpec, fd_gradient, fd_hessian_action


def vec(*vals):
    return np.array(vals, dtype=float)


class TestDot:
    def test_direct_sum(self):
        assert dot(vec(1, 2), vec(3, 4)) == 11.0

    def test_norm_squared_identity(self):
        u = vec(0.5, -0.5)
        assert dot(u, u) == 0.5

    def test_orthogonality(self):
        assert dot(vec(1, 0, 0), vec(0, 1, 0)) == 0.0

    def test_symmetry_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            u = rng.standard_normal(31)
            v = rng.standard_normal(31)
            assert dot(u, v) == dot(v, u)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            dot(vec(1, 2), vec(1, 2, 3))

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 17, 100, 1000, 1001, 9999, 10000, 10002, 100001])
    def test_dot_with_negated_vector_is_negated_dot_bit_for_bit(self, n):
        # The solver hands -g^T g on as the slope of d = -g.  Under
        # round-to-nearest each product and partial sum of g^T (-g) is that of
        # g^T g negated exactly, as long as both sums add in the same order;
        # above n = 10000 OpenBLAS splits the sum over its threads, and a view
        # one element in puts g and -g on different alignments.
        buf = np.random.default_rng(n).standard_normal(n + 1)
        for scale in (1e-150, 1e-50, 1.0, 1e50, 1e150):
            scaled = scale * buf
            for g in (scaled[:n], scaled[1:]):
                assert float.hex(dot(g, -g)) == float.hex(-dot(g, g))


class TestNormInf:
    def test_norm_inf(self):
        assert norm_inf(vec(1, -3, 2)) == 3.0

    def test_empty(self):
        with pytest.raises(ValueError):
            norm_inf(vec())


def _special_vectors(n: int, rng) -> list:
    """Random vectors at three scales, four holding one NaN, +inf, -inf or -0.0, and all -0.0."""
    base = [rng.standard_normal(n), rng.standard_normal(n) * 1e-200, rng.standard_normal(n) * 1e150]
    special = []
    for value in (math.nan, math.inf, -math.inf, -0.0):
        u = rng.standard_normal(n)
        u[rng.integers(n)] = value
        special.append(u)
    return base + special + [np.full(n, -0.0)]


class TestMethodFormsBitExact:
    """The ndarray-method forms in ``numkit`` equal the numpy wrappers bit for bit."""

    @pytest.mark.parametrize("n", [1, 100, 10000])
    def test_dot_matches_np_dot(self, n):
        rng = np.random.default_rng(n)
        vectors = _special_vectors(n, rng)
        with np.errstate(all="ignore"):
            for u in vectors:
                for v in vectors:
                    assert float.hex(dot(u, v)) == float.hex(float(np.dot(u, v)))

    @pytest.mark.parametrize("n", [1, 100, 10000])
    def test_norm_inf_matches_np_max_abs(self, n):
        rng = np.random.default_rng(n)
        for u in _special_vectors(n, rng):
            assert float.hex(norm_inf(u)) == float.hex(float(np.max(np.abs(u))))

    @pytest.mark.parametrize("n", [1, 100, 10000])
    def test_nan_propagates(self, n):
        u = np.random.default_rng(n).standard_normal(n)
        u[n // 2] = math.nan
        assert math.isnan(dot(u, np.ones(n))) and math.isnan(dot(np.ones(n), u))
        assert math.isnan(norm_inf(u))
        u[n // 2] = math.inf
        assert norm_inf(u) == math.inf


class TestFiniteDifference:
    def test_spec_requires_positive_h(self):
        with pytest.raises(ValueError):
            FiniteDifferenceSpec(h=0.0)

    def test_gradient_square(self):
        f = lambda v: float(v[0] ** 2)
        g = fd_gradient(f, vec(1.0), FiniteDifferenceSpec(h=1e-5))
        assert g[0] == pytest.approx(2.0, abs=1e-8)

    def test_gradient_cube(self):
        # central-difference truncation is h^2 f'''/6 = (1e-4)^2 * 6/6 = 1e-8
        f = lambda v: float(v[0] ** 3)
        g = fd_gradient(f, vec(1.0), FiniteDifferenceSpec(h=1e-4))
        assert g[0] == pytest.approx(3.0, abs=1e-6)

    def test_gradient_constant(self):
        f = lambda v: 4.25
        g = fd_gradient(f, vec(0.3, -0.7, 2.0), FiniteDifferenceSpec(h=1e-6))
        np.testing.assert_array_equal(g, np.zeros(3))

    def test_hessian_action_square(self):
        f = lambda v: float(v[0] ** 2)
        val = fd_hessian_action(f, vec(0.0), vec(1.0), FiniteDifferenceSpec(h=1e-4))
        assert val == pytest.approx(2.0, abs=1e-6)

    def test_hessian_action_cube(self):
        # s^2 * 6x = 0.25 * 6 at x = 1
        f = lambda v: float(v[0] ** 3)
        val = fd_hessian_action(f, vec(1.0), vec(0.5), FiniteDifferenceSpec(h=1e-4))
        assert val == pytest.approx(1.5, abs=1e-5)

    def test_hessian_action_linear(self):
        # h large enough that cancellation roundoff eps/h^2 stays below 1e-8
        f = lambda v: float(3.0 * v[0] - v[1])
        val = fd_hessian_action(f, vec(1.0, 2.0), vec(0.4, -0.3), FiniteDifferenceSpec(h=1e-2))
        assert val == pytest.approx(0.0, abs=1e-8)

    def test_hessian_action_length_mismatch(self):
        # x + h*s would broadcast a length-1 s over x without the check.
        f = lambda v: float(v @ v)
        with pytest.raises(ValueError):
            fd_hessian_action(f, vec(1.0, 2.0), vec(1.0), FiniteDifferenceSpec(h=1e-4))

    def test_hessian_action_h_independent_on_quadratics(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 4))
        hess = a @ a.T + np.eye(4)
        f = lambda v: float(0.5 * v @ hess @ v)
        x = rng.standard_normal(4)
        s = rng.standard_normal(4)
        exact = float(s @ hess @ s)
        for h in (1e-1, 1e-2, 1e-3, 1e-4):
            val = fd_hessian_action(f, x, s, FiniteDifferenceSpec(h=h))
            assert val == pytest.approx(exact, rel=1e-6)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_non_finite_evaluation_raises(self):
        f = lambda v: float(np.exp(v[0]))
        with pytest.raises(ArithmeticError):
            fd_gradient(f, vec(1000.0), FiniteDifferenceSpec(h=1e-6))
