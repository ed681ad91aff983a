import ast
import inspect

import numpy as np
import pytest

import specgrad.problems
from specgrad.numkit import dot, norm_inf
from specgrad.problems import (
    EvaluationError,
    Problem,
    check_points,
    family_names,
    InstrumentedOracle,
    gradient_check,
    problem,
)

ALL_NAMES = family_names()


class TestRegistry:
    def test_twelve_families(self):
        assert len(ALL_NAMES) == 12
        assert "arwhead" in ALL_NAMES and "qf1" in ALL_NAMES

    def test_standard_dims_instantiable(self):
        probs = [problem(name, d) for name in ALL_NAMES for d in (100, 1000, 10000)]
        assert len(probs) == 36
        assert all(p.start.shape == (p.dim,) for p in probs)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            problem("nosuch", 100)

    def test_unsupported_dimension(self):
        with pytest.raises(ValueError):
            problem("ext_rosenbrock", 101)
        with pytest.raises(ValueError):
            problem("arwhead", 1)

    def test_arwhead_at_ones(self):
        p = problem("arwhead", 4)
        assert p.objective(p.start) == pytest.approx(9.0)
        p = problem("arwhead", 100)
        assert p.objective(p.start) == pytest.approx(297.0)  # 3 (n - 1)

    def test_qf1_hand_values(self):
        p = problem("qf1", 3)
        assert p.objective(p.start) == pytest.approx(3.0)
        np.testing.assert_allclose(p.gradient(p.start), [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("dim", [100, 10000])
    def test_objective_and_gradient_finite_at_start(self, dim):
        for p in (problem(name, dim) for name in ALL_NAMES):
            assert np.isfinite(p.objective(p.start))
            assert np.all(np.isfinite(p.gradient(p.start)))

    def test_qf1_strictly_convex(self):
        p = problem("qf1", 20)
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = rng.standard_normal(20)
            assert dot(p.gradient(x), x) > 0.0


class TestInstrumented:
    def test_fresh_counters(self):
        oracle = InstrumentedOracle(problem("qf1", 5))
        assert (oracle.nf, oracle.ng) == (0, 0)

    def test_counter_contract_against_independent_tally(self):
        p = problem("engval1", 8)
        calls = 0

        def counted_fg(x):
            nonlocal calls
            calls += 1
            return p.fg(x)

        wrapped = type(p)(p.name, p.dim, counted_fg, p.start)
        oracle = InstrumentedOracle(wrapped)
        rng = np.random.default_rng(2)
        for _ in range(25):
            oracle.eval_fg(p.start + 0.1 * rng.standard_normal(p.dim))
        assert calls == oracle.nf == oracle.ng == 25

    def test_non_finite_objective_raises_with_context(self):
        p = problem("diagonal1", 4)
        oracle = InstrumentedOracle(p)
        x = np.full(4, 1000.0)  # exp overflow; numpy warns outside minimize
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(EvaluationError, match="objective") as err:
                oracle.eval_fg(x)
        assert err.value.problem_name == "diagonal1"
        np.testing.assert_array_equal(err.value.x, x)
        assert (oracle.nf, oracle.ng) == (1, 1)  # failed trials still count

    @pytest.mark.parametrize(
        "fg,what",
        [
            (lambda x: (1.0, np.array([0.0, np.nan, 0.0])), "gradient"),
            (lambda x: (1.0, np.array([0.0, 0.0, -np.inf])), "gradient"),
            (lambda x: (float("inf"), np.zeros(3)), "objective"),
            (lambda x: (np.float64("-inf"), np.zeros(3)), "objective"),
            (lambda x: (np.float64("nan"), np.zeros(3)), "objective"),
        ],
    )
    def test_eval_fg_rejects_non_finite_values_after_charging(self, fg, what):
        oracle = InstrumentedOracle(Problem("bad", 3, fg, np.zeros(3)))
        with pytest.raises(EvaluationError, match=what) as err:
            oracle.eval_fg(np.zeros(3))
        assert err.value.problem_name == "bad"
        assert (oracle.nf, oracle.ng) == (1, 1)


class TestGradientCheck:
    def test_qf1_passes(self):
        p = problem("qf1", 50)
        assert gradient_check(p, [p.start], tol=1e-6).passed

    def test_arwhead_passes(self):
        p = problem("arwhead", 50)
        assert gradient_check(p, [p.start], tol=1e-6).passed

    def test_mutated_gradient_fails(self):
        p = problem("qf1", 20)
        broken = type(p)(p.name, p.dim, lambda x: (p.objective(x), 1.01 * p.gradient(x)), p.start)
        assert not gradient_check(broken, [p.start], tol=1e-6).passed

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_every_problem_at_seeded_points(self, name):
        p = problem(name, 100)
        report = gradient_check(p, check_points(p), tol=1e-6)
        assert report.passed, f"{name}: worst rel error {report.worst:.3e}"

    def test_check_points_deterministic(self):
        p = problem("raydan1", 10)
        a = check_points(p)
        b = check_points(p)
        assert len(a) == 6
        for u, v in zip(a, b):
            np.testing.assert_array_equal(u, v)

    def test_tol_must_be_positive(self):
        p = problem("qf1", 5)
        with pytest.raises(ValueError):
            gradient_check(p, [p.start], tol=0.0)


# Reference kernels: the ``**`` forms the multiplication chains in
# specgrad.problems replace.  They go through libm ``pow`` and are slow, so
# they live here only as the accuracy oracle.


def _ref_ext_white_holst(x):
    u, v = x[0::2], x[1::2]
    f = float(np.sum(100.0 * (v - u**3) ** 2 + (1.0 - u) ** 2))
    r = v - u**3
    g = np.empty_like(x)
    g[0::2] = -600.0 * u * u * r - 2.0 * (1.0 - u)
    g[1::2] = 200.0 * r
    return f, g


def _ref_ext_beale(x):
    u, v = x[0::2], x[1::2]
    a = 1.5 - u * (1.0 - v)
    b = 2.25 - u * (1.0 - v * v)
    c = 2.625 - u * (1.0 - v**3)
    f = float(np.sum(a * a + b * b + c * c))
    g = np.empty_like(x)
    g[0::2] = -2.0 * a * (1.0 - v) - 2.0 * b * (1.0 - v * v) - 2.0 * c * (1.0 - v**3)
    g[1::2] = 2.0 * a * u + 4.0 * b * u * v + 6.0 * c * u * v * v
    return f, g


def _nondquar_q(x):
    n = x.size
    return x[: n - 2] + x[1 : n - 1] + x[-1]


def _ref_nondquar(x):
    n = x.size
    f = float((x[0] - x[1]) ** 2 + (x[-2] + x[-1]) ** 2 + np.sum(_nondquar_q(x) ** 4))
    q3 = 4.0 * _nondquar_q(x) ** 3
    g = np.zeros_like(x)
    g[: n - 2] += q3
    g[1 : n - 1] += q3
    g[-1] += np.sum(q3)
    g[0] += 2.0 * (x[0] - x[1])
    g[1] -= 2.0 * (x[0] - x[1])
    g[-2] += 2.0 * (x[-2] + x[-1])
    g[-1] += 2.0 * (x[-2] + x[-1])
    return f, g


REFERENCE_KERNELS = {
    "ext_white_holst": _ref_ext_white_holst,
    "ext_beale": _ref_ext_beale,
    "nondquar": _ref_nondquar,
}
KERNEL_RTOL = 1e-13


# The split kernels: each family's objective and gradient as the two separate
# closures ``fg`` replaced, copied unchanged.  ``fg`` only shares their common
# terms, so it must reproduce them bit for bit.


def _split_arwhead(n):
    def f(x):
        t = x[:-1] ** 2 + x[-1] ** 2
        return float(np.sum(t * t - 4.0 * x[:-1] + 3.0))

    def g(x):
        t = x[:-1] ** 2 + x[-1] ** 2
        out = np.empty_like(x)
        out[:-1] = 4.0 * x[:-1] * t - 4.0
        out[-1] = 4.0 * x[-1] * np.sum(t)
        return out

    return f, g


def _split_ext_rosenbrock(n):
    def f(x):
        u, v = x[0::2], x[1::2]
        return float(np.sum(100.0 * (v - u * u) ** 2 + (1.0 - u) ** 2))

    def g(x):
        u, v = x[0::2], x[1::2]
        r = v - u * u
        out = np.empty_like(x)
        out[0::2] = -400.0 * u * r - 2.0 * (1.0 - u)
        out[1::2] = 200.0 * r
        return out

    return f, g


def _split_ext_white_holst(n):
    def f(x):
        u, v = x[0::2], x[1::2]
        return float(np.sum(100.0 * (v - u * u * u) ** 2 + (1.0 - u) ** 2))

    def g(x):
        u, v = x[0::2], x[1::2]
        uu = u * u
        r = v - uu * u
        out = np.empty_like(x)
        out[0::2] = -600.0 * uu * r - 2.0 * (1.0 - u)
        out[1::2] = 200.0 * r
        return out

    return f, g


def _split_ext_beale(n):
    def f(x):
        u, v = x[0::2], x[1::2]
        vv = v * v
        a = 1.5 - u * (1.0 - v)
        b = 2.25 - u * (1.0 - vv)
        c = 2.625 - u * (1.0 - vv * v)
        return float(np.sum(a * a + b * b + c * c))

    def g(x):
        u, v = x[0::2], x[1::2]
        vv = v * v
        w1, w2, w3 = 1.0 - v, 1.0 - vv, 1.0 - vv * v
        a = 1.5 - u * w1
        b = 2.25 - u * w2
        c = 2.625 - u * w3
        out = np.empty_like(x)
        out[0::2] = -2.0 * a * w1 - 2.0 * b * w2 - 2.0 * c * w3
        out[1::2] = 2.0 * a * u + 4.0 * b * u * v + 6.0 * c * u * vv
        return out

    return f, g


def _split_diagonal1(n):
    idx = np.arange(1.0, n + 1.0)

    def f(x):
        return float(np.sum(np.exp(x) - idx * x))

    def g(x):
        return np.exp(x) - idx

    return f, g


def _split_raydan1(n):
    w = np.arange(1.0, n + 1.0) / 10.0

    def f(x):
        return float(np.sum(w * (np.exp(x) - x)))

    def g(x):
        return w * (np.exp(x) - 1.0)

    return f, g


def _split_eg2(n):
    def f(x):
        return float(np.sum(np.sin(x[0] + x[:-1] ** 2 - 1.0)) + 0.5 * np.sin(x[-1] ** 2))

    def g(x):
        c = np.cos(x[0] + x[:-1] ** 2 - 1.0)
        out = np.zeros_like(x)
        out[: n - 1] = 2.0 * x[: n - 1] * c
        out[0] += np.sum(c)
        out[-1] += x[-1] * np.cos(x[-1] ** 2)
        return out

    return f, g


def _split_engval1(n):
    def f(x):
        t = x[:-1] ** 2 + x[1:] ** 2
        return float(np.sum(t * t - 4.0 * x[:-1] + 3.0))

    def g(x):
        t = x[:-1] ** 2 + x[1:] ** 2
        out = np.zeros_like(x)
        out[:-1] += 4.0 * x[:-1] * t - 4.0
        out[1:] += 4.0 * x[1:] * t
        return out

    return f, g


def _split_fletchcr(n):
    def f(x):
        r = x[1:] - x[:-1] + 1.0 - x[:-1] ** 2
        return float(100.0 * np.sum(r * r))

    def g(x):
        r = x[1:] - x[:-1] + 1.0 - x[:-1] ** 2
        out = np.zeros_like(x)
        out[:-1] += 200.0 * r * (-1.0 - 2.0 * x[:-1])
        out[1:] += 200.0 * r
        return out

    return f, g


def _split_nondquar(n):
    def f(x):
        q = x[: n - 2] + x[1 : n - 1] + x[-1]
        qq = q * q
        return float((x[0] - x[1]) ** 2 + (x[-2] + x[-1]) ** 2 + np.sum(qq * qq))

    def g(x):
        q = x[: n - 2] + x[1 : n - 1] + x[-1]
        q3 = 4.0 * (q * q * q)
        out = np.zeros_like(x)
        out[: n - 2] += q3
        out[1 : n - 1] += q3
        out[-1] += np.sum(q3)
        out[0] += 2.0 * (x[0] - x[1])
        out[1] -= 2.0 * (x[0] - x[1])
        out[-2] += 2.0 * (x[-2] + x[-1])
        out[-1] += 2.0 * (x[-2] + x[-1])
        return out

    return f, g


def _split_ext_himmelblau(n):
    def f(x):
        u, v = x[0::2], x[1::2]
        a = u * u + v - 11.0
        b = u + v * v - 7.0
        return float(np.sum(a * a + b * b))

    def g(x):
        u, v = x[0::2], x[1::2]
        a = u * u + v - 11.0
        b = u + v * v - 7.0
        out = np.empty_like(x)
        out[0::2] = 4.0 * u * a + 2.0 * b
        out[1::2] = 2.0 * a + 4.0 * v * b
        return out

    return f, g


def _split_qf1(n):
    idx = np.arange(1.0, n + 1.0)

    def f(x):
        return float(0.5 * np.sum(idx * x * x))

    def g(x):
        return idx * x

    return f, g


SPLIT_KERNELS = {
    "arwhead": _split_arwhead,
    "ext_rosenbrock": _split_ext_rosenbrock,
    "ext_white_holst": _split_ext_white_holst,
    "ext_beale": _split_ext_beale,
    "diagonal1": _split_diagonal1,
    "raydan1": _split_raydan1,
    "eg2": _split_eg2,
    "engval1": _split_engval1,
    "fletchcr": _split_fletchcr,
    "nondquar": _split_nondquar,
    "ext_himmelblau": _split_ext_himmelblau,
    "qf1": _split_qf1,
}


class TestFusedKernels:
    def test_every_family_has_a_split_reference(self):
        assert sorted(SPLIT_KERNELS) == sorted(ALL_NAMES)

    @pytest.mark.parametrize("dim", [10, 1000])
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_fg_equals_the_split_kernels_bit_for_bit(self, name, dim):
        p = problem(name, dim)
        f_ref, g_ref = SPLIT_KERNELS[name](dim)
        for x in check_points(p):
            f, g = p.fg(x)
            assert type(f) is float
            assert f == f_ref(x)
            assert g.dtype == np.float64 and g.shape == x.shape
            assert np.array_equal(g, g_ref(x))

    def test_objective_and_gradient_are_the_fg_pair(self):
        p = problem("eg2", 10)
        x = check_points(p)[1]
        f, g = p.fg(x)
        assert p.objective(x) == f
        assert np.array_equal(p.gradient(x), g)


def _assert_matches_reference(p, x):
    f_ref, g_ref = REFERENCE_KERNELS[p.name](x)
    f, g = p.objective(x), p.gradient(x)
    assert np.isfinite(f) and np.isfinite(f_ref)
    assert np.all(np.isfinite(g)) and np.all(np.isfinite(g_ref))
    assert abs(f - f_ref) <= KERNEL_RTOL * abs(f_ref)
    np.testing.assert_allclose(g, g_ref, rtol=KERNEL_RTOL, atol=KERNEL_RTOL * norm_inf(g_ref))


class TestPowFreeKernels:
    @pytest.mark.parametrize("dim", [10, 1000])
    @pytest.mark.parametrize("name", sorted(REFERENCE_KERNELS))
    def test_match_pow_reference_at_check_points(self, name, dim):
        p = problem(name, dim)
        for x in check_points(p):
            _assert_matches_reference(p, x)

    @pytest.mark.parametrize("name", sorted(REFERENCE_KERNELS))
    def test_match_pow_reference_where_fourth_powers_underflow(self, name):
        p = problem(name, 1000)
        x = 1e-80 * check_points(p)[1]
        if name == "nondquar":
            assert np.any(_nondquar_q(x) ** 4 < np.finfo(float).tiny)  # subnormal or zero
        _assert_matches_reference(p, x)


def _non_square_powers(source: str) -> list[int]:
    """Line numbers of every ``**`` (or ``**=``) whose exponent is not the literal 2."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            exponent = node.right
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Pow):
            exponent = node.value
        else:
            continue
        if not (isinstance(exponent, ast.Constant) and type(exponent.value) is int and exponent.value == 2):
            lines.append(node.lineno)
    return sorted(lines)


class TestNoPowKernels:
    def test_problems_module_squares_only(self):
        source = inspect.getsource(specgrad.problems)
        assert _non_square_powers(source) == []

    def test_guard_flags_other_exponents(self):
        source = "a = x**2\nb = x**4\nc = x**2.0\nd = x**n\nx **= 3\n"
        assert _non_square_powers(source) == [2, 3, 4, 5]
