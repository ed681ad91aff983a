import ast
import inspect

import numpy as np
import pytest

import specgrad.directions
import specgrad.linesearch
import specgrad.numkit
import specgrad.problems
import specgrad.secant
import specgrad.solver
from specgrad.numkit import dot, norm_inf
from specgrad.problems import EvaluationError, InstrumentedOracle, Problem, family_names, problem

from reference import check_points, gradient, gradient_check

ALL_NAMES = family_names()


class TestRegistry:
    def test_twelve_families(self):
        assert len(ALL_NAMES) == 12
        assert "arwhead" in ALL_NAMES and "qf1" in ALL_NAMES

    def test_standard_dims_instantiable(self):
        probs = [problem(name, d) for name in ALL_NAMES for d in (100, 1000, 10000)]
        assert len(probs) == 36
        assert all(p.start.shape == (p.dim,) for p in probs)

    def test_dim_is_the_size_of_the_start(self):
        p = problem("ext_beale", 12)
        assert p.dim == p.start.size == 12 and type(p.dim) is int
        q = Problem("q", p.fg, np.ones(3))
        assert q.dim == 3

    def test_a_dim_apart_from_the_start_cannot_be_given(self):
        fg = problem("qf1", 4).fg
        with pytest.raises(TypeError):
            Problem("qf1", 4, fg, np.ones(4))  # the old (name, dim, fg, start) order
        with pytest.raises(TypeError):
            Problem("qf1", fg, np.ones(4), dim=4)
        with pytest.raises(TypeError):
            Problem("qf1", fg, np.ones(4), 4.0)  # lipschitz_hint is keyword-only

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
        np.testing.assert_allclose(gradient(p, p.start), [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("dim", [100, 10000])
    def test_objective_and_gradient_finite_at_start(self, dim):
        for p in (problem(name, dim) for name in ALL_NAMES):
            assert np.isfinite(p.objective(p.start))
            assert np.all(np.isfinite(gradient(p, p.start)))

    def test_qf1_strictly_convex(self):
        p = problem("qf1", 20)
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = rng.standard_normal(20)
            assert dot(gradient(p, x), x) > 0.0


class TestInstrumented:
    def test_fresh_counters(self):
        oracle = InstrumentedOracle(problem("qf1", 5))
        assert oracle.nf == 0

    def test_counter_contract_against_independent_tally(self):
        p = problem("engval1", 8)
        calls = 0

        def counted_fg(x):
            nonlocal calls
            calls += 1
            return p.fg(x)

        wrapped = type(p)(p.name, counted_fg, p.start)
        oracle = InstrumentedOracle(wrapped)
        rng = np.random.default_rng(2)
        for _ in range(25):
            oracle.eval_fg(p.start + 0.1 * rng.standard_normal(p.dim))
        assert calls == oracle.nf == 25  # one count per fused fg call

    def test_non_finite_objective_raises_with_context(self):
        p = problem("diagonal1", 4)
        oracle = InstrumentedOracle(p)
        x = np.full(4, 1000.0)  # exp overflow; numpy warns outside minimize
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(EvaluationError, match="^objective of 'diagonal1' is non-finite$"):
                oracle.eval_fg(x)
        assert oracle.nf == 1  # failed trials still count

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
        oracle = InstrumentedOracle(Problem("bad", fg, np.zeros(3)))
        with pytest.raises(EvaluationError, match=f"^{what} of 'bad' is non-finite$"):
            oracle.eval_fg(np.zeros(3))
        assert oracle.nf == 1

    @pytest.mark.parametrize("n", [1, 100, 10000])
    def test_gradient_raises_exactly_when_an_entry_is_not_finite(self, n):
        # eval_fg tests g^T g and falls back to the entrywise test only when
        # that product is not finite; the raising inputs must be the same.
        rng = np.random.default_rng(n)
        grads = []
        for _ in range(40):
            g = rng.standard_normal(n)
            bad = rng.integers(0, n, size=rng.integers(0, 4))  # empty: a finite g
            g[bad] = rng.choice([np.inf, -np.inf, np.nan], size=bad.size)
            grads.append(g)
        grads.append(np.zeros(n))
        served = iter(grads)
        oracle = InstrumentedOracle(Problem("injected", lambda x: (1.0, next(served)), np.zeros(n)))
        raised = 0
        for k, g in enumerate(grads, start=1):
            if np.isfinite(g).all():
                assert oracle.eval_fg(np.zeros(n))[1] is g
            else:
                raised += 1
                with pytest.raises(EvaluationError, match="gradient"):
                    oracle.eval_fg(np.zeros(n))
            assert oracle.nf == k  # charged before each raise
        assert 0 < raised < len(grads)

    def test_finite_gradient_whose_square_overflows_is_returned(self):
        """Entries of 1e200 are finite, but g^T g overflows to inf, so eval_fg
        falls back to the entrywise test and returns g unchanged.  This is the
        one input on which eval_fg can warn outside minimize, which mutes the
        warning as this test does."""
        grad = np.full(5, 1e200)
        grad[2] = -1e200
        oracle = InstrumentedOracle(Problem("huge", lambda x: (1.0, grad), np.zeros(5)))
        with np.errstate(over="ignore"):
            f, g = oracle.eval_fg(np.zeros(5))
        assert f == 1.0 and g is grad
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert oracle.eval_fg(np.zeros(5))[1] is grad
        assert oracle.nf == 2


class TestGradientCheck:
    def test_qf1_passes(self):
        p = problem("qf1", 50)
        assert gradient_check(p, [p.start], tol=1e-6).passed

    def test_arwhead_passes(self):
        p = problem("arwhead", 50)
        assert gradient_check(p, [p.start], tol=1e-6).passed

    def test_mutated_gradient_fails(self):
        p = problem("qf1", 20)
        broken = type(p)(p.name, lambda x: (p.objective(x), 1.01 * gradient(p, x)), p.start)
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
# closures ``fg`` replaced, with a scalar squared as a product, as ``fg`` squares
# it.  ``fg`` only shares their common terms, so it must reproduce them bit for bit.


def _split_arwhead(n):
    def f(x):
        t = x[:-1] ** 2 + x[-1] * x[-1]
        return float(np.sum(t * t - 4.0 * x[:-1] + 3.0))

    def g(x):
        t = x[:-1] ** 2 + x[-1] * x[-1]
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
        return float(np.sum(np.sin(x[0] + x[:-1] ** 2 - 1.0)) + 0.5 * np.sin(x[-1] * x[-1]))

    def g(x):
        c = np.cos(x[0] + x[:-1] ** 2 - 1.0)
        out = np.zeros_like(x)
        out[: n - 1] = 2.0 * x[: n - 1] * c
        out[0] += np.sum(c)
        out[-1] += x[-1] * np.cos(x[-1] * x[-1])
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
        head, tail = x[0] - x[1], x[-2] + x[-1]
        return float(head * head + tail * tail + np.sum(qq * qq))

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


# At this x, numpy's scalar ``x**2`` (libm ``pow``) is 0x1.0cffa18a75b34p-3, one
# ulp below the correctly rounded x * x = 0x1.0cffa18a75b35p-3.
SQUARE_X = np.float64(0.3624182010806754)
GOLDEN = 0.6180339887498949  # GOLDEN + GOLDEN**2 - 1.0 == 0.0, so eg2's other sine is 0
# (family, point, an output carrying one scalar square of SQUARE_X, that output
# rebuilt with the square ``sq``); every other term of the output is exact there.
SCALAR_SQUARE_CASES = [
    pytest.param("arwhead", [0.0, SQUARE_X], lambda f, g: g[-1],
                 lambda sq: 4.0 * SQUARE_X * sq(SQUARE_X), id="arwhead"),
    pytest.param("eg2", [GOLDEN, SQUARE_X], lambda f, g: f,
                 lambda sq: float(0.5 * np.sin(np.array([sq(SQUARE_X)]))[0]), id="eg2"),
    pytest.param("nondquar", [SQUARE_X, 0.0, SQUARE_X, -SQUARE_X], lambda f, g: f,
                 lambda sq: float(sq(SQUARE_X)), id="nondquar-head"),
    pytest.param("nondquar", [-SQUARE_X, -SQUARE_X, -SQUARE_X, 2.0 * SQUARE_X], lambda f, g: f,
                 lambda sq: float(sq(SQUARE_X)), id="nondquar-tail"),
]


# (family, point) where a scalar's pow square and its product give the split
# kernels different outputs: each scalar-square case's point, and two points for
# the outputs those leave blind, arwhead's f and eg2's g.
SQUARE_POINTS = [(case.values[0], case.values[1]) for case in SCALAR_SQUARE_CASES] + [
    ("arwhead", [1.0, SQUARE_X]),
    ("eg2", [GOLDEN, 0.9701113437864923]),
]
# The cells of the bit-for-bit comparison: every family at n = 10 and 1000, and
# each square point's family at the size of the point.
FUSED_CELLS = [(name, dim) for dim in (10, 1000) for name in ALL_NAMES] + sorted(
    {(name, len(point)) for name, point in SQUARE_POINTS}
)


class TestFusedKernels:
    def test_every_family_has_a_split_reference(self):
        assert sorted(SPLIT_KERNELS) == sorted(ALL_NAMES)

    @pytest.mark.parametrize("name, dim", FUSED_CELLS)
    def test_fg_equals_the_split_kernels_bit_for_bit(self, name, dim):
        p = problem(name, dim)
        f_ref, g_ref = SPLIT_KERNELS[name](dim)
        squares = [np.array(pt) for fam, pt in SQUARE_POINTS if (fam, len(pt)) == (name, dim)]
        for x in check_points(p) + squares:
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
        assert np.array_equal(gradient(p, x), g)


def _assert_matches_reference(p, x):
    f_ref, g_ref = REFERENCE_KERNELS[p.name](x)
    f, g = p.objective(x), gradient(p, x)
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


class TestScalarSquares:
    @pytest.mark.parametrize("name, point, output, rebuilt", SCALAR_SQUARE_CASES)
    def test_scalar_square_is_the_correctly_rounded_product(self, name, point, output, rebuilt):
        x = np.array(point)
        got = output(*problem(name, x.size).fg(x))
        assert got == rebuilt(lambda a: a * a)
        assert got != rebuilt(lambda a: a**2)  # the case tells product from pow


# numpy functions that only wrap an ndarray method or a ufunc in Python-level
# dispatch, and the ndarray reduction methods that still run through
# ``numpy/_core/_methods.py``; the hot path calls the C method itself
# (``u.dot(v)``, ``a.argmax()``) or the ufunc (``np.add.reduce(a)``), and
# allocates with ``np.zeros(n)``.
_NUMPY_WRAPPERS = {"sum", "max", "min", "all", "any", "dot", "zeros_like"}
_METHOD_WRAPPERS = {"sum", "prod", "max", "min", "all", "any", "mean"}
HOT_PATH_MODULES = [
    specgrad.problems,
    specgrad.numkit,
    specgrad.secant,
    specgrad.linesearch,
    specgrad.directions,
    specgrad.solver,
]


def _numpy_wrapper_calls(source: str) -> list[int]:
    """Line numbers of every call ``np.<f>(...)`` or ``numpy.<f>(...)`` with f a
    wrapper, and of every reduction method call ``<expr>.<m>(...)``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        owner, attr = node.func.value, node.func.attr
        if isinstance(owner, ast.Name) and owner.id in ("np", "numpy"):
            if attr in _NUMPY_WRAPPERS:
                lines.append(node.lineno)
        elif attr in _METHOD_WRAPPERS:
            lines.append(node.lineno)
    return sorted(lines)


class TestNoNumpyWrappersOnHotPath:
    @pytest.mark.parametrize("module", HOT_PATH_MODULES, ids=lambda m: m.__name__)
    def test_module_calls_methods_not_wrappers(self, module):
        assert _numpy_wrapper_calls(inspect.getsource(module)) == []

    def test_guard_flags_each_wrapper(self):
        source = (
            "a = np.sum(x)\n"
            "b = x.sum()\n"
            "c = np.max(np.abs(x))\n"
            "d = numpy.zeros_like(x)\n"
            "e = np.zeros(n)\n"
            "f = np.add.reduce(x)\n"
            "g = np.dot(u, v) + np.min(x)\n"
            "h = np.all(x) or np.any(x)\n"
            "k = float(u.dot(v))\n"
        )
        assert _numpy_wrapper_calls(source) == [1, 2, 3, 4, 7, 7, 8, 8]

    @pytest.mark.parametrize("method", sorted(_METHOD_WRAPPERS))
    def test_guard_flags_each_reduction_method(self, method):
        source = (
            f"a = x.{method}()\n"
            f"b = abs(u - v).{method}(axis=0)\n"
            f"c = x[1:].{method}() + 1.0\n"
        )
        assert _numpy_wrapper_calls(source) == [1, 2, 3]

    def test_guard_passes_ufunc_reductions_and_c_methods(self):
        source = (
            "a = np.add.reduce(x)\n"
            "b = np.logical_and.reduce(np.isfinite(g))\n"
            "c = abs(u)\n"
            "d = float(c[c.argmax()])\n"
            "e = float(u.dot(v)) + min(a, b)\n"
        )
        assert _numpy_wrapper_calls(source) == []
