"""The solver's scalar paths against the vector forms they replace.

Line-search trials take mu, |s|^2 and s^T d from g^T d, g_t^T d and d^T d
(s = alpha d), and the solver's ``next_direction`` takes its step scalars
from the search.  These tests run real searches and check that both paths
agree with the vector forms (``vector_mu`` and the independent direction
forms in ``reference.py``), and that neither takes more dot products than
its budget.
"""

import math

import numpy as np
import pytest

import specgrad.directions
import specgrad.linesearch
import specgrad.solver
from specgrad.directions import DirectionParams, next_direction
from specgrad.linesearch import ACCEPTED, WolfeParams, modified_wolfe, standard_wolfe
from specgrad.numkit import dot, norm_inf
from specgrad.problems import InstrumentedOracle, Problem, problem
from specgrad.solver import default_config, minimize

from reference import (
    gradient,
    m2_coefficient,
    next_direction_dk,
    next_direction_jian,
    next_direction_m2,
    next_direction_scgmmwls,
    vector_mu,
)

METHODS = ("scgmmwls", "m2", "dk", "jian")
FAMILIES = ("ext_rosenbrock", "ext_beale", "arwhead", "engval1", "diagonal1", "raydan1")


def search(oracle, x, f, g, d, cfg, alpha0):
    wolfe = modified_wolfe if cfg.direction.method == "scgmmwls" else standard_wolfe
    return wolfe(oracle, x, f, g, d, cfg.wolfe, cfg.direction.coefficient, alpha0, dot(g, d))


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def accepted_steps(name, n, solver, steps=5):
    """(f, g, d, outcome) for the first accepted steps of the solver's own update,
    under ``minimize``'s floating-point state: a far trial may overflow the
    oracle's g^T g, which warns only outside ``minimize``."""
    cfg = default_config(solver)
    p = problem(name, n)
    oracle = InstrumentedOracle(p)
    x = p.start.copy()
    f, g = oracle.eval_fg(x)
    d = -g
    out_steps = []
    for _ in range(steps):
        out = search(oracle, x, f, g, d, cfg, 1.0 / norm_inf(g))
        assert out.status == ACCEPTED
        out_steps.append((f, g, d, out))
        d_new, _ = next_direction(d, out, cfg.direction)
        x, f, g, d = out.x_new, out.f_new, out.g_new, d_new
    return cfg, out_steps


def vector_direction(method, g_new, d, g, sec, params):
    if method == "scgmmwls":
        return next_direction_scgmmwls(g_new, d, g, sec)
    if method == "m2":
        return next_direction_m2(g_new, d, g, sec, params)
    if method == "dk":
        return next_direction_dk(g_new, d, sec.y)
    return next_direction_jian(g_new, d, sec.y, sec.s)


def beta_scale(method, g_new, d, g, out, params):
    """The magnitude of beta's terms: |g_new^T w / d^T w| + |w^T w g_new^T d / (d^T w)^2|
    for the method's w (y for dk and jian, z for scgmmwls, y + c s for m2), plus
    the other branch |g^T d / d^T d| of the max-form methods."""
    w = {"dk": out.y, "jian": out.y, "scgmmwls": out.z}.get(method)
    if w is None:
        w = out.y + m2_coefficient(out.mu, float(out.s @ out.s), params.m) * out.s
    dw = float(d @ w)
    scale = abs(float(g_new @ w) / dw) + abs(float(w @ w) * float(g_new @ d) / dw**2)
    return scale + (abs(float(g @ d) / float(d @ d)) if method in ("scgmmwls", "m2") else 0.0)


# beta is a difference of terms that can cancel by 1e5 (dk on ext_rosenbrock)
# or more, and the two paths round their dot products differently, so the
# gap is bounded on the scale of the terms, as for mu.  At 1e-12 a beta off by
# 1e-8 relative still fails on some step of every case below; at 1e-10 it
# would pass scgmmwls on arwhead and m2 on engval1 at n = 1000.
BETA_GAP_REL = 1e-12


class TestAgreement:
    @pytest.mark.parametrize("n", [10, 1000])
    @pytest.mark.parametrize("name", FAMILIES)
    @pytest.mark.parametrize("method", METHODS)
    def test_solver_path_matches_vector_functions(self, method, name, n):
        cfg, steps = accepted_steps(name, n, method)
        caught = 0  # steps where a beta off by 1e-8 relative would fail
        for _, g, d, out in steps:
            g_new = out.g_new
            d_a, diag_a = next_direction(d, out, cfg.direction)
            d_b, diag_b = vector_direction(method, g_new, d, g, out, cfg.direction)
            assert diag_a.restart == diag_b.restart
            assert diag_a.truncated_beta == diag_b.truncated_beta
            assert diag_a.truncated_theta == diag_b.truncated_theta
            if diag_b.restart:
                assert diag_a.beta == diag_b.beta == 0.0
            else:
                bound = BETA_GAP_REL * beta_scale(method, g_new, d, g, out, cfg.direction)
                assert abs(diag_a.beta - diag_b.beta) <= bound
                caught += abs(diag_a.beta - diag_b.beta * (1.0 + 1e-8)) > bound
            assert math.isclose(diag_a.theta, diag_b.theta, rel_tol=1e-10)
            np.testing.assert_allclose(d_a, d_b, rtol=1e-10, atol=1e-10 * norm_inf(d_b))
        assert caught > 0

    @pytest.mark.parametrize("n", [10, 1000])
    @pytest.mark.parametrize("name", FAMILIES)
    @pytest.mark.parametrize("method", ["scgmmwls", "dk"])
    def test_slope_form_mu_matches_vector_mu(self, method, name, n):
        _, steps = accepted_steps(name, n, method)
        for f, g, d, out in steps:
            # mu is a difference of O(|f|) terms: compare on the scale of its terms.
            scale = abs(f) + abs(out.f_new) + out.alpha * (abs(dot(g, d)) + abs(dot(out.g_new, d)))
            assert abs(out.mu - vector_mu(f, out.f_new, g, out.g_new, out.s)) <= 1e-13 * scale

    def test_dw_bounded_below_by_the_curvature_condition(self):
        # d^T w >= (1 - sigma)|g^T d| up to the acceptance tolerance, so the
        # slope form of d^T w has no cancellation to fear.
        for method in METHODS:
            cfg, steps = accepted_steps("ext_rosenbrock", 10, method)
            for _, g, d, out in steps:
                a, gd_old, gd_new, dd = out.alpha, out.gd_old, out.gd_new, out.dd
                c = out.t if method == "scgmmwls" else 0.0
                dw = (gd_new - gd_old) + c * (a * dd)
                bound = (1.0 - cfg.wolfe.sigma) * abs(gd_old) - 1e-12 * abs(gd_old)
                assert dw >= bound


@pytest.fixture
def dot_calls(monkeypatch):
    counts = {"linesearch": 0, "directions": 0, "solver": 0}

    def counter(module):
        def counted(u, v):
            counts[module] += 1
            return dot(u, v)

        return counted

    monkeypatch.setattr(specgrad.linesearch, "dot", counter("linesearch"))
    monkeypatch.setattr(specgrad.directions, "dot", counter("directions"))
    monkeypatch.setattr(specgrad.solver, "dot", counter("solver"))
    return counts


class TestDotCounts:
    """Vector work must not creep back into trials or the solver-path update."""

    @pytest.mark.parametrize("name", ["ext_rosenbrock", "ext_beale", "engval1"])
    @pytest.mark.parametrize("modified", [True, False])
    def test_search_takes_one_dot_per_trial_plus_dd(self, dot_calls, name, modified):
        p = problem(name, 10)
        f, g = p.objective(p.start), gradient(p, p.start)
        d = -g
        gd = dot(g, d)
        coef = DirectionParams(m=3).coefficient
        params = WolfeParams(rho=0.18, sigma=0.2)
        if modified:
            out = modified_wolfe(InstrumentedOracle(p), p.start, f, g, d, params, coef, 1.0, gd=gd)
        else:
            out = standard_wolfe(InstrumentedOracle(p), p.start, f, g, d, params, coef, 1.0, gd=gd)
        assert out.status == ACCEPTED
        assert out.nf_used >= 2
        assert dot_calls["linesearch"] == out.nf_used + 1

    @pytest.mark.parametrize("modified", [True, False])
    def test_non_finite_trial_takes_no_dot(self, dot_calls, modified):
        # f = x^2 on |x| < 2 and +inf outside, from x = 1 along d = -2: the
        # first trial (alpha = 2) is non-finite, then alpha = 1 and 0.5.
        prob = Problem(
            "walled",
            lambda x: (float(x[0] * x[0]) if abs(x[0]) < 2.0 else math.inf, 2.0 * x),
            np.ones(1),
        )
        x, g, d = np.ones(1), np.array([2.0]), np.array([-2.0])
        coef = DirectionParams(m=3).coefficient
        params = WolfeParams(rho=0.18, sigma=0.2)
        if modified:
            out = modified_wolfe(InstrumentedOracle(prob), x, 1.0, g, d, params, coef, 2.0, gd=-4.0)
        else:
            out = standard_wolfe(InstrumentedOracle(prob), x, 1.0, g, d, params, coef, 2.0, gd=-4.0)
        assert out.status == ACCEPTED
        assert out.alpha == 0.5
        assert out.nf_used == 3
        assert dot_calls["linesearch"] == 1 + (out.nf_used - 1)

    @pytest.mark.parametrize("search", [modified_wolfe, standard_wolfe])
    def test_search_takes_gd_from_the_caller(self, dot_calls, search):
        # The solver always has g^T d; a search called without it is an error,
        # not a second dot product.
        p = problem("ext_rosenbrock", 10)
        f, g = p.objective(p.start), gradient(p, p.start)
        with pytest.raises(TypeError):
            search(InstrumentedOracle(p), p.start, f, g, -g, WolfeParams(), 3.0, 1.0)
        assert dot_calls["linesearch"] == 0

    @pytest.mark.parametrize("method", METHODS)
    def test_solver_path_direction_takes_at_most_four_dots(self, dot_calls, method):
        for name in ("ext_rosenbrock", "arwhead", "diagonal1"):
            cfg, steps = accepted_steps(name, 10, method)
            for _, g, d, out in steps:
                dot_calls["directions"] = 0
                next_direction(d, out, cfg.direction)
                assert dot_calls["directions"] <= 4

    @pytest.mark.parametrize("method", METHODS)
    def test_minimize_takes_g_d_only_at_the_start(self, dot_calls, method):
        # Per accepted step the audit re-derives 2 dot products from the raw
        # vectors, 4 after a modified search, and check_direction 2 more under
        # every method.  The direction update hands over the slope of every
        # direction it makes, restarts included, so minimize takes g^T d only
        # for d = -g0.
        audit = 4 + 2 * (method == "scgmmwls")
        for name in ("ext_rosenbrock", "arwhead", "diagonal1"):
            dot_calls["solver"] = 0
            res = minimize(problem(name, 10), default_config(method, max_iter=40))
            assert res.ni > 0
            assert dot_calls["solver"] == audit * res.ni + 1


@pytest.mark.parametrize("method", METHODS)
def test_next_slope_is_g_new_dot_d_new_bit_for_bit(method):
    # minimize hands rec.gd to the next search as its g^T d, so it must be
    # the product the search would otherwise take, to the last bit; on a
    # restart, -g_new^T g_new stands for g_new^T (-g_new).
    kept = 0
    for name in FAMILIES:
        cfg, steps = accepted_steps(name, 100, method, steps=15)
        for _, _, d, out in steps:
            d_new, rec = next_direction(d, out, cfg.direction)
            kept += not rec.restart
            assert float.hex(rec.gd) == float.hex(float(out.g_new.dot(d_new)))
    assert kept > 0


@pytest.mark.parametrize("m", [3, math.inf])
def test_m2_coefficient_is_the_searchs_t_for_positive_mu(m):
    # next_direction takes the M2 scaling c as t if mu > 0 and 0 otherwise; the
    # m2 search computes t with the same m, so c equals the paper form exactly.
    signs = set()
    for name in ("ext_rosenbrock", "nondquar", "qf1"):
        _, steps = accepted_steps(name, 10, f"m2:m={m}", steps=20)
        for _, _, _, out in steps:
            signs.add(out.mu > 0)
            s_norm_sq = out.alpha * (out.alpha * out.dd)
            assert (out.t if out.mu > 0 else 0.0) == m2_coefficient(out.mu, s_norm_sq, m)
    assert signs == {True, False}
