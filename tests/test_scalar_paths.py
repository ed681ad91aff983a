"""The solver's scalar paths against the vector forms they replace.

Line-search trials take mu, |s|^2 and s^T d from g^T d, g_t^T d and d^T d
(s = alpha d), and the solver's ``next_direction`` takes its step scalars
from the search.  These tests run real searches and check that both paths
agree with the vector forms (``secant.mu`` and the direction forms in
``reference.py``), and that neither takes more dot products than its budget.
"""

import math

import numpy as np
import pytest

import specgrad.directions
import specgrad.linesearch
from specgrad.directions import next_direction
from specgrad.linesearch import ACCEPTED, WolfeParams, modified_wolfe, standard_wolfe
from specgrad.numkit import dot, norm_inf
from specgrad.problems import InstrumentedOracle, Problem, problem
from specgrad.secant import SecantParams, mu
from specgrad.solver import default_config

from reference import (
    next_direction_dk,
    next_direction_jian,
    next_direction_m2,
    next_direction_scgmmwls,
)

METHODS = ("scgmmwls", "m2", "dk", "jian")
FAMILIES = ("ext_rosenbrock", "ext_beale", "arwhead", "engval1", "diagonal1", "raydan1")


def search(oracle, x, f, g, d, cfg, alpha0):
    wolfe = modified_wolfe if cfg.direction.method == "scgmmwls" else standard_wolfe
    return wolfe(oracle, x, f, g, d, cfg.wolfe, cfg.direction.secant, alpha0, gd=dot(g, d))


def accepted_steps(name, n, method, steps=5):
    """(f, g, d, outcome) for the first accepted steps of the solver's own update."""
    cfg = default_config(method, m=3)
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
        d_new, _ = next_direction(out.g_new, d, out.secant, cfg.direction, out.slopes)
        x, f, g, d = out.x_new, out.f_new, out.g_new, d_new
    return cfg, out_steps


def vector_direction(method, g_new, d, g, sec, params):
    if method == "scgmmwls":
        return next_direction_scgmmwls(g_new, d, g, sec, params)
    if method == "m2":
        return next_direction_m2(g_new, d, g, sec, params)
    if method == "dk":
        return next_direction_dk(g_new, d, g, sec.y)
    return next_direction_jian(g_new, d, g, sec.y, sec.s, params)


class TestAgreement:
    @pytest.mark.parametrize("n", [10, 1000])
    @pytest.mark.parametrize("name", FAMILIES)
    @pytest.mark.parametrize("method", METHODS)
    def test_solver_path_matches_vector_functions(self, method, name, n):
        cfg, steps = accepted_steps(name, n, method)
        for _, g, d, out in steps:
            sec, g_new = out.secant, out.g_new
            d_a, diag_a = next_direction(g_new, d, sec, cfg.direction, out.slopes)
            d_b, diag_b = vector_direction(method, g_new, d, g, sec, cfg.direction)
            assert diag_a.restart == diag_b.restart
            assert diag_a.truncated_beta == diag_b.truncated_beta
            assert diag_a.truncated_theta == diag_b.truncated_theta
            assert math.isclose(diag_a.beta, diag_b.beta, rel_tol=1e-10, abs_tol=1e-300)
            assert math.isclose(diag_a.theta, diag_b.theta, rel_tol=1e-10)
            np.testing.assert_allclose(d_a, d_b, rtol=1e-10, atol=1e-10 * norm_inf(d_b))

    @pytest.mark.parametrize("n", [10, 1000])
    @pytest.mark.parametrize("name", FAMILIES)
    @pytest.mark.parametrize("method", ["scgmmwls", "dk"])
    def test_slope_form_mu_matches_vector_mu(self, method, name, n):
        _, steps = accepted_steps(name, n, method)
        for f, g, d, out in steps:
            sec = out.secant
            # mu is a difference of O(|f|) terms: compare on the scale of its terms.
            scale = abs(f) + abs(out.f_new) + out.alpha * (abs(dot(g, d)) + abs(dot(out.g_new, d)))
            assert abs(sec.mu - mu(f, out.f_new, g, out.g_new, sec.s)) <= 1e-13 * scale

    def test_dw_bounded_below_by_the_curvature_condition(self):
        # d^T w >= (1 - sigma)|g^T d| up to the acceptance tolerance, so the
        # slope form of d^T w has no cancellation to fear.
        for method in METHODS:
            cfg, steps = accepted_steps("ext_rosenbrock", 10, method)
            for _, g, d, out in steps:
                a, gd_old, gd_new, dd = out.slopes
                c = out.secant.t if method == "scgmmwls" else 0.0
                dw = (gd_new - gd_old) + c * (a * dd)
                bound = (1.0 - cfg.wolfe.sigma) * abs(gd_old) - 1e-12 * abs(gd_old)
                assert dw >= bound


@pytest.fixture
def dot_calls(monkeypatch):
    counts = {"linesearch": 0, "directions": 0}

    def counter(module):
        def counted(u, v):
            counts[module] += 1
            return dot(u, v)

        return counted

    monkeypatch.setattr(specgrad.linesearch, "dot", counter("linesearch"))
    monkeypatch.setattr(specgrad.directions, "dot", counter("directions"))
    return counts


class TestDotCounts:
    """Vector work must not creep back into trials or the solver-path update."""

    @pytest.mark.parametrize("name", ["ext_rosenbrock", "ext_beale", "engval1"])
    @pytest.mark.parametrize("modified", [True, False])
    def test_search_takes_one_dot_per_trial_plus_dd(self, dot_calls, name, modified):
        p = problem(name, 10)
        f, g = p.objective(p.start), p.gradient(p.start)
        d = -g
        gd = dot(g, d)
        sp = SecantParams(m=3)
        params = WolfeParams(rho=0.18, sigma=0.2)
        if modified:
            out = modified_wolfe(InstrumentedOracle(p), p.start, f, g, d, params, sp, 1.0, gd=gd)
        else:
            out = standard_wolfe(InstrumentedOracle(p), p.start, f, g, d, params, sp, 1.0, gd=gd)
        assert out.status == ACCEPTED
        assert out.nf_used >= 2
        assert dot_calls["linesearch"] == out.nf_used + 1

    @pytest.mark.parametrize("modified", [True, False])
    def test_non_finite_trial_takes_no_dot(self, dot_calls, modified):
        # f = x^2 on |x| < 2 and +inf outside, from x = 1 along d = -2: the
        # first trial (alpha = 2) is non-finite, then alpha = 1 and 0.5.
        prob = Problem(
            "walled",
            1,
            lambda x: (float(x[0] * x[0]) if abs(x[0]) < 2.0 else math.inf, 2.0 * x),
            np.ones(1),
        )
        x, g, d = np.ones(1), np.array([2.0]), np.array([-2.0])
        sp = SecantParams(m=3)
        params = WolfeParams(rho=0.18, sigma=0.2)
        if modified:
            out = modified_wolfe(InstrumentedOracle(prob), x, 1.0, g, d, params, sp, 2.0, gd=-4.0)
        else:
            out = standard_wolfe(InstrumentedOracle(prob), x, 1.0, g, d, params, sp, 2.0, gd=-4.0)
        assert out.status == ACCEPTED
        assert out.alpha == 0.5
        assert out.nf_used == 3
        assert dot_calls["linesearch"] == 1 + (out.nf_used - 1)

    def test_search_without_gd_takes_it_once(self, dot_calls):
        p = problem("ext_rosenbrock", 10)
        f, g = p.objective(p.start), p.gradient(p.start)
        sp = SecantParams(m=3)
        out = modified_wolfe(InstrumentedOracle(p), p.start, f, g, -g, WolfeParams(), sp, 1.0)
        assert out.status == ACCEPTED
        assert dot_calls["linesearch"] == out.nf_used + 2

    @pytest.mark.parametrize("method", METHODS)
    def test_solver_path_direction_takes_at_most_four_dots(self, dot_calls, method):
        for name in ("ext_rosenbrock", "arwhead", "diagonal1"):
            cfg, steps = accepted_steps(name, 10, method)
            for _, g, d, out in steps:
                dot_calls["directions"] = 0
                next_direction(out.g_new, d, out.secant, cfg.direction, out.slopes)
                assert dot_calls["directions"] <= 4
