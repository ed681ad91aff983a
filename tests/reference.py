"""Reference code that only the tests use.

``make_secant`` builds the secant bundle in vector form from (s, y, mu); the
solver builds its bundle inside the line search from the search's dot
products.  The direction tests take their inputs from it.

The vector forms of the direction formulas (``beta_m``, ``theta_tilde``,
``next_direction_<method>``) take every scalar with ``dot`` from their
vectors, for any step s.  They share the scalar formulas of
:mod:`specgrad.directions`; the solver's ``next_direction`` takes the same
scalars from the line search instead, and the tests check the two agree.
"""

from specgrad.directions import (
    DirectionDiag,
    DirectionParams,
    _beta_m,
    _dk_direction,
    _spectral_direction,
    _theta_tilde,
)
from specgrad.numkit import Vector, dot
from specgrad.secant import SecantData, SecantParams, t_coefficient, v_vector_m2, z_vector


def make_secant(s, y, mu_value: float, params: SecantParams, C: float) -> SecantData:
    t = t_coefficient(mu_value, dot(s, s), params.coefficient, C)
    return SecantData(s=s, y=y, mu=mu_value, t=t, z=z_vector(y, s, t))


def beta_m(g_new: Vector, g_old: Vector, d: Vector, z: Vector) -> tuple[float, bool]:
    """max(beta_L, beta_R); the flag reports whether the beta_R branch won."""
    return _beta_m(dot(g_old, d), dot(g_new, d), dot(d, d), dot(d, z), dot(g_new, z), dot(z, z))


def theta_tilde(g_new: Vector, s: Vector, d: Vector, z: Vector, beta: float) -> float:
    return _theta_tilde(
        dot(s, g_new), dot(d, z), dot(g_new, g_new), dot(g_new, z), dot(z, z), beta
    )


def _raw_scalars(g_new, prev_d, prev_g, s, w):
    """(g_old^T d, g_new^T d, d^T d, s^T g_new, d^T w) from vectors; s is arbitrary."""
    gd_old, gd_new, dd = dot(prev_g, prev_d), dot(g_new, prev_d), dot(prev_d, prev_d)
    return gd_old, gd_new, dd, dot(s, g_new), dot(prev_d, w)


def next_direction_scgmmwls(
    g_new: Vector, prev_d: Vector, prev_g: Vector, secant: SecantData, params: DirectionParams
) -> tuple[Vector, DirectionDiag]:
    scalars = _raw_scalars(g_new, prev_d, prev_g, secant.s, secant.z)
    return _spectral_direction(g_new, prev_d, secant.z, *scalars, params)


def next_direction_m2(
    g_new: Vector, prev_d: Vector, prev_g: Vector, secant: SecantData, params: DirectionParams
) -> tuple[Vector, DirectionDiag]:
    v = v_vector_m2(secant.y, secant.s, secant.mu, params.secant.m)
    scalars = _raw_scalars(g_new, prev_d, prev_g, secant.s, v)
    return _spectral_direction(g_new, prev_d, v, *scalars, params)


def next_direction_dk(
    g_new: Vector, prev_d: Vector, prev_g: Vector, y: Vector
) -> tuple[Vector, DirectionDiag]:
    gd_new, dd, dy = dot(g_new, prev_d), dot(prev_d, prev_d), dot(prev_d, y)
    return _dk_direction(g_new, prev_d, y, gd_new, dd, 0.0, dy, None, spectral=False)


def next_direction_jian(
    g_new: Vector, prev_d: Vector, prev_g: Vector, y: Vector, s: Vector, params: DirectionParams
) -> tuple[Vector, DirectionDiag]:
    gd_new, dd, dy = dot(g_new, prev_d), dot(prev_d, prev_d), dot(prev_d, y)
    return _dk_direction(g_new, prev_d, y, gd_new, dd, dot(s, g_new), dy, params, spectral=True)
