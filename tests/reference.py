"""Reference code that only the tests use.

``make_secant`` builds the secant bundle in vector form from (s, y, mu); the
solver builds its bundle inside the line search from the search's dot
products.  The direction tests take their inputs from it.
"""

from specgrad.numkit import dot
from specgrad.secant import SecantData, SecantParams, t_coefficient, z_vector


def make_secant(s, y, mu_value: float, params: SecantParams, C: float) -> SecantData:
    t = t_coefficient(mu_value, dot(s, s), params.coefficient, C)
    return SecantData(s=s, y=y, mu=mu_value, t=t, z=z_vector(y, s, t))
