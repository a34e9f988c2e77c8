"""Pointwise genus functions on the Cartan algebra.

All three functions share one normalised variable: a Cartan point x at
which each positive root contributes through the argument alpha(x)/2.

    j(x)    = prod_{alpha>0} ( sin(alpha(x)/2) / (alpha(x)/2) )^2
    Ahat    = prod_{alpha>0} ( (alpha(x)/2) / sinh(alpha(x)/2) )^(2g-2)
    Todd    = exp(c1_part/2) * j(x)^(1-g)

j is the square of the equivariant A-roof type determinant that shows up
as the regularised ratio det'(sin)/det'(id) over the nonzero Fourier
modes of a circle fibration; its partial Euler products converge with an
O(1/N) error for real x with |alpha(x)| < 2 pi. The sinh <-> sin
rotation gives the identity a_hat(x, g) = j(i x)^(1-g), and Todd relates
to j through the standard Todd = exp(c1/2) * Ahat-style splitting with
exponent 1-g.

Walls: j itself is entire (each factor is a squared sinc), but
j^(-1/2) blows up where alpha(x) lands in 2 pi Z away from zero;
evaluation there is refused within an absolute margin of 1e-6.
"""

from __future__ import annotations

import cmath
import math

from .errors import PreconditionError, WallProximityError
from .lie import CartanElement, RootSystem

WALL_MARGIN = 1e-6


def _sinc_half(z: complex) -> complex:
    """sin(z/2) / (z/2) with the removable singularity filled in."""
    w = z / 2
    if abs(w) < 1e-6:
        w2 = w * w
        return 1 - w2 / 6 + w2 * w2 / 120
    return cmath.sin(w) / w


def _sinhc_half(z: complex) -> complex:
    """sinh(z/2) / (z/2) with the removable singularity filled in."""
    w = z / 2
    if abs(w) < 1e-6:
        w2 = w * w
        return 1 + w2 / 6 + w2 * w2 / 120
    return cmath.sinh(w) / w


def j_function(rs: RootSystem, x: CartanElement) -> complex:
    """Squared sinc product over the positive roots; j(0) = 1."""
    prod = 1.0 + 0j
    for root_fw in rs.positive_roots_fw:
        prod *= _sinc_half(rs.pair(root_fw, x)) ** 2
    return prod


def wall_distance(rs: RootSystem, x: CartanElement) -> float:
    """Distance from the singular set of j^(-1/2).

    Singular walls sit at alpha(x) in 2 pi Z with the zero excluded; the
    distance is measured in the complex alpha(x) plane per root.
    """
    best = math.inf
    for root_fw in rs.positive_roots_fw:
        a = rs.pair(root_fw, x)
        n0 = round(a.real / (2 * math.pi))
        for n in (n0 - 1, n0, n0 + 1):
            if n == 0:
                continue
            best = min(best, abs(a - 2 * math.pi * n))
    return best


def j_inverse_sqrt(rs: RootSystem, x: CartanElement) -> complex:
    """j(x)^(-1/2) as the product of reciprocal sinc factors.

    The branch is fixed by taking the reciprocal per root, which agrees
    with the positive square root near x = 0. Points within 1e-6 of a
    singular wall are refused.
    """
    if wall_distance(rs, x) < WALL_MARGIN:
        raise WallProximityError(
            "point within %g of a singular wall of j^(-1/2)" % WALL_MARGIN)
    prod = 1.0 + 0j
    for root_fw in rs.positive_roots_fw:
        prod /= _sinc_half(rs.pair(root_fw, x))
    return prod


def a_hat_function(rs: RootSystem, x: CartanElement, genus: int) -> complex:
    """prod ((alpha(x)/2)/sinh(alpha(x)/2))^(2g-2); equals j(ix)^(1-g)."""
    if genus < 0:
        raise PreconditionError("genus must be >= 0")
    prod = 1.0 + 0j
    for root_fw in rs.positive_roots_fw:
        prod *= _sinhc_half(rs.pair(root_fw, x)) ** (2 - 2 * genus)
    return prod


def todd_function(rs: RootSystem, x: CartanElement, genus: int,
                  c1_part: complex = 0.0) -> complex:
    """exp(c1_part/2) times the j-type sin-ratio product at exponent 1-g."""
    if genus < 0:
        raise PreconditionError("genus must be >= 0")
    prod = 1.0 + 0j
    for root_fw in rs.positive_roots_fw:
        prod *= _sinc_half(rs.pair(root_fw, x)) ** (2 - 2 * genus)
    return cmath.exp(complex(c1_part) / 2) * prod


def partial_euler_product(rs: RootSystem, x: CartanElement, n_terms: int) -> complex:
    """Truncated mode product prod_{n<=N} prod_{alpha>0} (1-(alpha(x)/2 pi n)^2)^2.

    Converges to j(x) as N grows, with error O(1/N) for real x satisfying
    |alpha(x)| < 2 pi for every positive root.
    """
    if n_terms < 1:
        raise PreconditionError("n_terms must be >= 1")
    import numpy as np

    ns = np.arange(1, n_terms + 1, dtype=float)
    prod = 1.0 + 0j
    for root_fw in rs.positive_roots_fw:
        a = rs.pair(root_fw, x)
        factors = 1.0 - (a / (2 * math.pi * ns)) ** 2
        prod *= complex(np.prod(factors)) ** 2
    return prod


def evaluate(rs: RootSystem, which: str, x: CartanElement, genus: int,
             c1_part: complex = 0.0) -> complex:
    """Uniform entry point used by the CLI grid evaluator."""
    if which == "j":
        return j_function(rs, x)
    if which == "ahat":
        return a_hat_function(rs, x, genus)
    if which == "todd":
        return todd_function(rs, x, genus, c1_part)
    raise PreconditionError("unknown genus function %r" % which)
