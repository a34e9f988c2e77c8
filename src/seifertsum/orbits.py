"""Coadjoint orbits, their Fourier transforms, and Wilson line weights.

Both orbit transforms are the character times an entire product, with
sinc(t) = sin t / t (genera._sinc_half):

* orbit_fourier pairs with the character identity: it is the entire
  function j(x)^(1/2) * chi_Lambda(x),

      chi_Lambda(x) * prod_{alpha>0} sinc(alpha(x)/2),

  equal to det[e^{e_j y_i}] * prod sin(alpha(x)/2) / (alpha(x)
  sinh(alpha(x)/2)), so dim(Lambda) at x = 0.

* dh_weyl_sum is the exact stationary-phase sum for the oscillatory
  integral over the orbit, sum_w eps(w) e^{i<w lam, x>} / prod (i
  alpha(x)), which is chi_Lambda(i x) * prod sinc(alpha(x)/2). For su(2)
  it reduces to sin(lam t)/t on the ray alpha(x) = 2t and is
  cross-checked against direct sphere quadrature.

The character comes from lie's branching kernel with its rounding bound,
and _times_sinc carries the bound through the product, so a wall
alpha(x) = 0 needs no special case. kirillov_check multiplies the Weyl
character formula out instead of dividing, and compares the branching
character against the determinant at 30 digits.

Only regular orbits (lam strictly inside the dominant chamber, i.e.
lam = Lambda + rho for dominant Lambda) are supported.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DegenerateOrbitError, PreconditionError, WallProximityError
from .genera import WALL_MARGIN, _sinc_half, wall_distance
from .lie import (
    CartanElement,
    RootSystem,
    Weight,
    _alternating_sum,
    _epsilon_coords,
    _gamma,
    _schur,
    weyl_character,
)


class CoadjointOrbit(NamedTuple):
    """Orbit through the shifted weight lam; regular means strictly dominant."""

    rs: RootSystem
    lam: Weight

    @property
    def regular(self) -> bool:
        return all(c >= 1 for c in self.lam.coords)

    @property
    def dimension(self) -> int:
        # one transverse plane per positive root
        return 2 * self.rs.num_positive_roots


def orbit_from_highest_weight(rs: RootSystem, weight: Weight) -> CoadjointOrbit:
    if not weight.is_dominant:
        raise PreconditionError("highest weight must be dominant")
    return CoadjointOrbit(rs=rs, lam=Weight(tuple(c + 1 for c in weight.coords)))


def _times_sinc(rs: RootSystem, chi: tuple[complex, float], x: CartanElement):
    """(value, bound) of chi * prod_{alpha>0} sinc(alpha(x)/2), for chi a
    (value, bound) pair.

    alpha(x) sums at most four nonzero terms +-x_i or 2 x_i, so it is
    within d = gamma_3 sum |terms| of the exact one, and sinc(a/2) moves by
    at most cosh(Im a / 2) / 4 per unit of a. _sinc_half rounds to within
    gamma_16 of itself (5 units for sin, the rest for the quotient). With
    e the factor's error and p the running product, the bound grows to
    bound (|f| + e) + |p| (e + gamma_3 |f|).
    """
    value, bound = chi
    for root_fw in rs.positive_roots_fw:
        terms = [m * c for m, c in zip(root_fw, x.coords)]
        a = sum(terms)
        f = _sinc_half(a)
        d = _gamma(3) * sum(abs(t) for t in terms)
        e = _gamma(16) * abs(f) / (1 - _gamma(16)) + d * math.cosh((abs(a.imag) + d) / 2) / 4
        bound = bound * (abs(f) + e) + abs(value) * (e + _gamma(3) * abs(f))
        value *= f
    return value, bound


def orbit_fourier(orbit: CoadjointOrbit, x: CartanElement) -> tuple[complex, float]:
    """(value, bound) of the character-matched orbit transform,
    chi_Lambda(x) prod sinc(alpha(x)/2); its value at x = 0 is dim."""
    if not orbit.regular:
        raise DegenerateOrbitError("only regular orbits are implemented")
    return _times_sinc(orbit.rs, weyl_character(orbit.rs, _highest(orbit), x), x)


def dh_weyl_sum(orbit: CoadjointOrbit, x: CartanElement) -> tuple[complex, float]:
    """(value, bound) of the stationary-phase sum
    sum_w eps(w) e^{i<w lam,x>} / prod(i alpha(x)) = chi_Lambda(ix) prod sinc(alpha(x)/2)."""
    if not orbit.regular:
        raise DegenerateOrbitError("only regular orbits are implemented")
    ix = CartanElement(tuple(1j * c for c in x.coords))
    return _times_sinc(orbit.rs, weyl_character(orbit.rs, _highest(orbit), ix), x)


def _highest(orbit: CoadjointOrbit) -> Weight:
    """The highest weight Lambda = lam - rho of a regular orbit."""
    return Weight(tuple(c - 1 for c in orbit.lam.coords))


_QUADRATURE_POINTS = 64


def su2_orbit_quadrature(j_label: float, t: float) -> complex:
    """Sphere quadrature of the su(2) orbit transform.

    Integrates e^{i lam t cos(theta)} against the normalised area form of
    the radius-lam sphere, lam = 2 j_label + 1, via Gauss-Legendre in
    cos(theta). Spectrally convergent; _QUADRATURE_POINTS = 64 nodes are
    far past convergence for the |lam t| ranges used here.
    """
    lam = 2 * float(j_label) + 1
    if lam < 1 or abs(lam - round(lam)) > 1e-12:
        raise PreconditionError("j_label must be a nonnegative half-integer")
    import numpy as np

    nodes, weights = np.polynomial.legendre.leggauss(_QUADRATURE_POINTS)
    vals = np.exp(1j * lam * t * nodes)
    return complex((lam / 2) * np.dot(weights, vals))


_RESIDUAL_DPS = 30


def kirillov_check(rs: RootSystem, weight: Weight, x: CartanElement) -> float:
    """|chi_Lambda(x) prod_{alpha>0} 2 sinh(alpha(x)/2) - A_{Lambda+rho}(x)|.

    This is the Weyl character formula multiplied out; divided by
    prod sinh(alpha(x)/2) / sin(alpha(x)/2), it is the character identity
    chi_Lambda = j^(-1/2) * orbit_fourier. Both sides are entire, so a wall
    alpha(x) = 0 needs no special case, and they are independent: chi
    comes from lie's branching kernel, A from the alternating-sum
    determinant. Both are taken in mpmath at 30 digits, since the
    determinant loses digits to cancellation. Points within WALL_MARGIN
    of a singular wall of j^(-1/2) are refused.
    """
    if not weight.is_dominant:
        raise PreconditionError("kirillov_check expects a dominant weight")
    if wall_distance(rs, x) < WALL_MARGIN:
        raise WallProximityError(
            "point within %g of a singular wall of j^(-1/2)" % WALL_MARGIN)
    import mpmath as mp

    with mp.workdps(_RESIDUAL_DPS):
        xs = [mp.mpc(c) for c in x.coords]
        pts = [mp.mpc(0)] + xs + [mp.mpc(0)]
        side, _ = _schur(_epsilon_coords(weight.coords),
                         [mp.exp(b - a) for a, b in zip(pts, pts[1:])])
        for root_fw in rs.positive_roots_fw:
            side *= 2 * mp.sinh(sum(m * c for m, c in zip(root_fw, xs)) / 2)
        lam_fw = tuple(c + 1 for c in weight.coords)
        return float(abs(side - _alternating_sum(lam_fw, xs, _RESIDUAL_DPS)))


def quantum_character_point(rs: RootSystem, lam_sum: Weight, level: int) -> CartanElement:
    """Cartan point where S ratios against row zero become characters.

    With the Kac-Peterson sign convention used here the identity reads
    S[Lambda, lam]/S[0, lam] = chi_Lambda(x) at
    x = -2 pi i (lam + rho)/(k + dual Coxeter); for self-conjugate data
    (all of A_1) the sign of the point is immaterial.
    """
    kappa = level + rs.dual_coxeter
    shifted = tuple(c + 1 for c in lam_sum.coords)
    return rs.cartan_point(shifted, scale=-2j * math.pi / kappa)


def wilson_weight(rs: RootSystem, label: Weight, lam_sum: Weight, level: int) -> complex:
    """S[label, lam]/S[0, lam], the fibre Wilson line factor, from the two S
    rows it reads (the rows of the certified S, bit for bit)."""
    from .modular import _Level, price_level

    if level < 1:
        raise PreconditionError("level must be >= 1")
    price_level(rs, level, rows=2)
    lv = _Level(rs, level)
    i = lv.index_of(label)
    j = lv.index_of(lam_sum)
    rows = lv.label_rows([0, i])
    return complex(rows[1, j] / rows[0, j])
