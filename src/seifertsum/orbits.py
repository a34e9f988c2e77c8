"""Coadjoint orbits, their Fourier transforms, and Wilson line weights.

Both orbit transforms below are built on the determinant form of the
Weyl alternating sum (lie._alternating_sum): for A_r,
sum_w eps(w) e^{<w lam, x>} = det[e^{e_j y_i}] in epsilon coordinates,
one (r+1)x(r+1) determinant in binary64 or, near walls, in mpmath. Two
closed forms are exposed, differing by the standard rotation between
the compact and the split picture:

* orbit_fourier pairs with the character identity: it is the entire
  function j(x)^(1/2) * chi_Lambda(x), computed directly as

      det[e^{e_j y_i}] * prod_{alpha>0}
          sin(alpha(x)/2) / (alpha(x) sinh(alpha(x)/2)),

  normalised so that the value at x = 0 is dim(Lambda). kirillov_check
  compares the character against j^(-1/2) times this transform, which
  exercises the Weyl denominator identity between the alternating-sum
  and product evaluations.

* dh_weyl_sum is the exact stationary-phase sum for the oscillatory
  integral over the orbit, the same determinant at i*x divided by
  prod (i alpha(x)). For su(2) it reduces to sin(lam t)/t on the ray
  alpha(x) = 2t and is cross-checked against direct sphere quadrature.

Both are entire in x. Where some alpha(x) (or sinh(alpha(x)/2))
vanishes, the quotient is replaced by the Richardson limit along a
regular direction, evaluated with the mpmath determinant.

Only regular orbits (lam strictly inside the dominant chamber, i.e.
lam = Lambda + rho for dominant Lambda) are supported.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateOrbitError, PreconditionError, WallProximityError
from .genera import WALL_MARGIN, wall_distance
from .lie import (
    CartanElement,
    RootSystem,
    Weight,
    _alternating_sum,
    _entire_eval,
    _limit_eval,
    is_regular,
)


@dataclass(frozen=True)
class CoadjointOrbit:
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


def _orbit_fourier_sum(rs: RootSystem, lam_fw, x_coords, dps: int | None = None):
    """Alternating sum times prod sin(a/2)/(a sinh(a/2)), in binary64 or,
    with dps, in mpmath."""
    return _times_orbit_factors(rs, _alternating_sum(rs, lam_fw, x_coords, dps),
                                x_coords, dps)


def _times_orbit_factors(rs: RootSystem, total, x_coords, dps: int | None = None):
    """total * prod_{alpha>0} sin(a/2)/(a sinh(a/2)), a = alpha(x)."""
    fn = cmath
    if dps is not None:
        import mpmath as fn
    for root_fw in rs.positive_roots_fw:
        a = sum(m * c for m, c in zip(root_fw, x_coords))
        total *= fn.sin(a / 2) / (a * fn.sinh(a / 2))
    return total


def _stationary_phase_sum(rs: RootSystem, lam_fw, x_coords, dps: int | None = None):
    """Alternating sum at i*x divided by prod i*alpha(x)."""
    total = _alternating_sum(rs, lam_fw, [1j * c for c in x_coords], dps)
    for root_fw in rs.positive_roots_fw:
        total /= 1j * sum(m * c for m, c in zip(root_fw, x_coords))
    return total


def orbit_fourier(orbit: CoadjointOrbit, x: CartanElement) -> complex:
    """Character-matched orbit transform; orbit_fourier(orbit, 0) = dim."""
    if not orbit.regular:
        raise DegenerateOrbitError("only regular orbits are implemented")
    return _entire_eval(orbit.rs, orbit.lam.coords, x, _orbit_fourier_sum)


def dh_weyl_sum(orbit: CoadjointOrbit, x: CartanElement) -> complex:
    """Stationary-phase sum: sum_w eps(w) e^{i<w lam,x>} / prod(i alpha(x))."""
    if not orbit.regular:
        raise DegenerateOrbitError("only regular orbits are implemented")
    return _entire_eval(orbit.rs, orbit.lam.coords, x, _stationary_phase_sum)


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
    nodes, weights = np.polynomial.legendre.leggauss(_QUADRATURE_POINTS)
    vals = np.exp(1j * lam * t * nodes)
    return complex((lam / 2) * np.dot(weights, vals))


_RESIDUAL_DPS = 30


def _identity_gap(rs: RootSystem, lam_fw, x_coords, dps: int):
    """chi - j^(-1/2) * orbit transform in mpmath at dps digits, with one
    Lambda+rho determinant A: chi = A / A_rho and the transform is
    A * prod sin(a/2)/(a sinh(a/2))."""
    import mpmath as mp

    alt = _alternating_sum(rs, lam_fw, x_coords, dps)
    chi = alt / _alternating_sum(rs, rs.rho.coords, x_coords, dps)
    of = _times_orbit_factors(rs, alt, x_coords, dps)
    half = mp.mpc(1)
    for root_fw in rs.positive_roots_fw:
        a = sum(m * c for m, c in zip(root_fw, x_coords))
        half *= (a / 2) / mp.sin(a / 2)
    return chi - half * of


def kirillov_check(rs: RootSystem, weight: Weight, x: CartanElement) -> float:
    """|chi_Lambda(x) - j(x)^(-1/2) * orbit_fourier(lam, x)|.

    The gap is formed at extended working precision: the binary64
    alternating-sum quotient already loses five digits to cancellation
    for A_3 at moderate real points, which would swamp a 1e-9 residual
    budget that the identity itself meets with room to spare. Singular x
    goes through the same Richardson limit as the direct evaluators.
    """
    if not weight.is_dominant:
        raise PreconditionError("kirillov_check expects a dominant weight")
    if wall_distance(rs, x) < WALL_MARGIN:
        raise WallProximityError(
            "point within %g of a singular wall of j^(-1/2)" % WALL_MARGIN)
    lam_fw = tuple(c + 1 for c in weight.coords)
    if is_regular(rs, x):
        import mpmath as mp

        with mp.workdps(_RESIDUAL_DPS):
            xs = tuple(mp.mpc(c) for c in x.coords)
            return float(abs(_identity_gap(rs, lam_fw, xs, _RESIDUAL_DPS)))
    gap = _limit_eval(rs, lam_fw, x, _identity_gap)
    return abs(gap)


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
    from .modular import _Level

    if level < 1:
        raise PreconditionError("level must be >= 1")
    lv = _Level(rs, level)
    i = lv.index_of(label)
    j = lv.index_of(lam_sum)
    rows = lv.label_rows([0, i])
    return complex(rows[1, j] / rows[0, j])
