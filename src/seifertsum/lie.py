"""Root systems, Weyl groups, and characters for the A series.

Conventions, fixed once for the whole package:

* The invariant form is normalised so long roots have squared length 2.
  For A_r every root is long, the Cartan matrix is the Gram matrix of the
  simple roots, and the fundamental-weight Gram matrix is its inverse.
* Weights are stored by their integer coordinates in the fundamental
  weight basis; roots by integer coordinates in the simple root basis.
* A Cartan point x is stored by coordinates in the simple coroot basis,
  so the pairing of a weight mu with x is the plain dot product of
  coordinate vectors and a root functional evaluates as
  alpha(x) = dot(fw_coords(alpha), coords(x)).
* Lattice pairings are integer forms in the epsilon coordinates e, f
  (below): (r+1)<a, b> = (r+1) sum e_i f_i - (sum e)(sum f) (_form), and
  prod_{alpha>0} <mu, alpha> = prod_{i<j} (e_i - e_j) (_vandermonde).
  Weight sets are integer arrays, one row each (_epsilon_norms), and
  Weight objects are made on demand. Fractions appear only at the API
  (ip, casimir, ...). Only transcendental evaluation (characters, genus
  functions) uses floating point, and a character comes with a bound on
  its rounding error.

The Weyl group of A_r is the symmetric group S_{r+1} permuting epsilon
coordinates, with integer e_i = lam_i + ... + lam_r (e_{r+1} = 0) for lam
in fundamental-weight coordinates. Write y_i = x_i - x_{i-1}
(x_0 = x_{r+1} = 0) for x in coroot coordinates and z_i = e^{y_i}. Then
(Weyl character formula, Fulton-Harris 24.1) the alternating sum is

    sum_w eps(w) e^{<w lam, x>} = det[ e^{e_j y_i} ] = det[ z_i^{e_j} ],

an (r+1)x(r+1) determinant in place of (r+1)! terms (_alternating_sum,
at mpmath precision; modular assembles S from the same determinant
form, batched over exact integer phases), and chi_Lambda(x) is the
Schur polynomial s_lam(z_1..z_{r+1}) of the partition lam = e(Lambda).
_schur takes it by the branching rule (Macdonald, Symmetric functions
and Hall polynomials, I.5)

    s_lam(z_1..z_n) = sum_{mu < lam} s_mu(z_1..z_{n-1}) z_n^{|lam|-|mu|},

over the mu interlacing lam (lam_1 >= mu_1 >= lam_2 >= ... >= mu_{n-1}
>= lam_n). It divides by nothing, so a wall alpha(x) = 0 is an ordinary
point. The same recursion at |z_i| sums the moduli of the monomials,
and if each monomial carries at most m rounding units, the computed
value is within gamma_m = m u / (1 - m u), u = 2^-53, of that sum
(Higham, Accuracy and Stability, 3.1 and 3.6). Every monomial enters
with a plus sign, so for real x that sum is the value itself and the
bound is relative (Demmel-Koev, Math. Comp. 75 (2006)). Assuming libm
exp, cos and sin within one ulp, m counts:

* z_i = exp(x_i) * exp(-x_{i-1}) from the exact coordinates: 5 units per
  complex exp and 3 for the product (a complex product is within
  sqrt(2) gamma_2 < gamma_3), and 2 more for |z_i|; 15 in all;
* z_i^d, d - 1 products, and the monomial times it one more: with the
  factors, at most 18 units per degree;
* a sum of N terms, N - 1 units.

weyl_group still enumerates the group explicitly (as matrices acting on
weights and on Cartan points) for callers that need the elements; no
sum in the package uses it.
"""

from __future__ import annotations

import cmath
import functools
import itertools
from fractions import Fraction as Q
from typing import NamedTuple, Sequence

from .errors import (
    PreconditionError,
    UnsupportedAlgebraError,
    WeylGroupTooLargeError,
)

DEFAULT_WEYL_BOUND = 3_628_800  # 10!

_U = 2.0 ** -53


class Weight(NamedTuple("Weight", [("coords", tuple[int, ...])])):
    """Integer coordinates in the fundamental weight basis."""

    __slots__ = ()

    def __new__(cls, coords: Sequence[int]):
        return super().__new__(cls, tuple(int(c) for c in coords))

    @property
    def is_dominant(self) -> bool:
        return all(c >= 0 for c in self.coords)


class CartanElement(NamedTuple("CartanElement", [("coords", tuple[complex, ...])])):
    """Complex coordinates in the simple coroot basis."""

    __slots__ = ()

    def __new__(cls, coords: Sequence[complex]):
        return super().__new__(cls, tuple(complex(c) for c in coords))


class WeylElement(NamedTuple):
    """One Weyl group element.

    weight_matrix acts on fundamental-weight coordinates, cartan_matrix is
    the contragredient action on coroot coordinates; both are integral and
    sign is the determinant.
    """

    weight_matrix: tuple[tuple[int, ...], ...]
    cartan_matrix: tuple[tuple[int, ...], ...]
    sign: int

    def apply_weight(self, coords: Sequence[int]) -> tuple[int, ...]:
        return tuple(sum(row[j] * coords[j] for j in range(len(coords)))
                     for row in self.weight_matrix)

    def apply_cartan(self, coords: Sequence[complex]) -> tuple[complex, ...]:
        return tuple(sum(row[j] * coords[j] for j in range(len(coords)))
                     for row in self.cartan_matrix)


class RootSystem(NamedTuple):
    """Finite root system data for one simple series entry."""

    series: str
    rank: int
    cartan: tuple[tuple[int, ...], ...]
    positive_roots: tuple[tuple[int, ...], ...]       # simple root basis
    positive_roots_fw: tuple[tuple[int, ...], ...]    # fundamental weight basis
    gram_fw: tuple[tuple[Q, ...], ...]                # <omega_i, omega_j>
    rho: Weight
    highest_root_fw: tuple[int, ...]
    dual_coxeter: int
    centre_order: int

    @property
    def num_positive_roots(self) -> int:
        return len(self.positive_roots)

    @property
    def dimension(self) -> int:
        """dim of the Lie algebra: 2 |Delta_+| + rank."""
        return 2 * self.num_positive_roots + self.rank

    def ip(self, a: Sequence[int], b: Sequence[int]) -> Q:
        """Invariant form on weight-lattice coordinates, exact."""
        return Q(_form(_epsilon_coords(a), _epsilon_coords(b)), self.rank + 1)

    def pair(self, fw_coords: Sequence[int], x: CartanElement) -> complex:
        """<mu, x> for mu in fw coordinates, x in coroot coordinates."""
        return sum(m * xc for m, xc in zip(fw_coords, x.coords))

    def level_of(self, weight: Weight) -> int:
        lev, rem = divmod(_form(_epsilon_coords(weight.coords),
                                _epsilon_coords(self.highest_root_fw)), self.rank + 1)
        if rem:
            raise PreconditionError("non-integral level for %r" % (weight,))
        return lev

    def cartan_point(self, weight_like: Sequence, scale: complex = 1.0) -> CartanElement:
        """Cartan element representing scale * (weight_like) under the form.

        weight_like is given in fw coordinates; the returned coroot
        coordinates satisfy <mu, x> = scale * <mu, weight_like> for all mu.
        """
        coords = tuple(
            scale * complex(sum(self.gram_fw[i][j] * Q(weight_like[j])
                                for j in range(self.rank)))
            for i in range(self.rank))
        return CartanElement(coords)

    def weyl_group(self, max_order: int = DEFAULT_WEYL_BOUND) -> tuple[WeylElement, ...]:
        return _weyl_group_cached(self.series, self.rank, max_order)


@functools.lru_cache(maxsize=None)
def build_root_system(series: str, rank: int) -> RootSystem:
    """Construct the root system; only the A series is implemented.

    The kernels downstream (_form, _vandermonde, _alternating_sum and the
    S assembly in modular) work in the epsilon coordinates of A_r, so
    another series needs kernels of its own, not only a table here.
    """
    series = str(series).strip().upper()
    if rank < 1:
        raise PreconditionError("rank must be >= 1")
    if series != "A":
        raise UnsupportedAlgebraError("unsupported algebra: %s%d" % (series, rank))

    r = rank
    cartan = tuple(tuple(2 if i == j else (-1 if abs(i - j) == 1 else 0)
                         for j in range(r)) for i in range(r))
    # positive roots of A_r: alpha_i + ... + alpha_j for i <= j
    pos = tuple(tuple(1 if i <= t <= j else 0 for t in range(r))
                for i in range(r) for j in range(i, r))
    pos_fw = tuple(_root_to_fw(cartan, c) for c in pos)
    # <omega_i, omega_j> = min(i, j) (r + 1 - max(i, j)) / (r + 1), 1-based
    gram = tuple(tuple(Q(min(i, j) * (r + 1 - max(i, j)), r + 1)
                       for j in range(1, r + 1)) for i in range(1, r + 1))
    theta = tuple(1 for _ in range(r))
    theta_fw = _root_to_fw(cartan, theta)
    return RootSystem(
        series=series,
        rank=r,
        cartan=cartan,
        positive_roots=pos,
        positive_roots_fw=pos_fw,
        gram_fw=gram,
        rho=Weight((1,) * r),
        highest_root_fw=theta_fw,
        dual_coxeter=r + 1,
        centre_order=r + 1,
    )


def _root_to_fw(cartan, root_coords) -> tuple[int, ...]:
    r = len(cartan)
    return tuple(sum(root_coords[i] * cartan[i][j] for i in range(r))
                 for j in range(r))


@functools.lru_cache(maxsize=None)
def _weyl_group_cached(series: str, rank: int, max_order: int) -> tuple[WeylElement, ...]:
    rs = build_root_system(series, rank)
    order = 1
    for i in range(2, rank + 2):
        order *= i
    if order > max_order:
        raise WeylGroupTooLargeError(
            "Weyl group order %d exceeds bound %d" % (order, max_order))

    r = rank
    ident = tuple(tuple(int(i == j) for j in range(r)) for i in range(r))

    def reflection_weight(i):
        # s_i(mu)_j = mu_j - cartan[i][j] * mu_i
        return tuple(tuple((int(j == t) - (rs.cartan[i][j] if t == i else 0))
                           for t in range(r)) for j in range(r))

    gens = [reflection_weight(i) for i in range(r)]

    def matmul(a, b):
        return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(r))
                           for j in range(r)) for i in range(r))

    def transpose(a):
        return tuple(tuple(a[j][i] for j in range(r)) for i in range(r))

    seen = {ident: (transpose(ident), 1)}
    frontier = [ident]
    while frontier:
        next_frontier = []
        for w in frontier:
            wc, ws = seen[w]
            for g in gens:
                nw = matmul(g, w)
                if nw not in seen:
                    seen[nw] = (matmul(transpose(g), wc), -ws)
                    next_frontier.append(nw)
        frontier = next_frontier
    if len(seen) != order:
        raise RuntimeError("Weyl closure produced %d elements, expected %d"
                           % (len(seen), order))
    elements = [WeylElement(weight_matrix=w, cartan_matrix=c, sign=s)
                for w, (c, s) in seen.items()]
    # identity first, then a deterministic order
    elements.sort(key=lambda e: (e.weight_matrix != ident, e.weight_matrix))
    return tuple(elements)


def weyl_group(rs: RootSystem, max_order: int = DEFAULT_WEYL_BOUND) -> tuple[WeylElement, ...]:
    return rs.weyl_group(max_order)


def casimir(rs: RootSystem, weight: Weight) -> Q:
    """Quadratic Casimir <Lambda, Lambda + 2 rho> = |Lambda+rho|^2 - |rho|^2, exact."""
    if not weight.is_dominant:
        raise PreconditionError("casimir expects a dominant weight")
    e = _shifted_epsilon(weight.coords)
    e_rho = _shifted_epsilon((0,) * rs.rank)
    return Q(_form(e, e) - _form(e_rho, e_rho), rs.rank + 1)


def weyl_dimension(rs: RootSystem, weight: Weight) -> int:
    """prod_{alpha>0} <Lambda+rho, alpha> / <rho, alpha>, a Vandermonde ratio."""
    if not weight.is_dominant:
        raise PreconditionError("weyl_dimension expects a dominant weight")
    return (_vandermonde(_shifted_epsilon(weight.coords))
            // _vandermonde(_shifted_epsilon((0,) * rs.rank)))


def _epsilon_coords(lam_fw: Sequence[int]) -> tuple[int, ...]:
    """Epsilon coordinates e_i = lam_i + ... + lam_r, with e_{r+1} = 0.

    The Weyl group of A_r permutes them; _form and _vandermonde read
    the invariants from them.
    """
    out = [0] * (len(lam_fw) + 1)
    for i in range(len(lam_fw) - 1, -1, -1):
        out[i] = out[i + 1] + int(lam_fw[i])
    return tuple(out)


def _shifted_epsilon(lam_fw: Sequence[int]) -> tuple[int, ...]:
    """Epsilon coordinates of lam + rho."""
    return _epsilon_coords([c + 1 for c in lam_fw])


def _epsilon_norms(shifted: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_shifted_epsilon and M = _form(e, e) = (r+1)|lam+rho|^2 of the rows
    lam+rho of an (n, r) int64 array, in its dtype."""
    import numpy as np

    n, r = shifted.shape
    e = np.zeros((n, r + 1), dtype=shifted.dtype)
    e[:, :r] = np.cumsum(shifted[:, ::-1], axis=1)[:, ::-1]
    s = e.sum(axis=1)
    return e, (r + 1) * (e * e).sum(axis=1) - s * s


def _form(e: Sequence[int], f: Sequence[int]) -> int:
    """(r+1) <a, b> = (r+1) sum e_i f_i - (sum e)(sum f), for the epsilon
    coordinates e, f (length r+1) of weights a, b."""
    return len(e) * sum(x * y for x, y in zip(e, f)) - sum(e) * sum(f)


def _vandermonde(e: Sequence[int]) -> int:
    """prod_{i<j} (e_i - e_j): the product of <mu, alpha> over the positive
    roots alpha = eps_i - eps_j, for the epsilon coordinates e of mu."""
    prod = 1
    for i, x in enumerate(e):
        for y in e[i + 1:]:
            prod *= x - y
    return prod


def _gamma(n):
    """gamma_n = n u / (1 - n u), elementwise for arrays."""
    return n * _U / (1 - n * _U)


def _alternating_sum(lam_fw: Sequence[int], coords, dps: int):
    """sum_w eps(w) e^{<w lam, x>} over the Weyl group of A_r, r = len(lam_fw),
    as the determinant det[e^{e_j y_i}] in mpmath at dps digits (an mpc),
    for the coroot coordinates coords of x."""
    import mpmath as mp

    e = _epsilon_coords(lam_fw)
    with mp.workdps(dps):
        pts = [mp.mpc(0)] + [mp.mpc(c) for c in coords] + [mp.mpc(0)]
        return _det([[mp.exp(ej * (b - a)) for ej in e] for a, b in zip(pts, pts[1:])])


def _det(rows):
    """Determinant of a small complex or mpc matrix, by Gaussian elimination
    with partial pivoting at the entries' precision.

    mp.det is not used: on a matrix whose pivot column eliminates to exact
    zeros (tables of roots of unity give such exactly singular matrices)
    mpmath 1.3 leaves the pivot index unset and raises TypeError.
    """
    a = [list(row) for row in rows]
    n = len(a)
    det = 1
    for j in range(n):
        p = max(range(j, n), key=lambda i: abs(a[i][j]))
        if a[p][j] == 0:
            return a[p][j]  # an exact zero of the entries' type
        if p != j:
            a[j], a[p] = a[p], a[j]
            det = -det
        det *= a[j][j]
        for i in range(j + 1, n):
            f = a[i][j] / a[j][j]
            for k in range(j + 1, n):
                a[i][k] -= f * a[j][k]
    return det


def _schur(lam: Sequence[int], z):
    """(s_lam(z), m): the Schur polynomial of the partition lam (one part
    per entry of z, trailing zeros included) at z, by the branching rule,
    and the most rounding units any monomial carries (module docstring).

    z holds complex, mpc or real entries; the value has their type (the
    int 1 when lam is zero).
    """
    powers = []
    for zk in z:
        row = [1]
        for _ in range(lam[0]):
            row.append(row[-1] * zk)
        powers.append(row)
    memo = {}

    def branch(mu):  # s_mu(z_1..z_k), k = len(mu)
        if len(mu) == 1:
            return powers[0][mu[0]], 18 * mu[0]
        if mu not in memo:
            k, size = len(mu), sum(mu)
            total, depth, count = 0, 0, 0
            for nu in itertools.product(*(range(mu[i + 1], mu[i] + 1) for i in range(k - 1))):
                value, m = branch(nu)
                d = size - sum(nu)
                total += value * powers[k - 1][d]
                depth = max(depth, m + 18 * d)
                count += 1
            memo[mu] = total, depth + count - 1
        return memo[mu]

    return branch(tuple(lam))


def weyl_character(rs: RootSystem, weight: Weight, x: CartanElement) -> tuple[complex, float]:
    """(chi_Lambda(x), bound): the character of the irrep with highest
    weight Lambda at the point x, and a bound on its rounding error."""
    if not weight.is_dominant:
        raise PreconditionError("weyl_character expects a dominant weight")
    if len(x.coords) != rs.rank:
        raise PreconditionError("point dimension mismatch")
    pts = (0j,) + x.coords + (0j,)
    z = [cmath.exp(b) * cmath.exp(-a) for a, b in zip(pts, pts[1:])]
    e = _epsilon_coords(weight.coords)
    value, m = _schur(e, z)
    moduli, _ = _schur(e, [abs(zk) for zk in z])
    return complex(value), _gamma(m) * moduli / (1 - _gamma(m))
