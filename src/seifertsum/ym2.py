"""Heat-kernel partition sums of two dimensional Yang-Mills theory.

    Z_g(eps) = sum over dominant Lambda of (dim Lambda)^(2-2g)
               * exp(-eps * casimir(Lambda) / 2)

The sum runs over the full dominant cone, so every evaluation carries a
certified bound on its error. Write m = 2g - 2, r for the rank and
u = 2^-53 for the unit roundoff of binary64.

Flat limit (eps = 0), rank <= 2: Z = zeta_W(m) is an exact rational q
times pi^(|Delta+| m), with q in closed form.

* Rank 1 is zeta(m) = (-1)^(m/2+1) B_m 2^(m-1) pi^m / m!. For A2, dim =
  ab(a+b)/2 at Lambda + rho = (a, b), so Z = 2^m T(m, m, m) with the
  Mordell-Tornheim sum T, which for even s is T(s, s, s) = (4/3)
  sum_{j<=s/2} C(2s-2j-1, s-1) zeta(2j) zeta(3s-2j), zeta(0) = -1/2
  (Mordell, J. London Math. Soc. 33 (1958)). As zeta(2j) = (-1)^(j+1)
  B_2j 2^(2j-1) pi^(2j) / (2j)!, each product zeta(2j) zeta(3m-2j) is
  (-1)^(m/2) 2^(3m-2) C(3m, 2j) B_2j B_(3m-2j) pi^(3m) / (3m)!, and

      q = (-1)^(m/2) 2^(4m) / (3 (3m)!)
          sum_{j<=m/2} C(2m-2j-1, m-1) C(3m, 2j) B_2j B_(3m-2j).

* B_2j = (-1)^(j-1) 2j T_j / (4^j (4^j - 1)), with the tangent numbers T_j
  of tan x = sum T_j x^(2j-1)/(2j-1)! from an integer recurrence that
  divides nowhere (Knuth and Buckholtz, Math. Comp. 21 (1967); Brent and
  Harvey, "Fast computation of Bernoulli, tangent and secant numbers"
  (2013)): O(n^2) big-integer steps for n = |Delta+| m/2 (297 at A2,
  g = 100).
* Z is q Pi^e, e = |Delta+| m, rounded once by an integer division, with
  Pi = pi truncated to 60 decimals, so Pi <= pi < Pi + 10^-60. Then
  q Pi^e <= Z < q Pi^e (1 + 10^-60/Pi)^e <= q Pi^e (1 + e 10^-60) for
  e <= 10^60, and the computed Z' is within (gamma_1 + 2 e 10^-60) Z'
  of Z: the bound. A tol below it is refused.

Flat limit, rank >= 3, genus 2: q from the Verlinde polynomial. Witten's
volume formula (J. Geom. Phys. 9 (1992)) gives zeta_W(m) = C_g V(rho)^m
(2 pi)^(m |Delta+|) / (r+1)^g, V(rho) = 1! 2! ... r!, with C_g the leading
coefficient of the unlabelled Verlinde number V_g(k), a polynomial in k of
degree D = (g-1) dim G (verlinde module docstring, which cites the theorem).
So q = C_g V(rho)^m 2^(m |Delta+|) / (r+1)^g exactly, and Z is rounded once
as above, with the same bound. C_g is the D-th difference of V_g over the
levels 0 .. D, divided by D!, and level D + 1 checks the degree
(verlinde._leading_coefficient); modular.price_level prices the top level
before the first is summed, so A5 g2 (levels up to 36) is summed and A6 g2
(level 49, 28,989,675 weights) is refused. At genus >= 3 the levels grow with
D, and the flat sum takes the cube below.

Cone (eps > 0, and the flat fallback): the dominant weights are
enumerated line by line in itertools.product order of the labels (the
last one fastest), and every label stops either at a cube side L or at a
Casimir shell, whichever stop holds fewer weights.

* Cube: labels <= L. The tail is bounded by dim(Lambda) >=
  prod(coord_i + 1), the full-chain factor dim >= prod * (|Lambda| + r)/r
  for rank >= 2, and <Lambda, Lambda> >= L^2/4 outside the cube (smallest
  eigenvalue of the inverse Cartan matrix exceeds 1/4 in the A series),
  giving

      tail <= r 2^(r-1) (L+1)^(1-m)/(m-1)
              * (r/(L+1+r))^(m [rank>=2])
              * exp(-eps L^2 / 8),

  and L is the first of 16, 32, 64, ... with tail <= tol.
* Shell: (r+1) casimir <= cap. The simple roots give the factors
  lambda_i + 1 of dim Lambda = prod_{alpha>0} <Lambda+rho, alpha>/<rho, alpha>
  and every other factor is at least 1, so dim >= prod (lambda_i + 1),
  whose m-th inverse powers sum to zeta(m)^r over the cone. Outside the
  shell (r+1) casimir >= cap + 1, so

      tail <= zeta(m)^r exp(-eps (cap + 1) / (2 (r+1))),

  and cap is the smallest with tail <= tol/2, the other half of tol being
  left to rounding. Stopping label by label is valid because the casimir
  grows in every label: casimir(Lambda + omega_i) - casimir(Lambda) =
  <omega_i, omega_i> + 2 <omega_i, Lambda + rho> > 0, as every entry of
  the inverse Cartan matrix is positive. Once the weight with the later
  labels at 0 leaves the shell, every larger value of the label does too.
* Choice. The cube holds (L+1)^r weights. The shell's are counted line by
  line, and the count stops once it reaches the cube's or passes the
  budget; ties keep the cube. Both counts are taken before any term is
  summed. The shell wins at moderate eps (A5, g = 2, eps = 1, tol 1e-3:
  18 weights against 17^5), the cube where the decay of dim^-m alone
  nearly meets tol (large genus, eps near 0). The flat fallback has no
  shell and takes the cube.
* Lines. In the labels, (r+1) casimir = sum_ij K_ij lambda_i lambda_j +
  sum_i b_i lambda_i with K_ij = min(i, j)(r + 1 - max(i, j)), (r+1) times
  the inverse Cartan matrix, and b_i = 2 sum_j K_ij. Along label d, with
  the labels before it fixed and those after it at 0, it is
  a + v (B_d + K_dd v), B_d = (r+1-d)(d(r+1) + 2 sum_{j<d} j lambda_j), so
  the last value of each label in the shell is an integer square root.
  Along the last label, Lambda + rho = (s, c) with c = v + 1, only the r
  factors e_i - e_(r+1) = t_i + c of V = prod_{i<j} (e_i - e_j) move, t
  the epsilon coordinates of s, so dim = w c prod_{i<r} (t_i + c) / V(rho)
  with w = V(t) fixed per line, taken as the Vandermonde of the prefix
  sums of s as the labels are fixed. Dims and casimirs stay exact Python
  ints (A5 at L = 16 has V near 1e23).

The two floating point steps, dim^-m and exp(-eps casimir/2), are scalar
libm calls, so every term is bit-identical to the per-weight formula; at
eps = 0 every exp(-0.0) is 1 and the term is dim^-m. math.fsum rounds
the sum correctly, so Z does not depend on the order of the terms either.

The rounding is bounded at every eps. A term t = dim^-m exp(-x),
x = eps (c/r1)/2 with c = (r+1) casimir, takes at most m + 5 roundings:
dim goes to binary64 once, which the power turns into m; pow and exp are
within one ulp, two each; their product is one more. x takes two (c/r1
and the product with eps; /2 is exact), which move exp by a factor of at
most exp(x gamma_2). A computed term t' is then within
t' (gamma_(m+5) + expm1(x gamma_2))/(1 - gamma_(m+5)) of the exact one, and
with the fsum the computed Z is within (gamma_(m+6) Z + E)/(1 - gamma_(m+6))
of the exact sum over the cube or shell, E = sum t' expm1(x gamma_2): each
argument's rounding weighted by its own term. _cone_terms sums E beside
the terms, a share per block of _BLOCK terms, with gamma_4 for gamma_2,
which covers x <= x'/(1 - gamma_2) for the computed x' and E's own
roundings. That is added to the tail bound; a total above tol is refused.

The term budget, MAX_TERMS, counts the weights of the chosen stop on the
cone, and is checked before any term is summed; a refusal names the size
the tolerance needed. The flat sums are not held to it: the closed form
sums no terms and counts as one, and the genus-2 route from rank 3 counts
the weights of its levels 1 .. D + 1, which modular.price_level prices.

Genus must be at least 2; the g < 2 sums diverge at eps = 0 and are
refused rather than regularised.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import floordiv, mul
from typing import NamedTuple

from .errors import BudgetExceededError, CertificationError, PreconditionError
from .lie import RootSystem, _gamma, _shifted_epsilon, _vandermonde

DEFAULT_TOL = 1e-10
MAX_TERMS = 2_000_000
_BLOCK = 4096  # points per block; larger blocks cost memory, not time
# pi truncated to 60 decimals: _PI <= pi < _PI + 1e-60
_PI = Fraction(3141592653589793238462643383279502884197169399375105820974944, 10 ** 60)


class YM2Result(NamedTuple):
    value: float
    tail_bound: float
    terms: int
    genus: int
    epsilon: float


def _bernoulli(n: int) -> list[Fraction]:
    """B_0, B_2, .., B_2n, from the tangent numbers (module docstring)."""
    t = [0, 1] + [0] * (n - 1)  # T_0 (unused) .. T_n
    for k in range(2, n + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return [Fraction(1)] + [Fraction((-1) ** (j - 1) * 2 * j * t[j], 4 ** j * (4 ** j - 1))
                            for j in range(1, n + 1)]


def _flat_rational(rank: int, m: int) -> Fraction:
    """q = Z/pi^(|Delta+| m) at eps = 0, rank 1 or 2, exactly (module docstring)."""
    p = m // 2
    if rank == 1:
        return (-1) ** (p + 1) * _bernoulli(p)[p] * Fraction(2 ** (m - 1), math.factorial(m))
    b = _bernoulli(3 * p)
    total = sum(math.comb(2 * m - 2 * j - 1, m - 1) * math.comb(3 * m, 2 * j) * b[j] * b[3 * p - j]
                for j in range(p + 1))
    return (-1) ** p * Fraction(2 ** (4 * m), 3 * math.factorial(3 * m)) * total


def _zeta(k: int) -> tuple[Fraction, Fraction]:
    """zeta(k), k >= 2, by Euler-Maclaurin from N = 16 as an exact rational,
    and the first omitted term, which bounds its remainder."""
    n = 16
    value = (sum(Fraction(1, i ** k) for i in range(1, n))
             + Fraction(1, (k - 1) * n ** (k - 1)) + Fraction(1, 2 * n ** k))
    rising, fact = k, 2  # k (k+1) ... (k+2j-2) and (2j)!
    corrections = _bernoulli(7)[1:]  # B_2 .. B_14, the last one bounds the remainder
    for j, b in enumerate(corrections, 1):
        term = b * rising / (fact * n ** (k + 2 * j - 1))
        if j == len(corrections):
            return value, abs(term)
        value += term
        rising *= (k + 2 * j - 1) * (k + 2 * j)
        fact *= (2 * j + 1) * (2 * j + 2)


def _flat_sum(rs: RootSystem, m: int):
    """(Z, bound, terms) at eps = 0, Z = q Pi^e rounded once, e = |Delta+| m:
    q in closed form at rank <= 2, whatever its bound, and from the Verlinde
    polynomial at genus 2 from rank 3; None from rank 3 at genus >= 3."""
    rank = rs.rank
    e = m * rank * (rank + 1) // 2
    if rank <= 2:
        q, terms = _flat_rational(rank, m), 1
    elif m == 2:
        from .verlinde import _leading_coefficient

        v_rho = math.prod(map(math.factorial, range(1, rank + 1)))
        q = _leading_coefficient(rs, 2) * Fraction(v_rho ** m * 2 ** e, (rank + 1) ** 2)
        # the weights of levels 1 .. D + 1, D = dim G: sum_k C(k+r, r) = C(D+r+2, r+1) - 1
        terms = math.comb(rs.dimension + rank + 2, rank + 1) - 1
    else:
        return None
    value = q.numerator * _PI.numerator ** e / (q.denominator * _PI.denominator ** e)
    return value, (_gamma(1) + 2e-60 * e) * value, terms


def _box_tail_bound(rank: int, m: int, eps: float, box: int) -> float:
    geom = rank * 2.0 ** (rank - 1) * (box + 1.0) ** (1 - m) / (m - 1)
    if rank >= 2:
        # the product over simple coordinates misses the full-chain factor
        geom *= (rank / (box + 1.0 + rank)) ** m
    return geom * math.exp(-eps * box * box / 8)


def _shell(rank: int, m: int, eps: float, target: float):
    """(cap, tail): the smallest cap on (r+1) casimir whose shell tail
    zeta(m)^r exp(-eps (cap+1)/(2(r+1))) is at most target, and that tail;
    None when eps is too small for a cap that binary64 can tell apart."""
    value, remainder = _zeta(m)
    log_z = rank * math.log(float(value + remainder))
    x = 2 * (rank + 1) * (log_z - math.log(target)) / eps
    if not x < math.inf:
        return None
    first = max(0, math.ceil(x) - 1)
    for cap in (first, first + 1):  # the second covers the rounding of x
        tail = math.exp(log_z - eps * (cap + 1) / (2 * (rank + 1)))
        if tail <= target:
            return cap, tail
    return None


def _cone_lines(rank: int, box: int | None = None, cap: int | None = None):
    """Yield (t, w, a, b, n) for each line of dominant weights, in
    itertools.product order of the labels (the last one fastest), within
    labels <= box or (r+1) casimir <= cap, whichever is given. On a line
    the outer labels are fixed and the last one is v = 0 .. n - 1; with
    c = v + 1, dim = w c prod_i (t_i + c) / V(rho) over the r - 1 entries
    of t, and (r+1) casimir = a + v (b + r v) (module docstring)."""
    r1 = rank + 1

    def walk(d, u, w, a, p):
        # labels 1 .. d-1 are fixed: u holds the sums of their shifted values,
        # u_1 = 0, w = V(u), a = (r+1) casimir with labels d .. r at 0, and
        # p = sum_j j lambda_j
        k, b = d * (r1 - d), (r1 - d) * (d * r1 + 2 * p)
        top = box if cap is None else (math.isqrt(b * b - 4 * k * (a - cap)) - b) // (2 * k)
        if d == rank:
            yield [u[-1] - x for x in u[:-1]], w, a, b, top + 1
            return
        for v in range(top + 1):
            x = u[-1] + v + 1
            yield from walk(d + 1, u + [x], w * math.prod([x - y for y in u]),
                            a + v * (b + k * v), p + d * v)

    return walk(1, [0], 1, 0, 0)


def _cone_invariants(rank: int, box: int | None = None, cap: int | None = None):
    """Yield dim Lambda and (r+1) casimir(Lambda), exact ints, as two lazy
    iterators per segment of at most _BLOCK points of each line of
    _cone_lines: the dims through one product per factor that moves along
    the line, the casimirs from their quadratic in the last label."""
    v_rho = _vandermonde(_shifted_epsilon((0,) * rank))
    for t, w, a, b, n in _cone_lines(rank, box, cap):
        for lo in range(0, n, _BLOCK):
            hi = min(lo + _BLOCK, n)
            v = map(mul, range(lo + 1, hi + 1), itertools.repeat(w))
            for ti in t:
                v = map(mul, v, range(ti + lo + 1, ti + hi + 1))
            yield (map(floordiv, v, itertools.repeat(v_rho)),
                   (a + j * (b + rank * j) for j in range(lo, hi)))


def _cone_terms(rank: int, m: int, eps: float, box: int | None = None,
                cap: int | None = None):
    """Yield the terms dim^-m exp(-eps casimir/2) of the dominant weights
    of _cone_lines, in their order, in lists of _BLOCK terms (the last one
    shorter), each list with its share of E (module docstring)."""
    r1 = rank + 1
    g4 = _gamma(4)
    terms, shares = [], []
    for dims, cas in _cone_invariants(rank, box, cap):
        if eps:
            xs = [eps * (c / r1) / 2 for c in cas]
            seg = [d ** -m * math.exp(-x) for d, x in zip(dims, xs)]
            shares += [u * math.expm1(x * g4) for u, x in zip(seg, xs)]
            terms += seg
        else:  # every exp(-x) is 1 and every share 0
            terms += map(pow, dims, itertools.repeat(-m))
        while len(terms) >= _BLOCK:
            yield terms[:_BLOCK], math.fsum(shares[:_BLOCK])
            del terms[:_BLOCK], shares[:_BLOCK]
    if terms:
        yield terms, math.fsum(shares)


def _cone_sum(rank: int, m: int, eps: float, tol: float):
    """(Z, bound, points) summed over the cube or, at eps > 0, the Casimir
    shell, whichever holds fewer points; both counts are taken, and the
    budget checked, before any term is summed."""
    box = 16
    while (box + 1) ** rank <= MAX_TERMS and _box_tail_bound(rank, m, eps, box) > tol:
        box *= 2
    stop, points = {"box": box}, (box + 1) ** rank
    tail = _box_tail_bound(rank, m, eps, box)
    shell = _shell(rank, m, eps, tol / 2) if eps > 0 else None
    if shell is not None:
        limit, count = min(points - 1, MAX_TERMS), 0
        for *_, n in _cone_lines(rank, cap=shell[0]):
            count += n
            if count > limit:
                break
        else:
            stop, points, tail = {"cap": shell[0]}, count, shell[1]
    if points > MAX_TERMS:
        raise BudgetExceededError(
            "certifying tol %g needs a box of at least %d^%d dominant weights%s, "
            "budget %d; relax target_tol"
            % (tol, box + 1, rank,
               "" if shell is None else " or a Casimir shell of more than %d" % MAX_TERMS,
               MAX_TERMS))
    shares = []  # E (module docstring), one share per block
    value = math.fsum(itertools.chain.from_iterable(
        shares.append(e) or block for block, e in _cone_terms(rank, m, eps, **stop)))
    g = _gamma(m + 6)
    return value, tail + (g / (1 - g) * value + math.fsum(shares) / (1 - g)), points


def ym2_partition(rs: RootSystem, genus: int, epsilon: float,
                  target_tol: float = DEFAULT_TOL) -> YM2Result:
    """Certified evaluation of Z_g(eps)."""
    if genus < 2:
        raise PreconditionError("genus must be >= 2, the sum diverges below that")
    if not 0 <= epsilon < math.inf:  # also refuses nan
        raise PreconditionError("epsilon must be a finite number >= 0")
    if not 0 < target_tol < math.inf:  # also refuses nan
        raise PreconditionError(
            "target_tol must be a positive finite number, got %r" % (target_tol,))
    m = 2 * genus - 2
    flat = _flat_sum(rs, m) if epsilon == 0 else None
    value, bound, terms = flat or _cone_sum(rs.rank, m, epsilon, target_tol)
    if bound > target_tol:
        raise CertificationError("tol %g is below the bound %g on the sum's tail and rounding"
                                 % (target_tol, bound))
    if not value > 0:  # also catches nan
        raise CertificationError("partition sum must be positive, got %r" % (value,))
    return YM2Result(value=value, tail_bound=bound, terms=terms,
                     genus=genus, epsilon=epsilon)


class EpsilonProfile(NamedTuple):
    genus: int
    rows: tuple[tuple[float, float, float], ...]  # (eps, Z, tail_bound)
    flat_value: float | None  # Z(0), None when eps = 0 was not requested


def ym2_epsilon_profile(rs: RootSystem, genus: int, epsilons,
                        target_tol: float = DEFAULT_TOL) -> EpsilonProfile:
    """Z_g on a list of couplings, checked for monotonicity.

    Every term falls as eps grows, so Z(eps2) <= Z(eps1) + 4 target_tol
    must hold for eps1 < eps2 over the requested rows. As Z(0) >= Z(eps)
    term by term, this is the deviation |Z(eps) - Z(0)| growing with eps,
    checked without summing Z(0). A violation means the certificates
    were not honoured and is raised as an error. The flat limit is summed
    only when eps = 0 is requested.
    """
    eps_list = sorted(set(float(e) + 0.0 for e in epsilons))  # -0.0 -> 0.0
    if any(e < 0 for e in eps_list):
        raise PreconditionError("epsilon must be >= 0")
    rows = []
    for e in eps_list:
        res = ym2_partition(rs, genus, e, target_tol)
        rows.append((e, res.value, res.tail_bound))
    slack = 4 * target_tol
    for (e1, z1, _), (e2, z2, _) in zip(rows, rows[1:]):
        if z2 > z1 + slack:
            raise CertificationError(
                "Z is not monotone in the coupling: eps %g gives Z = %r but "
                "eps %g gives Z = %r, more than %g above it"
                % (e1, z1, e2, z2, slack))
    flat = rows[0][1] if rows and rows[0][0] == 0.0 else None
    return EpsilonProfile(genus=genus, rows=tuple(rows), flat_value=flat)
