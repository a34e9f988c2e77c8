"""Heat-kernel partition sums of two dimensional Yang-Mills theory.

    Z_g(eps) = sum over dominant Lambda of (dim Lambda)^(2-2g)
               * exp(-eps * casimir(Lambda) / 2)

The sum runs over the full dominant cone, so every evaluation carries a
certified bound on its error. Write m = 2g - 2, r for the rank and
u = 2^-53 for the unit roundoff of binary64.

Flat limit (eps = 0): the last coordinate in closed form.

* Split the shifted coordinates Lambda + rho = (a, c) into the outer ones
  a = (a_1 .. a_{r-1}) and the last one c >= 1, and put
  t_i = a_i + ... + a_{r-1}, t_r = 0. The epsilon coordinates are t_i + c,
  so dim = dim_{A_{r-1}}(a) prod_{i<=r} (t_i + c) / r!.
* The t_i are distinct, so prod_i (c + t_i)^-m has r poles of order m:
  it is sum_{j, k<=m} R_jk (c + t_j)^-k, with R_jk the x^(m-k) Taylor
  coefficient of prod_{i != j} (x + t_i - t_j)^-m. Summing over c >= 1,
  sum_c (c + t)^-k = zeta(k) - H_t^(k) for k >= 2, and the k = 1
  coefficients add up to 0 (the product decays like c^-rm), so together
  they give -sum_j R_j1 H_{t_j}. Hence

      F(a) = (r!/dim_{A_{r-1}}(a))^m [sum_{j, k>=2} R_jk (zeta(k) - H^(k)_{t_j})
                                     - sum_j R_j1 H_{t_j}],

  and only a runs over a box [1, L]^(r-1): L^(r-1) outer points in place of
  about L^r box points. Rank 1 has the single empty outer point, F = zeta(m).
* zeta(k) is the Euler-Maclaurin sum with N = 16 and B_2 .. B_12, evaluated
  in exact rationals and rounded once. Its remainder is at most the first
  omitted term, |B_14/14!| k(k+1)...(k+12) 16^-(k+13), which is 1.02e-18 at
  k = 2 and falls with k: below u zeta(k). H^(k)_t is the running sum of
  the n^-k, n <= t, one table per block of outer points (rank 2 carries the
  last entry of the previous block's table, as its t_1 = a_1 only grows).
  No mpmath is involved.
* Outer tail. As t_r = 0, sum_c prod_i (c + t_i)^-m <= zeta(m)
  prod_{i<r} (t_i + 1)^-m, so F(a) <= zeta(m) D(a)^-m with
  D(a) = dim_{A_{r-1}}(a) prod_{i<r} (t_i + 1) / r!, the A_r dimension at
  Lambda + rho = (a, 1). D is the product over the roots e_i - e_j,
  i < j <= r + 1, of the sums s_i + ... + s_{j-1} divided by j - i, where
  s = (a, 1) >= 1. Outside the box some a_p > L. The N_p = p(r+1-p) roots
  with i <= p < j are then each >= a_p, the other simple roots give a_l,
  and every other factor is >= 1, so D(a) >= a_p^N_p prod_{l != p} a_l / K_p
  with K_p = prod_{i<=p<j} (j - i). Summing each a_l, l != p, over all n >= 1
  (zeta(m) each) and a_p over n > L, with sum_{n>L} n^-s <= L^(1-s)/(s-1):

      tail(L) <= zeta(m)^(r-1) sum_{p<r} K_p^m L^(1 - N_p m) / (N_p m - 1).

  For A2 this is 2^m zeta(m) L^(1-2m)/(2m-1). L is the smallest side with
  tail(L) <= tol/2, the other half of tol being left to rounding; the
  search starts where the p = 1 term alone, which decays slowest, meets
  tol/2.
* Rounding is part of the certificate. If every path from the exact inputs
  to a computed sum of products passes through at most n roundings, the
  error is at most gamma_n = nu/(1 - nu) times the same expression with
  every input and operation replaced by its absolute value (Higham,
  Accuracy and Stability of Numerical Algorithms, 2nd ed., Lemma 3.3). That
  absolute value is summed next to F(a), with the majorant series
  prod_{i != j} (|t_i - t_j| - x)^-m in place of R_jk and zeta(k) + H in
  place of zeta(k) - H. The path lengths are counted in _flat_block; pole j
  adds t_j for its running sum H_{t_j}. Block sums and their total are
  math.fsum'd, each correctly rounded (gamma_1 of its absolute value).
  The pieces cancel more as m grows: at a = 1 they reach C(2m-2, m-1)
  times the result.
* Fallback. The flat sum stops as soon as tail(L) plus the rounding bound
  spent so far exceeds tol, and Z is then summed over the box below, whose
  tail is tiny exactly where m is large, with the box's rounding bound
  below. The choice rests only on these computed bounds.

Box (eps > 0, and the flat fallback): dominant weights are enumerated in the
box max coord <= L and the tail is bounded by dim(Lambda) >=
prod(coord_i + 1), the full-chain factor dim >= prod * (|Lambda| + r)/r for
rank >= 2, and <Lambda, Lambda> >= L^2/4 outside the box (smallest
eigenvalue of the inverse Cartan matrix exceeds 1/4 in the A series), giving

    tail <= r 2^(r-1) (L+1)^(1-m)/(m-1)
            * (r/(L+1+r))^(m [rank>=2])
            * exp(-eps L^2 / 8).

The box is summed by _box_terms in blocks of at most _BLOCK points, taken
in itertools.product order (last coordinate fastest). Each block turns
flat indices into the rows Lambda+rho, takes their epsilon coordinates e
and M = (r+1)|Lambda+rho|^2 from lie._epsilon_norms (as modular's levels
do), so casimir(Lambda) = (M - M_rho)/(r+1), and multiplies out
V = prod_{i<j} (e_i - e_j) in place, so dim Lambda = V // V(rho). Each
of V and M is int64 when its largest value in the box, (L+1)^(r(r+1)/2) V(rho)
for V, is below 2^63, and exact Python ints (dtype=object) otherwise;
A5 at L = 16 has V near 1e23, while M stays small.
The two floating point steps, dim^-m and exp(-eps casimir/2), stay scalar
libm calls on the .tolist() values: numpy's vectorised pow and exp are
not guaranteed to round as libm does, and scalar calls keep every term
bit-identical to the per-weight formula. math.fsum rounds the sum
correctly, so Z does not depend on the order of the terms either.

The box's rounding is bounded at every eps. A term t = dim^-m exp(-x),
x = eps (c/r1)/2 with c = (r+1) casimir, takes at most m + 5 roundings:
dim goes to binary64 once, which the power turns into m; pow and exp are
within one ulp, two each; their product is one more. x takes two (c/r1
and the product with eps; /2 is exact), which move exp by a factor of at
most exp(x gamma_2). A computed term t' is then within
t' (gamma_(m+5) + expm1(x gamma_2))/(1 - gamma_(m+5)) of the exact one, and
with the fsum the computed Z is within (gamma_(m+6) Z + E)/(1 - gamma_(m+6))
of the exact box sum, E = sum t' expm1(x gamma_2): each argument's rounding
weighted by its own term. _box_terms sums E beside the terms with gamma_4
for gamma_2, which covers x <= x'/(1 - gamma_2) for the computed x' and
E's own roundings. That is added to the tail bound; a total above tol is
refused.

The term budget counts outer points on the flat path and box points on
the box, and is checked before any term is summed; a refusal names the
size the tolerance needed.

Genus must be at least 2; the g < 2 sums diverge at eps = 0 and are
refused rather than regularised.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BudgetExceededError, CertificationError, PreconditionError
from .lie import RootSystem, _epsilon_norms, _form, _gamma, _shifted_epsilon, _vandermonde

DEFAULT_TOL = 1e-10
DEFAULT_MAX_TERMS = 2_000_000
_BLOCK = 4096  # points per block; larger blocks cost memory, not time
# B_2 .. B_14: Euler-Maclaurin corrections for zeta, the last one bounds the remainder
_BERNOULLI = (Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
              Fraction(5, 66), Fraction(-691, 2730), Fraction(7, 6))


@dataclass(frozen=True)
class YM2Result:
    value: float
    tail_bound: float
    terms: int
    genus: int
    epsilon: float


def _zeta(k: int) -> tuple[Fraction, Fraction]:
    """zeta(k), k >= 2, by Euler-Maclaurin from N = 16 as an exact rational,
    and the first omitted term, which bounds its remainder."""
    n = 16
    value = (sum(Fraction(1, i ** k) for i in range(1, n))
             + Fraction(1, (k - 1) * n ** (k - 1)) + Fraction(1, 2 * n ** k))
    rising, fact = k, 2  # k (k+1) ... (k+2j-2) and (2j)!
    for j, b in enumerate(_BERNOULLI, 1):
        term = b * rising / (fact * n ** (k + 2 * j - 1))
        if j == len(_BERNOULLI):
            return value, abs(term)
        value += term
        rising *= (k + 2 * j - 1) * (k + 2 * j)
        fact *= (2 * j + 1) * (2 * j + 2)


def _outer_tail(rank: int, m: int, zeta_m: float, side: int) -> float:
    """The bound tail(L) of the module docstring at L = side; 0 at rank 1."""
    total = Fraction(0)
    for p in range(1, rank):
        n_p = p * (rank + 1 - p)
        k_p = math.prod(j - i for i in range(1, p + 1) for j in range(p + 1, rank + 2))
        total += Fraction(k_p ** m, (n_p * m - 1) * side ** (n_p * m - 1))
    return zeta_m ** (rank - 1) * float(total)


def _outer_side(rank: int, m: int, zeta_m: float, target: float) -> int:
    """The smallest side L with tail(L) <= target; 1 at rank 1, which has no
    outer tail."""
    if rank == 1:
        return 1
    # the p = 1 term alone, zeta^(r-1) (r!)^m L^(1-rm) / (rm-1), reaches
    # target at L0 <= L, and the others are small by then
    log_c = (rank - 1) * math.log(zeta_m) + m * math.log(math.factorial(rank)) \
        - math.log(rank * m - 1)
    side = max(1, math.floor(math.exp((log_c - math.log(target)) / (rank * m - 1))))
    while _outer_tail(rank, m, zeta_m, side) > target:
        side += 1
    return side


def _pole_series(tf: np.ndarray, j: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Taylor coefficients of x^0 .. x^(m-1) of prod_{i != j} (x + t_i - t_j)^-m
    and of its majorant prod_{i != j} (|t_i - t_j| - x)^-m, as (m, n) arrays,
    for the rows t of the (n, r) float array tf."""
    n = len(tf)
    ser = np.zeros((m, n))
    ser[0] = 1.0
    bar = ser.copy()
    binom = [float(math.comb(m + q - 1, q)) for q in range(m)]
    for i in range(tf.shape[1]):
        if i == j:
            continue
        inv = 1.0 / (tf[:, i] - tf[:, j])
        p = inv.copy()
        for _ in range(m - 1):
            p *= inv
        # (x + d)^-m = sum_q C(m+q-1, q) d^-m (-1/d)^q x^q
        f = np.empty((m, n))
        for q in range(m):
            f[q] = binom[q] * p
            p = p * -inv
        fb = np.abs(f)
        new, new_bar = np.zeros((m, n)), np.zeros((m, n))
        for q in range(m):
            new[q:] += f[q] * ser[:m - q]
            new_bar[q:] += fb[q] * bar[:m - q]
        ser, bar = new, new_bar
    return ser, bar


def _flat_block(t: np.ndarray, m: int, zeta: list, table: np.ndarray | None,
                offset: int) -> tuple[list, float]:
    """The terms F(a) of the outer points with rows t = (t_1 .. t_r) of an (n, r)
    int64 array, and the bound on their summed rounding errors. zeta[k] is
    zeta(k) as a float; table[k - 1, t - offset] is H^(k)_t for the t > 0
    of these rows."""
    n, r = t.shape
    tf = t.astype(float)
    # q = r!/dim_{A_{r-1}}(a): one conversion, a division and a product per pair
    q = np.full(n, float(math.factorial(r)))
    for i in range(r):
        for j in range(i + 1, r):
            q *= (j - i) / (tf[:, i] - tf[:, j])
    pre = q.copy()
    for _ in range(m - 1):
        pre *= q
    # roundings on the longest path to F(a), but for the t_j additions of
    # pole j's running sum H_{t_j}: q^m, R_jk (its factors' powers, binomial
    # and product, then one convolution per factor), zeta - H (the powers
    # n^-k and the subtraction), the product R (zeta - H), the sums over k
    # and j, and the product with q^m
    depth = ((m * (1 + r * (r - 1)) + m - 1) + (2 * m + 1 + (r - 1) * (m + 1))
             + (m + 1) + 1 + (m + r) + 1)
    value, bound = np.zeros(n), np.zeros(n)
    for j in range(r):
        ser, bar = _pole_series(tf, j, m)
        h = table[:, t[:, j] - offset] if j < r - 1 else np.zeros((m, n))  # t_r = 0
        part, mag = -ser[m - 1] * h[0], bar[m - 1] * h[0]  # k = 1
        for k in range(2, m + 1):
            part += ser[m - k] * (zeta[k] - h[k - 1])
            mag += bar[m - k] * (zeta[k] + h[k - 1])
        value += part
        bound += _gamma(depth + t[:, j]) * mag
    return (pre * value).tolist(), float(np.sum(pre * bound))


def _harmonic_table(m: int, last: int, carry: np.ndarray, high: int) -> np.ndarray:
    """H^(k)_t in row k - 1 and column t - last, for k = 1..m and
    t = last..high, continuing the running sums carry = H^(k)_last."""
    powers = np.empty((m, high - last + 1))
    powers[:, 0] = carry
    powers[0, 1:] = 1.0 / np.arange(last + 1, high + 1)
    for k in range(1, m):
        powers[k, 1:] = powers[k - 1, 1:] * powers[0, 1:]
    return np.cumsum(powers, axis=1)  # add.accumulate: sequential, as the bound counts


def _flat_sum(rank: int, m: int, tol: float, max_terms: int):
    """(Z, bound, outer points) of the flat sum, or None when truncation plus
    rounding cannot meet tol."""
    zeta = [0.0, 0.0] + [float(_zeta(k)[0]) for k in range(2, m + 1)]
    side = _outer_side(rank, m, zeta[m], tol / 2)
    total = side ** (rank - 1)
    if total > max_terms:
        raise BudgetExceededError(
            "certifying tol %g at eps = 0 needs %d^%d outer points, budget %d; "
            "raise max_terms or relax target_tol" % (tol, side, rank - 1, max_terms))
    spent = _outer_tail(rank, m, zeta[m], side)
    sums = []
    last, carry = 0, np.zeros(m)  # H^(k)_last, where the previous table ended
    for start in range(0, total, _BLOCK):
        flat = np.arange(start, min(start + _BLOCK, total))
        t = _epsilon_norms(_box_points(rank - 1, side - 1, flat))[0]
        table, offset = None, 0
        if rank > 1:
            low, high = int(t[:, rank - 2].min()), int(t[:, 0].max())
            if low <= last:
                last, carry = 0, np.zeros(m)
            table, offset = _harmonic_table(m, last, carry, high), last
            last, carry = high, table[:, -1]
        terms, rounding = _flat_block(t, m, zeta, table, offset)
        sums.append(math.fsum(terms))
        spent += rounding + _gamma(1) * abs(sums[-1])
        if not spent <= tol:  # also catches nan
            return None
    value = math.fsum(sums)
    return value, spent + _gamma(1) * abs(value), total


def _box_tail_bound(rank: int, m: int, eps: float, box: int) -> float:
    geom = rank * 2.0 ** (rank - 1) * (box + 1.0) ** (1 - m) / (m - 1)
    if rank >= 2:
        # the product over simple coordinates misses the full-chain factor
        geom *= (rank / (box + 1.0 + rank)) ** m
    return geom * math.exp(-eps * box * box / 8)


def _box_points(rank: int, box: int, flat: np.ndarray) -> np.ndarray:
    """The rows Lambda+rho, coordinates 1..box+1, of the box 0..box at the
    itertools.product indices `flat`."""
    side = box + 1
    strides = np.array([side ** k for k in range(rank - 1, -1, -1)], dtype=np.int64)
    return flat[:, None] // strides % side + 1


def _box_invariants(rank: int, box: int, flat: np.ndarray) -> tuple[list[int], list[int]]:
    """dim Lambda and (r+1) casimir(Lambda), as lists of ints, for the
    points of the box 0..box at the itertools.product indices `flat`."""
    r1 = rank + 1
    side = box + 1
    e_rho = _shifted_epsilon((0,) * rank)
    v_rho = _vandermonde(e_rho)
    lam = _box_points(rank, box, flat)
    # e_i <= e_1 <= rank * side bounds (r+1) sum e^2 and (sum e)^2, and the
    # largest V in the box is side^(r(r+1)/2) V(rho)
    e, m = _epsilon_norms(lam if (r1 * rank * side) ** 2 < 2 ** 63 else lam.astype(object))
    e = e.astype(np.int64 if side ** (rank * r1 // 2) * v_rho < 2 ** 63 else object, copy=False)
    v = np.ones(len(flat), dtype=e.dtype)
    for i in range(rank):
        for j in range(i + 1, r1):
            v *= e[:, i] - e[:, j]
    return (v // v_rho).tolist(), (m - _form(e_rho, e_rho)).tolist()


def _box_terms(rank: int, box: int, m: int, eps: float):
    """Yield the terms dim^-m exp(-eps casimir/2) of the dominant weights
    with coordinates in 0..box, in lists of at most _BLOCK terms, each list
    with its share of E (module docstring)."""
    r1 = rank + 1
    g4 = _gamma(4)
    total = (box + 1) ** rank
    for start in range(0, total, _BLOCK):
        dims, cas = _box_invariants(rank, box, np.arange(start, min(start + _BLOCK, total)))
        terms = [d ** (-m) * math.exp(-eps * (c / r1) / 2) for d, c in zip(dims, cas)]
        yield terms, math.fsum(t * math.expm1(eps * (c / r1) / 2 * g4)
                               for t, c in zip(terms, cas))


def ym2_partition(rs: RootSystem, genus: int, epsilon: float,
                  target_tol: float = DEFAULT_TOL,
                  max_terms: int = DEFAULT_MAX_TERMS) -> YM2Result:
    """Certified evaluation of Z_g(eps)."""
    if genus < 2:
        raise PreconditionError("genus must be >= 2, the sum diverges below that")
    if not 0 <= epsilon < math.inf:  # also refuses nan
        raise PreconditionError("epsilon must be a finite number >= 0")
    if not 0 < target_tol < math.inf:  # also refuses nan
        raise PreconditionError(
            "target_tol must be a positive finite number, got %r" % (target_tol,))
    m = 2 * genus - 2
    flat = _flat_sum(rs.rank, m, target_tol, max_terms) if epsilon == 0 else None
    if flat is not None:
        value, bound, terms = flat
    else:
        box = 16
        while True:
            if (box + 1) ** rs.rank > max_terms:
                raise BudgetExceededError(
                    "certifying tol %g needs a box of at least %d^%d dominant "
                    "weights, budget %d; raise max_terms or relax target_tol"
                    % (target_tol, box + 1, rs.rank, max_terms))
            if _box_tail_bound(rs.rank, m, epsilon, box) <= target_tol:
                break
            box *= 2
        terms = (box + 1) ** rs.rank
        shares = []  # E (module docstring), one share per block
        value = math.fsum(itertools.chain.from_iterable(
            shares.append(e) or block for block, e in _box_terms(rs.rank, box, m, epsilon)))
        g = _gamma(m + 6)
        bound = (_box_tail_bound(rs.rank, m, epsilon, box)
                 + (g / (1 - g) * value + math.fsum(shares) / (1 - g)))
        if bound > target_tol:
            raise CertificationError(
                "tol %g is below the bound %g on the box sum's tail and rounding"
                % (target_tol, bound))
    if not value > 0:  # also catches nan
        raise CertificationError("partition sum must be positive, got %r" % (value,))
    return YM2Result(value=value, tail_bound=bound, terms=terms,
                     genus=genus, epsilon=epsilon)


@dataclass(frozen=True)
class EpsilonProfile:
    genus: int
    rows: tuple[tuple[float, float, float], ...]  # (eps, Z, tail_bound)
    flat_value: float | None  # Z(0), None when eps = 0 was not requested


def ym2_epsilon_profile(rs: RootSystem, genus: int, epsilons,
                        target_tol: float = DEFAULT_TOL,
                        max_terms: int = DEFAULT_MAX_TERMS) -> EpsilonProfile:
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
        res = ym2_partition(rs, genus, e, target_tol, max_terms)
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


@dataclass(frozen=True)
class CrosscheckReport:
    genus: int
    levels: tuple[int, ...]
    scaled: tuple[float, ...]
    flat_value: float
    fitted_constant: float
    first_gap: float
    last_gap: float
    converged: bool


def verlinde_ym2_crosscheck(rs: RootSystem, genus: int, levels) -> CrosscheckReport:
    """Ratio convergence between scaled Verlinde growth and Z_g(0).

    The Verlinde dimension grows like kappa^D with D = (g-1) dim(g), and
    V_g(k) kappa^-D / Z_g(0) tends to the exact limit

        |Z(G)| (r+1)^(g-1) V(rho)^(2-2g) (2 pi)^(-(2g-2)|Delta+|),

    with V(rho) = prod over positive roots of <rho, alpha> (Witten's volume
    formula; 1/pi^2 for A1 at g = 2). Only the trend is asserted here: the
    increments of the sequence must shrink.
    """
    from .verlinde import verlinde_dimension

    ks = sorted(set(int(k) for k in levels))
    if len(ks) < 4:
        raise PreconditionError("need at least 4 increasing levels")
    if genus < 2:
        raise PreconditionError("genus must be >= 2")
    d_exp = (genus - 1) * rs.dimension
    flat = ym2_partition(rs, genus, 0.0)
    scaled = []
    for k in ks:
        v = verlinde_dimension(rs, k, genus)
        kappa = k + rs.dual_coxeter
        scaled.append(v / kappa ** d_exp / flat.value)
    first_gap = abs(scaled[1] - scaled[0])
    last_gap = abs(scaled[-1] - scaled[-2])
    converged = last_gap < first_gap
    return CrosscheckReport(genus=genus, levels=tuple(ks), scaled=tuple(scaled),
                            flat_value=flat.value, fitted_constant=scaled[-1],
                            first_gap=first_gap, last_gap=last_gap,
                            converged=converged)
