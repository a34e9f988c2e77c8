"""Heat-kernel partition sums of two dimensional Yang-Mills theory.

    Z_g(eps) = sum over dominant Lambda of (dim Lambda)^(2-2g)
               * exp(-eps * casimir(Lambda) / 2)

The sum runs over the full dominant cone, so every evaluation carries a
certified bound on its error. Write m = 2g - 2, r for the rank and
u = 2^-53 for the unit roundoff of binary64.

Flat limit (eps = 0), rank <= 2: Z = zeta_W(m) is an exact rational q
times pi^(|Delta+| m), summed with no outer sum.

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

Flat limit, rank >= 3: the last coordinate in closed form.

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
  about L^r box points.
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
  spent so far exceeds tol, and Z is then summed over the cube below, whose
  tail is tiny exactly where m is large, with the cone's rounding bound
  below. The choice rests only on these computed bounds.

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

The term budget, MAX_TERMS, counts outer points on the flat path from
rank 3 and the weights of the chosen stop on the cone, and is checked
before any term is summed; a refusal names the size the tolerance needed.
The closed form sums no terms and counts as one.

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
from .lie import RootSystem, _epsilon_norms, _gamma, _shifted_epsilon, _vandermonde

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


def _outer_tail(rank: int, m: int, zeta_m: float, side: int) -> float:
    """The bound tail(L) of the module docstring at L = side."""
    total = Fraction(0)
    for p in range(1, rank):
        n_p = p * (rank + 1 - p)
        k_p = math.prod(j - i for i in range(1, p + 1) for j in range(p + 1, rank + 2))
        total += Fraction(k_p ** m, (n_p * m - 1) * side ** (n_p * m - 1))
    return zeta_m ** (rank - 1) * float(total)


def _outer_side(rank: int, m: int, zeta_m: float, target: float) -> int:
    """The smallest side L with tail(L) <= target."""
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
    import numpy as np

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


def _flat_depth(r: int, m: int) -> int:
    """Roundings on the longest path to F(a), but for the t_j additions of
    pole j's running sum H_{t_j}: q^m, R_jk (its factors' powers, binomial
    and product, then one convolution per factor), zeta - H (the powers
    n^-k and the subtraction), the product R (zeta - H), the sums over k
    and j, and the product with q^m."""
    return ((m * (1 + r * (r - 1)) + m - 1) + (2 * m + 1 + (r - 1) * (m + 1))
            + (m + 1) + 1 + (m + r) + 1)


def _flat_block(t: np.ndarray, m: int, zeta: list, table: np.ndarray,
                offset: int) -> tuple[list, float]:
    """The terms F(a) of the outer points with rows t = (t_1 .. t_r) of an (n, r)
    int64 array, and the bound on their summed rounding errors. zeta[k] is
    zeta(k) as a float; table[k - 1, t - offset] is H^(k)_t for the t > 0
    of these rows."""
    import numpy as np

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
    depth = _flat_depth(r, m)
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
    import numpy as np

    powers = np.empty((m, high - last + 1))
    powers[:, 0] = carry
    powers[0, 1:] = 1.0 / np.arange(last + 1, high + 1)
    for k in range(1, m):
        powers[k, 1:] = powers[k - 1, 1:] * powers[0, 1:]
    return np.cumsum(powers, axis=1)  # add.accumulate: sequential, as the bound counts


def _flat_blocks(rank: int, m: int, zeta: list, side: int):
    """Yield the terms F(a) of the outer points a in [1, side]^(r-1), r >= 2,
    _BLOCK at a time in itertools.product order, each list with the bound
    on its rounding."""
    import numpy as np

    total = side ** (rank - 1)
    strides = np.array([side ** k for k in range(rank - 2, -1, -1)], dtype=np.int64)
    last, carry = 0, np.zeros(m)  # H^(k)_last, where the previous table ended
    for start in range(0, total, _BLOCK):
        flat = np.arange(start, min(start + _BLOCK, total))
        t = _epsilon_norms(flat[:, None] // strides % side + 1)[0]
        low, high = int(t[:, rank - 2].min()), int(t[:, 0].max())
        if low <= last:
            last, carry = 0, np.zeros(m)
        table, offset = _harmonic_table(m, last, carry, high), last
        last, carry = high, table[:, -1]
        yield _flat_block(t, m, zeta, table, offset)


def _flat_sum(rank: int, m: int, tol: float):
    """(Z, bound, points) at eps = 0: in closed form at rank <= 2, whatever
    its bound, and from rank 3 by the outer sum, or None when its
    truncation plus rounding cannot meet tol."""
    if rank >= 3:
        return _outer_sum(rank, m, tol)
    e = m * rank * (rank + 1) // 2  # |Delta+| m
    q = _flat_rational(rank, m)
    value = q.numerator * _PI.numerator ** e / (q.denominator * _PI.denominator ** e)
    return value, (_gamma(1) + 2e-60 * e) * value, 1


def _outer_sum(rank: int, m: int, tol: float):
    """(Z, bound, outer points) of the flat outer sum, rank >= 2, or None when
    truncation plus rounding cannot meet tol or its terms leave binary64."""
    import numpy as np

    zeta = [0.0, 0.0] + [float(_zeta(k)[0]) for k in range(2, m + 1)]
    try:
        side = _outer_side(rank, m, zeta[m], tol / 2)
        float(math.comb(2 * m - 2, m - 1))  # the largest binomial of _pole_series
    except OverflowError:
        # a tail term or a binomial leaves binary64; the partial fractions
        # would cancel far past any tol long before
        return None
    total = side ** (rank - 1)
    if total > MAX_TERMS:
        raise BudgetExceededError(
            "certifying tol %g at eps = 0 needs %d^%d outer points, budget %d; "
            "relax target_tol" % (tol, side, rank - 1, MAX_TERMS))
    spent = _outer_tail(rank, m, zeta[m], side)
    sums = []
    # terms past binary64 come out inf or nan, and so does their bound
    with np.errstate(over="ignore", invalid="ignore"):
        for terms, rounding in _flat_blocks(rank, m, zeta, side):
            if not spent + rounding <= tol:  # also catches nan and inf
                return None
            sums.append(math.fsum(terms))
            spent += rounding + _gamma(1) * abs(sums[-1])
            if not spent <= tol:
                return None
    value = math.fsum(sums)
    return value, spent + _gamma(1) * abs(value), total


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
    flat = _flat_sum(rs.rank, m, target_tol) if epsilon == 0 else None
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
