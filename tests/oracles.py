"""Independent reference implementations used to pin expected values.

Nothing here shares code paths with the package internals beyond the
root system tables themselves: characters come from Freudenthal weight
multiplicities, tensor products from the Klimyk shift rule, fusion
coefficients from an affine alcove fold of classical tensor products,
and small-surface block counts from explicit trivalent graphs. All
arithmetic is exact, except that character_reference and
sinc_product_reference take characters and sinc products at 40 digits,
verlinde_exact sums explicit Weyl-group S entries at 60 digits and
checks the result is an integer, kac_peterson_s is the whole S from the
same entries at 30 digits, and
certify_expressions is the S certificate written as four whole-matrix
products, against which the row-blocked modular._certify's measured
residuals are pinned bit for bit and its two bounds are checked, and
ym2_box_terms is the per-weight ym2 box loop on lie's
integer _form and _vandermonde, filtered by dim and Casimir caps, against
which the shell enumerator ym2._cone_terms is pinned bit for bit, with
ym2_box_tail_bound the bound on what a box leaves out, ym2_reference is the heat-kernel
sum at 40 digits, one weight at a time, and t_diagonals is T taken one
weight at a time from _form, against which the level's integer norms
(modular._Level.t_diagonals) are pinned bit for bit.
"""

from __future__ import annotations

import cmath
import itertools
import math
from fractions import Fraction
from functools import lru_cache

import mpmath as mp
import numpy as np

from seifertsum.lie import RootSystem, Weight, _form, _vandermonde, build_root_system
from seifertsum.modular import central_charge


def _form_eps(u, v) -> int:
    """(r+1) <u, v> for weights u, v of A_r in fundamental-weight
    coordinates, an integer: with epsilon coordinates e_i = u_i + ... + u_r
    and e_(r+1) = 0, <u, v> = sum e_i f_i - (sum e)(sum f)/(r+1)."""
    e = list(itertools.accumulate(reversed(u)))[::-1] + [0]
    f = list(itertools.accumulate(reversed(v)))[::-1] + [0]
    return len(e) * sum(x * y for x, y in zip(e, f)) - sum(e) * sum(f)


def _ip(rs: RootSystem, u, v) -> Fraction:
    return Fraction(_form_eps(u, v), rs.rank + 1)


@lru_cache(maxsize=None)
def weight_multiplicities(rs: RootSystem, lam: Weight) -> dict:
    """Full weight diagram with multiplicities, by Freudenthal recursion.

    Every inner product is taken as (r+1) <u, v>, an integer; the factor
    r+1 cancels in 2 acc / denom, and each quotient is checked exact."""
    start = tuple(lam.coords)
    simple = [tuple(row) for row in rs.cartan]
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for mu in frontier:
            for i in range(rs.rank):
                m = mu[i]
                cur = mu
                for _ in range(max(0, m)):
                    cur = tuple(c - a for c, a in zip(cur, simple[i]))
                    if cur not in seen:
                        seen.add(cur)
                        nxt.append(cur)
        frontier = nxt
    rho = tuple(rs.rho.coords)
    lam_rho = tuple(a + b for a, b in zip(start, rho))
    norm_top = _form_eps(lam_rho, lam_rho)
    # the height of lam - mu, its simple-root coordinates summed, is <lam - mu, rho>
    by_height = sorted(
        seen, key=lambda mu: _form_eps(tuple(a - b for a, b in zip(start, mu)), rho))
    mults = {start: 1}
    for mu in by_height:
        if mu == start:
            continue
        acc = 0
        for alpha in rs.positive_roots_fw:
            t = 1
            while True:
                shifted = tuple(c + t * a for c, a in zip(mu, alpha))
                if shifted not in seen:
                    break
                acc += mults[shifted] * _form_eps(shifted, alpha)
                t += 1
        mu_rho = tuple(a + b for a, b in zip(mu, rho))
        value, rem = divmod(2 * acc, norm_top - _form_eps(mu_rho, mu_rho))
        assert rem == 0 and value >= 1
        mults[mu] = value
    return mults


def character_value(rs: RootSystem, lam: Weight, x_coords) -> complex:
    """Character as the plain multiplicity-weighted exponential sum."""
    total = 0j
    for mu, m in weight_multiplicities(rs, lam).items():
        phase = sum(c * xc for c, xc in zip(mu, x_coords))
        total += m * cmath.exp(phase)
    return total


def character_reference(rs: RootSystem, lam: Weight, x_coords, dps: int = 40):
    """character_value at dps digits: the exact multiplicities with mp.exp."""
    with mp.workdps(dps):
        xs = [mp.mpc(c) for c in x_coords]
        return mp.fsum(m * mp.exp(mp.fsum(c * xc for c, xc in zip(mu, xs)))
                       for mu, m in weight_multiplicities(rs, lam).items())


def sinc_product_reference(rs: RootSystem, x_coords, dps: int = 40):
    """prod_{alpha>0} sin(alpha(x)/2) / (alpha(x)/2) at dps digits."""
    with mp.workdps(dps):
        xs = [mp.mpc(c) for c in x_coords]
        prod = mp.mpc(1)
        for root in rs.positive_roots_fw:
            prod *= mp.sinc(mp.fsum(m * c for m, c in zip(root, xs)) / 2)
        return prod


def dimension_value(rs: RootSystem, lam: Weight) -> int:
    return sum(weight_multiplicities(rs, lam).values())


def _finite_fold(rs: RootSystem, phi):
    """Fold a shifted weight into the dominant chamber; None on a wall."""
    phi = list(phi)
    sign = 1
    while True:
        for i in range(rs.rank):
            if phi[i] == 0:
                return None, 0
            if phi[i] < 0:
                coeff = phi[i]
                row = rs.cartan[i]
                for j in range(rs.rank):
                    phi[j] -= coeff * row[j]
                sign = -sign
                break
        else:
            return tuple(phi), sign


def tensor_decomposition(rs: RootSystem, lam: Weight, mu: Weight) -> dict:
    """Classical tensor product multiplicities by the shift rule."""
    rho = tuple(rs.rho.coords)
    out = {}
    for nu, m in weight_multiplicities(rs, mu).items():
        shifted = tuple(a + b + c for a, b, c in zip(lam.coords, nu, rho))
        folded, sign = _finite_fold(rs, shifted)
        if folded is None:
            continue
        comp = tuple(a - b for a, b in zip(folded, rho))
        out[comp] = out.get(comp, 0) + sign * m
    return {k: v for k, v in out.items() if v != 0}


def _affine_fold(rs: RootSystem, phi, kappa: int):
    """Fold with the level-kappa wall included; None when on any wall."""
    theta = tuple(rs.highest_root_fw)
    phi = tuple(phi)
    sign = 1
    for _ in range(10000):
        folded, s = _finite_fold(rs, phi)
        if folded is None:
            return None, 0
        sign *= s
        level = sum(folded)
        if level == kappa:
            return None, 0
        if level < kappa:
            return folded, sign
        phi = tuple(c - (level - kappa) * t for c, t in zip(folded, theta))
        sign = -sign
    raise RuntimeError("affine fold did not terminate")


def fusion_coefficients(rs: RootSystem, level: int, lam: Weight, mu: Weight) -> dict:
    """Level-truncated tensor product via the affine alcove fold."""
    kappa = level + rs.dual_coxeter
    rho = tuple(rs.rho.coords)
    out = {}
    for comp, c in tensor_decomposition(rs, lam, mu).items():
        shifted = tuple(a + b for a, b in zip(comp, rho))
        folded, sign = _affine_fold(rs, shifted, kappa)
        if folded is None:
            continue
        target = tuple(a - b for a, b in zip(folded, rho))
        out[target] = out.get(target, 0) + sign * c
    return {k: v for k, v in out.items() if v != 0}


def su2_fusion(level: int, a: int, b: int) -> dict:
    """Closed truncated Clebsch-Gordan rule, doubled-spin labels."""
    out = {}
    for c in range(abs(a - b), min(a + b, 2 * level - a - b) + 1, 2):
        out[(c,)] = 1
    return out


@lru_cache(maxsize=None)
def _fusion_table(series: str, rank: int, level: int):
    rs = build_root_system(series, rank)
    labels = _integrable(rs, level)
    table = {}
    for la in labels:
        for lb in labels:
            table[(la, lb)] = fusion_coefficients(rs, level, Weight(la), Weight(lb))
    return labels, table


def _integrable(rs: RootSystem, level: int):
    coords = [()]
    for _ in range(rs.rank):
        coords = [c + (v,) for c in coords for v in range(level + 1)]
    return tuple(sorted(c for c in coords if sum(c) <= level))


def _conjugate(label):
    return tuple(reversed(label))


def blocks_genus1(series: str, rank: int, level: int, label=None) -> int:
    """Torus block count, optionally with one puncture."""
    labels, table = _fusion_table(series, rank, level)
    if label is None:
        return len(labels)
    total = 0
    for a in labels:
        total += table[(label, a)].get(a, 0)
    return total


def blocks_genus2(series: str, rank: int, level: int) -> int:
    """Genus-2 block count from the theta graph, two trivalent vertices."""
    labels, table = _fusion_table(series, rank, level)
    total = 0
    for a in labels:
        for b in labels:
            fused = table[(a, b)]
            for c in labels:
                n_abc = fused.get(_conjugate(c), 0)
                total += n_abc * n_abc
    return total


def blocks_sphere3(series: str, rank: int, level: int, a, b, c) -> int:
    labels, table = _fusion_table(series, rank, level)
    return table[(tuple(a), tuple(b))].get(_conjugate(tuple(c)), 0)


def integer_determinant(rows) -> int:
    """Exact determinant of an integer matrix by the Leibniz expansion."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        total += (-1) ** inversions * math.prod(rows[i][p] for i, p in enumerate(perm))
    return total


def su2_s_closed(level: int):
    """Sine-kernel closed form of the rank-1 modular S matrix."""
    kappa = level + 2
    rows = []
    for a in range(1, level + 2):
        rows.append([math.sqrt(2.0 / kappa) * math.sin(math.pi * a * b / kappa)
                     for b in range(1, level + 2)])
    return rows


def _shifted_epsilon(weight):
    """Epsilon coordinates of weight + rho: e_j = sum_{i >= j} (w_i + 1), e_{r+1} = 0."""
    out = [0]
    for c in reversed(weight):
        out.append(out[-1] + c + 1)
    return tuple(reversed(out))


def t_diagonals(rs, level, weights):
    """Diagonals of T over the given weights, bare and canonical framing.
    The Casimir is (M - M_rho)/(r+1) from the integer M = (r+1)|L+rho|^2;
    int/int division rounds it exactly as float(casimir(...)) does."""
    kappa = level + rs.dual_coxeter
    r1 = rs.rank + 1
    e_rho = _shifted_epsilon((0,) * rs.rank)
    m_rho = _form(e_rho, e_rho)
    t_bare = []
    for w in weights:
        e = _shifted_epsilon(w.coords)
        t_bare.append(cmath.exp(1j * math.pi * ((_form(e, e) - m_rho) / r1) / kappa))
    t_bare = np.array(t_bare)
    return t_bare, t_bare * cmath.exp(-2j * math.pi * central_charge(rs, level) / 24)


def _s_entry(rank: int, level: int):
    """S[L, M] = norm sum_w eps(w) exp(-2 pi i <w(L+rho), M+rho>/kappa) as a
    function of the epsilon coordinates of L+rho and M+rho, the Weyl group
    S_{r+1} permuting them with the permutation's sign, at the current
    mpmath precision; n <w l, m> = n sum_i l_w(i) m_i - (sum l)(sum m) for
    n = r+1."""
    n = rank + 1
    kappa = level + n
    order = n * kappa
    perms = []
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        perms.append((perm, (-1) ** inversions))
    zeta = [mp.expjpi(mp.mpf(-2 * x) / order) for x in range(order)]
    norm = mp.mpc(0, 1) ** (rank * n // 2) / mp.sqrt(mp.mpf(n) * mp.mpf(kappa) ** rank)

    def entry(l, m):
        counts = {}
        for perm, sign in perms:
            x = (n * sum(l[perm[i]] * m[i] for i in range(n)) - sum(l) * sum(m)) % order
            counts[x] = counts.get(x, 0) + sign
        return norm * mp.fsum(c * zeta[x] for x, c in counts.items() if c)

    return entry


def kac_peterson_s(rank: int, level: int, dps: int = 30) -> np.ndarray:
    """The A_rank S matrix over the integrable weights in lexicographic
    order, every entry an explicit Weyl-group sum at `dps` digits, rounded
    once to complex."""
    eps = [_shifted_epsilon(w) for w in _integrable(build_root_system("A", rank), level)]
    with mp.workdps(dps):
        entry = _s_entry(rank, level)
        return np.array([[complex(entry(l, m)) for m in eps] for l in eps])


def verlinde_exact(rank: int, level: int, genus: int, labels=(), dps: int = 60) -> int:
    """Verlinde dimension sum_L S[0,L]^(2-2g-n) prod_i S[label_i, L], with
    every S entry an explicit sum over the Weyl group S_{r+1} (signed
    permutations of epsilon coordinates), summed at `dps` digits.

    Raises ArithmeticError unless the sum lies within 10^(-dps/3) of a
    nonnegative integer.
    """
    label_eps = [_shifted_epsilon(lab) for lab in labels]
    with mp.workdps(dps):
        entry = _s_entry(rank, level)
        rho = _shifted_epsilon((0,) * rank)
        total = 0
        for weight in _integrable(build_root_system("A", rank), level):
            m = _shifted_epsilon(weight)
            term = entry(rho, m) ** (2 - 2 * genus - len(labels))
            for lab in label_eps:
                term *= entry(lab, m)
            total += term
        nearest = int(mp.nint(total.real))
        if nearest < 0 or abs(total - nearest) > mp.mpf(10) ** (-dps // 3):
            raise ArithmeticError("Verlinde sum %s is not a nonnegative integer" % total)
    return nearest


def certify_expressions(s, t_canon, tol):
    """The S certificate as whole-matrix expressions: (ok, residuals, perm)."""
    n = s.shape[0]
    eye = np.eye(n)
    residuals = {}
    residuals["unitarity"] = float(np.abs(s @ s.conj().T - eye).max())
    residuals["symmetry"] = float(np.abs(s - s.T).max())
    residuals["row0_imag"] = float(np.abs(s[0].imag).max())
    residuals["row0_min"] = float(s[0].real.min())
    c = s @ s
    perm = [int(np.argmax(np.abs(c[i]))) for i in range(n)]
    pmat = np.zeros((n, n))
    for i, p in enumerate(perm):
        pmat[i, p] = 1.0
    residuals["conjugation_permutation"] = float(np.abs(c - pmat).max())
    involution = all(perm[perm[i]] == i for i in range(n))
    st = s * t_canon[None, :]
    residuals["st_cubed"] = float(np.abs(st @ st @ st - c).max())
    ok = (residuals["unitarity"] < tol and residuals["symmetry"] < tol
          and residuals["row0_imag"] < tol and residuals["row0_min"] > 0
          and residuals["conjugation_permutation"] < tol and involution
          and residuals["st_cubed"] < tol)
    residuals["involution"] = involution
    return ok, residuals, tuple(perm)


def ym2_box_terms(rank: int, box: int, m: int, eps: float,
                  dim_cap: int | None = None, cap: int | None = None) -> list:
    """The terms dim^-m exp(-eps casimir/2) of the A_rank dominant weights
    with coordinates in 0..box, dim <= dim_cap and (r+1) casimir <= cap (a
    cap that is None is absent), one weight at a time in product order."""
    r1 = rank + 1
    e_rho = _shifted_epsilon((0,) * rank)
    m_rho = _form(e_rho, e_rho)
    v_rho = _vandermonde(e_rho)
    parts = []
    for coords in itertools.product(range(box + 1), repeat=rank):
        e = _shifted_epsilon(coords)
        dim = _vandermonde(e) // v_rho
        norm = _form(e, e) - m_rho
        if (dim_cap is None or dim <= dim_cap) and (cap is None or norm <= cap):
            parts.append(dim ** (-m) * math.exp(-eps * (norm / r1) / 2))
    return parts


def ym2_box_tail_bound(rank: int, m: int, eps: float, box: int) -> float:
    """A bound on the terms of ym2_box_terms(rank, box, m, eps) left out of
    the cone: dim >= prod (lambda_i + 1), the full-chain factor dim >= prod
    (|Lambda| + r)/r from rank 2, and <Lambda, Lambda> >= box^2/4 outside
    the box (the smallest eigenvalue of the inverse Cartan matrix exceeds
    1/4 in the A series) give r 2^(r-1) (box+1)^(1-m)/(m-1)
    (r/(box+1+r))^(m [r>=2]) exp(-eps box^2/8)."""
    geom = rank * 2.0 ** (rank - 1) * (box + 1.0) ** (1 - m) / (m - 1)
    if rank >= 2:
        geom *= (rank / (box + 1.0 + rank)) ** m
    return geom * math.exp(-eps * box * box / 8)


def ym2_reference(rank: int, m: int, eps: float, cut: float):
    """(P, T) at 40 digits: P the sum of dim^-m exp(-eps casimir/2) over the
    A_rank dominant weights with casimir <= cut, one weight at a time, and
    T = zeta(m)^rank exp(-eps cut/2) >= the rest, as dim >= prod (lambda_i + 1).
    A label stops once the weight with the later labels at 0 passes cut:
    the casimir grows in every label."""
    r1 = rank + 1
    e_rho = _shifted_epsilon((0,) * rank)
    m_rho = _form(e_rho, e_rho)
    v_rho = _vandermonde(e_rho)
    terms = []

    def walk(prefix):
        if len(prefix) == rank:
            e = _shifted_epsilon(prefix)
            terms.append((_vandermonde(e) // v_rho, _form(e, e) - m_rho))
            return
        for v in itertools.count():
            e = _shifted_epsilon(prefix + (v,) + (0,) * (rank - len(prefix) - 1))
            if Fraction(_form(e, e) - m_rho, r1) > cut:
                return
            walk(prefix + (v,))

    walk(())
    with mp.workdps(40):
        x = mp.mpf(eps)
        total = mp.fsum(mp.mpf(d) ** -m * mp.exp(-x * c / (2 * r1)) for d, c in terms)
        return total, mp.zeta(m) ** rank * mp.exp(-x * mp.mpf(cut) / 2)
