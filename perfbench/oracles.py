"""Independent formulas the output checks compare `seifertsum` against.

Nothing here imports `seifertsum`. For A_r the Weyl group is the
symmetric group S_{r+1}, so every Weyl alternating sum is a determinant
in epsilon coordinates: a weight with shifted fundamental-weight
coordinates a_1..a_r has l_j = a_j + ... + a_r (l_{r+1} = 0), the form
is <l, m> = sum l_j m_j - (sum l)(sum m)/(r+1), and a Cartan point with
simple-coroot coordinates x_1..x_r has y_j = x_j - x_{j-1}.
"""

from __future__ import annotations

import itertools
import math

import mpmath as mp
import numpy as np


def integrable(rank: int, level: int) -> list[tuple[int, ...]]:
    """Dominant weights with coordinate sum <= level, lexicographic."""
    return [c for c in itertools.product(range(level + 1), repeat=rank)
            if sum(c) <= level]


def rho_shift(weight) -> list[int]:
    """Epsilon coordinates l_1..l_{r+1} of weight + rho."""
    out = [0] * (len(weight) + 1)
    for j in range(len(weight) - 1, -1, -1):
        out[j] = out[j + 1] + weight[j] + 1
    return out


def norm2_times_n(l) -> int:
    """(r+1) <l, l> as an exact integer."""
    n = len(l)
    return n * sum(v * v for v in l) - sum(l) ** 2


def weyl_order(rank: int) -> int:
    return math.factorial(rank + 1)


def central_charge(rank: int, level: int) -> float:
    return level * rank * (rank + 2) / (level + rank + 1)


def s_matrix(rank: int, level: int, chunk: int = 32) -> np.ndarray:
    """Kac-Peterson S in binary64, one (r+1)x(r+1) determinant per entry."""
    kappa = level + rank + 1
    n_pos = rank * (rank + 1) // 2
    ls = np.array([rho_shift(w) for w in integrable(rank, level)], dtype=np.int64)
    n = len(ls)
    sums = ls.sum(axis=1)
    norm = (1j ** n_pos) / math.sqrt(kappa ** rank * (rank + 1))
    out = np.empty((n, n), dtype=complex)
    for i0 in range(0, n, chunk):
        li = ls[i0:i0 + chunk]
        # products l_a m_b reduced mod kappa before the exponential
        prod = (li[:, None, :, None] * ls[None, :, None, :]) % kappa
        det = np.linalg.det(np.exp(-2j * np.pi * prod / kappa))
        shift = (sums[i0:i0 + chunk, None] * sums[None, :]) % ((rank + 1) * kappa)
        out[i0:i0 + chunk] = norm * det * np.exp(2j * np.pi * shift / ((rank + 1) * kappa))
    return out


def t_bare(rank: int, level: int) -> np.ndarray:
    """exp(i pi C(L)/kappa), C(L) = |L+rho|^2 - |rho|^2."""
    kappa = level + rank + 1
    rho2 = norm2_times_n(rho_shift((0,) * rank))
    n = rank + 1
    return np.array([np.exp(1j * np.pi * ((norm2_times_n(rho_shift(w)) - rho2)
                                         % (2 * n * kappa)) / (n * kappa))
                     for w in integrable(rank, level)])


def s0_row(rank: int, level: int) -> np.ndarray:
    """S[0, L] from the product form (N kappa^r)^-1/2 prod 2 sin(pi <L+rho, a>/kappa)."""
    kappa = level + rank + 1
    ls = np.array([rho_shift(w) for w in integrable(rank, level)], dtype=float)
    i, j = np.triu_indices(rank + 1, k=1)
    sines = 2 * np.sin(np.pi * (ls[:, i] - ls[:, j]) / kappa)
    return sines.prod(axis=1) / math.sqrt((rank + 1) * kappa ** rank)


def seifert_cells(rank: int, level: int, genera, degrees, framing: str) -> dict:
    """{(genus, degree): (Z, sum of |terms|)} of the fibred partition sum.

    Z = sum_L S[0,L]^(2-2g) exp(-i pi p |L+rho|^2/kappa) over the weights
    at one level, times exp(-2 pi i c sign(p)/8) in the canonical framing.
    """
    kappa = level + rank + 1
    n = rank + 1
    s0 = s0_row(rank, level)
    norms = np.array([norm2_times_n(rho_shift(w)) for w in integrable(rank, level)],
                     dtype=np.int64)
    out = {}
    c = central_charge(rank, level)
    for g in genera:
        mags = s0 ** (2 - 2 * g)
        for p in degrees:
            # phase p |L+rho|^2 / kappa reduced mod 2 exactly
            frac = (p * norms) % (2 * n * kappa)
            value = complex(np.sum(mags * np.exp(-1j * np.pi * frac / (n * kappa))))
            if framing == "canonical" and p != 0:
                value *= np.exp(-2j * np.pi * c * (1 if p > 0 else -1) / 8)
            out[(g, p)] = (value, float(np.sum(np.abs(mags))))
    return out


def _s_entry_mp(rank: int, kappa: int, l, m):
    n_pos = rank * (rank + 1) // 2
    norm = mp.mpc(0, 1) ** n_pos / mp.sqrt(mp.mpf(kappa) ** rank * (rank + 1))
    mat = mp.matrix(rank + 1, rank + 1)
    for a in range(rank + 1):
        for b in range(rank + 1):
            mat[a, b] = mp.expjpi(mp.mpf(-2 * ((l[a] * m[b]) % kappa)) / kappa)
    shift = (sum(l) * sum(m)) % ((rank + 1) * kappa)
    return norm * mp.det(mat) * mp.expjpi(mp.mpf(2 * shift) / ((rank + 1) * kappa))


def verlinde(rank: int, level: int, genus: int, labels=(), dps: int = 60) -> int:
    """Exact Verlinde dimension, summed in mpmath at `dps` digits."""
    kappa = level + rank + 1
    label_ls = [rho_shift(lab) for lab in labels]
    with mp.workdps(dps):
        total = mp.mpc(0)
        pairs = [(i, j) for i in range(rank + 1) for j in range(i + 1, rank + 1)]
        for w in integrable(rank, level):
            m = rho_shift(w)
            s0 = mp.mpf(1) / mp.sqrt(mp.mpf(rank + 1) * mp.mpf(kappa) ** rank)
            for i, j in pairs:
                s0 *= 2 * mp.sinpi(mp.mpf(m[i] - m[j]) / kappa)
            term = s0 ** (2 - 2 * genus - len(labels))
            for la in label_ls:
                term *= _s_entry_mp(rank, kappa, la, m)
            total += term
        nearest = int(mp.nint(total.real))
        if abs(total - nearest) > mp.mpf(10) ** (-dps // 3):
            raise ArithmeticError("Verlinde sum %s is not an integer" % total)
    return nearest


def kirillov(weight, point, dps: int = 60):
    """Orbit transform and stationary-phase sum at a Cartan point, each as
    (value, scale). The scale is the sum of the absolute values of the
    Weyl-sum terms times the absolute product factor: a binary64 evaluation
    of the alternating sum is accurate to a few units of 2^-53 of it.

    Both values are entire in x, so the point is moved by 1e-30 along a
    regular direction: a wall point then needs no separate limit.
    """
    rank = len(weight)
    n = rank + 1
    lam = rho_shift(weight)
    with mp.workdps(dps):
        xs = [mp.mpf(repr(c)) for c in point] + [mp.mpf(0)]
        y = [xs[0]] + [xs[j] - xs[j - 1] for j in range(1, n)]
        y = [yj + mp.mpf(10) ** -30 * (rank - j) for j, yj in enumerate(y)]
        alphas = [y[i] - y[j] for i in range(n) for j in range(i + 1, n)]
        orbit = mp.det(mp.matrix([[mp.exp(lam[a] * y[b]) for b in range(n)]
                                  for a in range(n)]))
        stationary = mp.det(mp.matrix([[mp.exp(1j * lam[a] * y[b]) for b in range(n)]
                                       for a in range(n)]))
        factor = mp.mpf(1)
        for a in alphas:
            factor *= mp.sin(a / 2) / (a * mp.sinh(a / 2))
            stationary /= 1j * a
        orbit *= factor
        yf = [float(v) for v in y]
        terms = sum(math.exp(sum(lam[p[b]] * yf[b] for b in range(n)))
                    for p in itertools.permutations(range(n)))
        alpha_prod = math.prod(abs(float(a)) for a in alphas)
        return ((complex(orbit), terms * abs(float(factor))),
                (complex(stationary), math.factorial(n) / alpha_prod))


def ym2_sum(rank: int, genus: int, epsilon: float, box: int) -> float:
    """Sum over dominant L with max coordinate <= box of
    dim(L)^(2-2g) exp(-epsilon C(L)/2)."""
    grids = np.meshgrid(*[np.arange(box + 1)] * rank, indexing="ij")
    a = np.stack([g.ravel() for g in grids], axis=1) + 1  # shifted coordinates
    ls = np.cumsum(a[:, ::-1], axis=1)[:, ::-1]
    ls = np.concatenate([ls, np.zeros((len(ls), 1), dtype=ls.dtype)], axis=1)
    n = rank + 1
    i, j = np.triu_indices(n, k=1)
    dim = np.prod((ls[:, i] - ls[:, j]) / (j - i).astype(float), axis=1)
    norm2 = (n * (ls.astype(float) ** 2).sum(axis=1) - ls.sum(axis=1).astype(float) ** 2) / n
    rho2 = norm2_times_n(rho_shift((0,) * rank)) / n
    terms = dim ** (2 - 2 * genus) * np.exp(-epsilon * (norm2 - rho2) / 2)
    return math.fsum(terms)
