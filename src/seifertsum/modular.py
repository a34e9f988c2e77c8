"""Kac-Peterson modular data for affine A series at integer level.

The S matrix is the Weyl alternating sum

    S[L, M] = i^{|Delta_+|} (kappa^r det(Cartan))^(-1/2)
              sum_w eps(w) exp(-2 pi i <w(L+rho), M+rho> / kappa),

with kappa = k + dual Coxeter number and det(Cartan) = r+1 for A_r.
The Weyl group of A_r permutes the epsilon coordinates e of L+rho
(e_i = sum_{j>=i} (L+rho)_j, e_{r+1} = 0), and
<l, m> = sum e_i f_i - (sum e)(sum f)/(r+1), so each entry is one
(r+1)x(r+1) determinant,

    S[L, M] = norm * det[zeta^{(r+1) e_i f_j}] * zeta^{-(sum e)(sum f)},
    zeta = exp(-2 pi i / ((r+1) kappa)).

Its last row and column are ones (e_{r+1} = f_{r+1} = 0); subtracting the
last column from the others leaves the r x r determinant
det[zeta^{(r+1) e_i f_j} - 1], i, j <= r, which is the one computed.
Every exponent is an integer, reduced exactly mod (r+1) kappa and looked
up in a table of roots of unity or in one of those roots minus 1. T is
diagonal with entries exp(2 pi i (<L, L+2 rho>/(2 kappa) - c/24)) in the
canonical framing, c = k dim(g)/kappa, and without the -c/24 shift in
the bare framing.

One level's data lives in one place (_Level): the integrable weights,
their index, the epsilon coordinates e of L+rho, the integer norms
M = (r+1)|L+rho|^2 = (r+1) sum e_i^2 - (sum e_i)^2, S row 0, any S
rows, and the T diagonals. S, T, the Verlinde sums and the Seifert sums
all read the same instance. S row 0 is the product form

    S[0, L] = ((r+1) kappa^r)^(-1/2) prod_{i<j} 2 sin(pi (e_i - e_j)/kappa);

every e_i - e_j lies in 1..kappa-1, so one table of kappa-1 sines serves
every weight. Rows and row 0 come in binary64 or, at a given number of
digits, in mpmath.

Every constructed matrix is certified: S symmetric and unitary, S^2 a
permutation (charge conjugation) squaring to the identity, row zero real
positive, and (S T)^3 = S^2 for the canonical T. S is assembled in
binary64 first; a certification failure triggers one retry at RETRY_DPS
digits (113 bits) before raising a CertificationError that carries the
residuals, the tolerance and the precision of that retry.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import mpmath as mp
import numpy as np

from .errors import BudgetExceededError, CertificationError, PreconditionError
from .lie import RootSystem, Weight, _det, _shifted_epsilon

DEFAULT_TOL = 1e-9
DEFAULT_BUDGET = 50_000_000
RETRY_DPS = 34  # about 113-bit software floats


def integrable_weights(rs: RootSystem, level: int) -> tuple[Weight, ...]:
    """Dominant weights with <Lambda, theta> <= k, lexicographic order.

    For A_r the level <Lambda, theta> is the sum of the coordinates, so
    these are the coordinate tuples with sum at most k.
    """
    if level < 0:
        raise PreconditionError("level must be >= 0")
    return tuple(Weight(c) for c in _bounded_tuples(rs.rank, level))


def _bounded_tuples(length: int, total: int):
    """Nonnegative integer tuples with sum <= total, lexicographic."""
    if length == 0:
        yield ()
        return
    for head in range(total + 1):
        for tail in _bounded_tuples(length - 1, total - head):
            yield (head,) + tail


def central_charge(rs: RootSystem, level: int) -> float:
    return level * rs.dimension / (level + rs.dual_coxeter)


# complex entries of the r x r matrices per block of the batched binary64
# determinant
_BLOCK_ENTRIES = 1 << 16


class _Level:
    """The integrable weights of one level and everything read over them."""

    def __init__(self, rs: RootSystem, level: int):
        self.rs = rs
        self.level = level
        self.kappa = level + rs.dual_coxeter
        self.weights = integrable_weights(rs, level)
        self._index = {w.coords: i for i, w in enumerate(self.weights)}
        self.es = np.array([_shifted_epsilon(w.coords) for w in self.weights],
                           dtype=np.int64)
        # M = (r+1)|L+rho|^2, exact; the vacuum's comes first
        self.m = (rs.rank + 1) * (self.es ** 2).sum(axis=1) - self.es.sum(axis=1) ** 2
        i, j = np.triu_indices(rs.rank + 1, k=1)
        self._gaps = self.es[:, i] - self.es[:, j]  # each in 1..kappa-1
        self.s0 = self.s0_row()

    def index_of(self, weight: Weight) -> int:
        try:
            return self._index[weight.coords]
        except KeyError:
            raise PreconditionError(
                "weight %r is not integrable at level %d"
                % (weight.coords, self.level)) from None

    def s0_row(self, dps: int | None = None):
        """S[0, L] for every weight from the sine product: a float array,
        or with a dps a list of mpf at that many digits."""
        r, kappa = self.rs.rank, self.kappa
        # sin(pi d/kappa) = sin(pi min(d, kappa-d)/kappa) keeps the argument
        # at most pi/2, where its rounding does not grow in the sine
        folded = np.minimum(np.arange(kappa), kappa - np.arange(kappa))
        if dps is None:
            sines = 2 * np.sin(np.pi * folded / kappa)
            return sines[self._gaps].prod(axis=1) / math.sqrt((r + 1) * kappa ** r)
        with mp.workdps(dps):
            sines = [2 * mp.sinpi(mp.mpf(d) / kappa) for d in folded.tolist()]
            norm = 1 / mp.sqrt(mp.mpf(r + 1) * mp.mpf(kappa) ** r)
            return [norm * mp.fprod(sines[d] for d in gaps)
                    for gaps in self._gaps.tolist()]

    def label_rows(self, label_idx, dps: int | None = None):
        """S[L, M] for L over the given weight indices and M over every
        weight, one r x r determinant det[zeta^{(r+1) e_i f_j} - 1] per
        entry (see module docstring).

        With dps None the determinants are taken by numpy in binary64, over
        row blocks of at most _BLOCK_ENTRIES matrix entries, and a complex
        array is returned; with a dps each one is taken by lie._det at that
        many digits and nested lists of mpc are returned.
        """
        rs, kappa, r = self.rs, self.kappa, self.rs.rank
        rows = self.es[list(label_idx)]
        r1 = r + 1
        order = r1 * kappa
        row_sums = rows.sum(axis=1)
        col_sums = self.es.sum(axis=1)
        rows, cols = rows[:, :r], self.es[:, :r]  # e_{r+1} = f_{r+1} = 0
        n = len(cols)
        if dps is None:
            norm = (1j ** rs.num_positive_roots) / math.sqrt(float(kappa ** r * r1))
            table = np.exp(-2j * math.pi * np.arange(order) / order)
            minus_one = table - 1
            out = np.empty((len(rows), n), dtype=complex)
            block = max(1, _BLOCK_ENTRIES // (n * r * r))
            for i0 in range(0, len(rows), block):
                part = rows[i0:i0 + block]
                phases = (r1 * part[:, None, :, None] * cols[None, :, None, :]) % order
                shift = (-row_sums[i0:i0 + block, None] * col_sums[None, :]) % order
                out[i0:i0 + block] = norm * np.linalg.det(minus_one[phases]) * table[shift]
            return out
        with mp.workdps(dps):
            norm = (mp.mpc(0, 1) ** rs.num_positive_roots
                    / mp.sqrt(mp.mpf(kappa) ** r * r1))
            table = [mp.expjpi(mp.mpf(-2 * m) / order) for m in range(order)]
            minus_one = [t - 1 for t in table]
            out = []
            for e, e_sum in zip(rows.tolist(), row_sums.tolist()):
                out.append([norm * _det([[minus_one[(r1 * a * b) % order] for b in f] for a in e])
                            * table[(-e_sum * f_sum) % order]
                            for f, f_sum in zip(cols.tolist(), col_sums.tolist())])
            return out

    def t_diagonals(self):
        """Diagonals of T over the weights, bare and canonical framing.
        M - M[0] is (r+1) times the Casimir, the vacuum coming first;
        int/int division rounds it exactly as float(casimir(...)) does."""
        r1 = self.rs.rank + 1
        t_bare = np.array([cmath.exp(1j * math.pi * (d / r1) / self.kappa)
                           for d in (self.m - self.m[0]).tolist()])
        return t_bare, t_bare * cmath.exp(
            -2j * math.pi * central_charge(self.rs, self.level) / 24)


@dataclass
class ModularData:
    """Immutable S/T package for one (algebra, level) pair.

    Arrays are set read-only after certification, so every caller of the
    modular_data cache can be handed the same instance.
    """

    rs: RootSystem
    level: int
    weights: tuple[Weight, ...]
    s: np.ndarray
    t_canonical: np.ndarray
    t_bare: np.ndarray
    conjugation: tuple[int, ...]
    precision_bits: int
    certificate: dict
    _lv: _Level = field(repr=False)

    def __post_init__(self):
        for arr in (self.s, self.t_canonical, self.t_bare):
            arr.setflags(write=False)

    @property
    def kappa(self) -> int:
        return self.level + self.rs.dual_coxeter

    def index_of(self, weight: Weight) -> int:
        return self._lv.index_of(weight)


def _certify(s, t_canon, tol):
    """Residuals of the certificate (see module docstring), ok, and the
    charge conjugation read off S^2. Each n x n temporary is dropped once
    its residual is taken, and the identity and the permutation matrix are
    subtracted in place, so at most three live at once."""
    diag = np.arange(s.shape[0])
    x = s @ s.conj().T
    x[diag, diag] -= 1
    unitarity = float(np.abs(x).max())
    del x
    symmetry = float(np.abs(s - s.T).max())
    st = s * t_canon[None, :]
    x = st @ st
    x = x @ st
    del st
    c = s @ s
    x -= c
    st_cubed = float(np.abs(x).max())
    del x
    perm = np.abs(c).argmax(axis=1)
    c[diag, perm] -= 1
    residuals = {
        "unitarity": unitarity,
        "symmetry": symmetry,
        "row0_imag": float(np.abs(s[0].imag).max()),
        "row0_min": float(s[0].real.min()),
        "conjugation_permutation": float(np.abs(c).max()),
        "st_cubed": st_cubed,
    }
    involution = bool((perm[perm] == diag).all())
    ok = (residuals["unitarity"] < tol and residuals["symmetry"] < tol
          and residuals["row0_imag"] < tol and residuals["row0_min"] > 0
          and residuals["conjugation_permutation"] < tol and involution
          and residuals["st_cubed"] < tol)
    residuals["involution"] = involution
    return ok, residuals, tuple(perm.tolist())


def s_matrix(rs: RootSystem, level: int, tol: float = DEFAULT_TOL) -> ModularData:
    """Build and certify the modular data at the given level."""
    if not 0 < tol < math.inf:  # also refuses nan
        raise PreconditionError("tol must be a positive finite number, got %r" % (tol,))
    if level < 1:
        raise PreconditionError("level must be >= 1")
    n = math.comb(level + rs.rank, rs.rank)  # weights, counted before they are built
    cost = n * n * (rs.rank + 1) ** 3
    if cost > DEFAULT_BUDGET:
        raise BudgetExceededError(
            "S matrix needs %d determinant operations, budget is %d"
            % (cost, DEFAULT_BUDGET))

    lv = _Level(rs, level)
    t_bare, t_canon = lv.t_diagonals()
    for bits, dps in ((53, None), (113, RETRY_DPS)):
        s = np.asarray(lv.label_rows(range(n), dps), dtype=complex)
        ok, residuals, perm = _certify(s, t_canon, tol)
        if ok:
            return ModularData(rs=rs, level=level, weights=lv.weights, s=s,
                               t_canonical=t_canon, t_bare=t_bare,
                               conjugation=perm, precision_bits=bits,
                               certificate=residuals, _lv=lv)
    precision = "dps=%d" % RETRY_DPS
    raise CertificationError(
        "modular certification failed after retry at %s (%d bits): residuals "
        "%r against threshold %r" % (precision, bits, residuals, tol),
        residuals=residuals, threshold=tol, precision=precision)


_CACHE: dict = {}


def modular_data(rs: RootSystem, level: int) -> ModularData:
    """Shared certified instance per (series, rank, level), at DEFAULT_TOL."""
    key = (rs.series, rs.rank, level)
    if key not in _CACHE:
        _CACHE[key] = s_matrix(rs, level)
    return _CACHE[key]
