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

Every exponent is an integer, reduced exactly mod (r+1) kappa and looked
up in a table of roots of unity. T is diagonal with entries
exp(2 pi i (<L, L+2 rho>/(2 kappa) - c/24)) in the canonical framing,
c = k dim(g)/kappa, and without the -c/24 shift in the bare framing.

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
from .lie import RootSystem, Weight, _det, _form, _shifted_epsilon

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
    certificate: dict = field(default_factory=dict)
    _index: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self._index = {w.coords: i for i, w in enumerate(self.weights)}
        for arr in (self.s, self.t_canonical, self.t_bare):
            arr.setflags(write=False)

    @property
    def kappa(self) -> int:
        return self.level + self.rs.dual_coxeter

    def index_of(self, weight: Weight) -> int:
        try:
            return self._index[weight.coords]
        except KeyError:
            raise PreconditionError(
                "weight %r is not integrable at level %d"
                % (weight.coords, self.level)) from None


# complex entries per block of the batched binary64 determinant
_BLOCK_ENTRIES = 1 << 16


def _s_block(rs, kappa, rows, cols, dps=None):
    """S[L, M] for L over rows and M over cols, each an int64 array of the
    epsilon coordinates of L+rho and M+rho, one (r+1)x(r+1) determinant per
    entry (see module docstring).

    With dps None the determinants are taken by numpy in binary64, over
    row blocks of at most _BLOCK_ENTRIES matrix entries, and a complex
    array is returned; with a dps each one is taken by mpmath at that many
    digits and nested lists of mpc are returned.
    """
    r1 = rs.rank + 1
    order = r1 * kappa
    row_sums = rows.sum(axis=1)
    col_sums = cols.sum(axis=1)
    n = len(cols)
    if dps is None:
        norm = (1j ** rs.num_positive_roots) / math.sqrt(float(kappa ** rs.rank * r1))
        table = np.exp(-2j * math.pi * np.arange(order) / order)
        out = np.empty((len(rows), n), dtype=complex)
        block = max(1, _BLOCK_ENTRIES // (n * r1 * r1))
        for i0 in range(0, len(rows), block):
            part = rows[i0:i0 + block]
            phases = (r1 * part[:, None, :, None] * cols[None, :, None, :]) % order
            shift = (-row_sums[i0:i0 + block, None] * col_sums[None, :]) % order
            out[i0:i0 + block] = norm * np.linalg.det(table[phases]) * table[shift]
        return out
    with mp.workdps(dps):
        norm = (mp.mpc(0, 1) ** rs.num_positive_roots
                / mp.sqrt(mp.mpf(kappa) ** rs.rank * r1))
        table = [mp.expjpi(mp.mpf(-2 * m) / order) for m in range(order)]
        out = []
        for e, e_sum in zip(rows.tolist(), row_sums.tolist()):
            out.append([norm * _det([[table[(r1 * a * b) % order] for b in f] for a in e])
                        * table[(-e_sum * f_sum) % order]
                        for f, f_sum in zip(cols.tolist(), col_sums.tolist())])
        return out


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


def _t_diagonals(rs, level, weights):
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


def s_matrix(rs: RootSystem, level: int, tol: float = DEFAULT_TOL) -> ModularData:
    """Build and certify the modular data at the given level."""
    if level < 1:
        raise PreconditionError("level must be >= 1")
    weights = integrable_weights(rs, level)
    n = len(weights)
    cost = n * n * (rs.rank + 1) ** 3
    if cost > DEFAULT_BUDGET:
        raise BudgetExceededError(
            "S matrix needs %d determinant operations, budget is %d"
            % (cost, DEFAULT_BUDGET))

    kappa = level + rs.dual_coxeter
    t_bare, t_canon = _t_diagonals(rs, level, weights)
    es = np.array([_shifted_epsilon(w.coords) for w in weights], dtype=np.int64)
    for bits, dps in ((53, None), (113, RETRY_DPS)):
        s = np.asarray(_s_block(rs, kappa, es, es, dps), dtype=complex)
        ok, residuals, perm = _certify(s, t_canon, tol)
        if ok:
            return ModularData(rs=rs, level=level, weights=weights, s=s,
                               t_canonical=t_canon, t_bare=t_bare,
                               conjugation=perm, precision_bits=bits,
                               certificate=residuals)
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
