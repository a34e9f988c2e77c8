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

One level's data lives in one place (_Level): the integrable weights as
one (n, r) int64 array (Weight objects only on demand; a label is found
by its row), the epsilon coordinates e of L+rho, the integer norms
M = (r+1)|L+rho|^2 = (r+1) sum e_i^2 - (sum e_i)^2 (lie._epsilon_norms),
S row 0, any S rows, and the T diagonals. S, T, the Verlinde sums and
the Seifert sums all read the same instance. S row 0 is the product form

    S[0, L] = ((r+1) kappa^r)^(-1/2) prod_{i<j} 2 sin(pi (e_i - e_j)/kappa);

every e_i - e_j lies in 1..kappa-1, so one table of kappa-1 sines serves
every weight. Row 0 and the label rows are binary64.

Mod a prime p = 1 mod N, N = (r+1) kappa, the same formulas hold with
zeta sent to an element z of order N (_Level.residues, for verlinde):
S[0, L]^2 = ((r+1) kappa^r)^-1 prod_{i<j} (2 - w^d - w^-d), w = z^(r+1),
d = e_i - e_j, with no factor 0 mod p, and S[L, M]/S[0, M] = D(L)/D(0)
for D(L) = det[z^{(r+1) e_i f_j} - 1] z^{-(sum e)(sum f)}, f from M+rho;
D(0) is a Vandermonde determinant of distinct roots of unity, not 0 mod p.

Every constructed matrix is certified: S symmetric and unitary, S^2 the
charge conjugation C, row zero real positive, and (S T)^3 = S^2 for the
canonical T. C is exact, read off the weights (it reverses the Dynkin
labels) and checked to be an involution. The certificate runs two n x n
products, S S^dagger and (S T) S, each over row blocks whose residual is
reduced on the spot, so it holds no n x n temporary. unitarity, symmetry
and row zero are measured; conjugation_permutation and st_cubed are bounds
on max |S^2 - C| and max |(ST)^3 - S^2|, carried over in O(n^2) from the
measured residuals of S S^dagger = I, S = S^T, conj(S) = C S, S C = C S
and S T S = conj(T) S conj(T) by two exact identities (see _certify).
S is assembled and certified in binary64, and a failure raises a
CertificationError that carries the residuals, the tolerance and the
precision ("binary64"). There is no retry at more digits: the
certificate's products run in complex128, so an S assembled at more
digits and rounded back to binary64 leaves residuals of the same size.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import types

import numpy as np

from .errors import BudgetExceededError, CertificationError, PreconditionError
from .lie import RootSystem, Weight, _epsilon_norms

DEFAULT_TOL = 1e-9
# the two limits price_level holds every level to, before any weight array exists
MAX_BYTES = 2 * 10 ** 9  # verlinde A4 g2 k90 is priced at 1.15e9
MAX_OPERATIONS = 10 ** 10  # S at A2 k56 (n = 1653) is priced at 9.1e9
# operations a scan's lattice term is priced at: a term takes about 175 ns, a
# multiply-add of S's certificate about 0.47 ns (A2 k52: 5.9e9 in 2.8 s)
TERM_OPERATIONS = 350


def integrable_weights(rs: RootSystem, level: int) -> tuple[Weight, ...]:
    """Dominant weights with <Lambda, theta> <= k (for A_r, coordinate sum
    at most k) in lexicographic order: one Weight per row of _weight_array."""
    return tuple(map(Weight, _weight_array(rs.rank, level).tolist()))


def _weight_array(rank: int, level: int) -> np.ndarray:
    """The int64 rows >= 0 of length rank and sum <= level, lexicographic: each
    coordinate repeats every row of sum s level - s + 1 times, appending 0..level - s."""
    if level < 0:
        raise PreconditionError("level must be >= 0")
    rows = np.zeros((1, 0), dtype=np.int64)
    for _ in range(rank):
        reps = level + 1 - rows.sum(axis=1)
        ramp = np.arange(reps.sum()) - np.repeat(reps.cumsum() - reps, reps)
        rows = np.column_stack((np.repeat(rows, reps, axis=0), ramp))
    return rows


def price_level(rs: RootSystem, level: int, rows: int = 0, degrees: int = 0,
                terms: int = 0, s: bool = False) -> int:
    """n = C(k+r, r) once the level fits MAX_BYTES and MAX_OPERATIONS, else
    BudgetExceededError naming both figures and both limits. Bytes a weight:
    8 (2r + 9 + 3P), P = r(r+1)/2, for _Level's arrays and the temporaries of
    its build and of residues; 16 a row held (S, or a residue top and bottom)
    and one row's r x r determinant entries, 48 each; 72 a scan degree; for the
    whole S (s), n rows and the encoder's 33 a float. Operations: n, r^3 a
    determinant entry, 2 n^3 for the certificate's products, TERM_OPERATIONS a
    scan's term."""
    r, n = rs.rank, math.comb(level + rs.rank, rs.rank)
    rows = n if s else rows
    need = (n * (8 * (2 * r + 9 + 3 * r * (r + 1) // 2) + 16 * rows + 48 * r * r * (rows > 0)
                 + 72 * degrees + 66 * n * s),
            n + rows * n * r ** 3 + 2 * n ** 3 * s + TERM_OPERATIONS * terms)
    if need[0] > MAX_BYTES or need[1] > MAX_OPERATIONS:
        raise BudgetExceededError(
            "level %d of %s%d (%d weights) needs %.4g bytes and %.4g operations; the "
            "limits are %.3g bytes and %.3g operations"
            % (level, rs.series, r, n, *need, MAX_BYTES, MAX_OPERATIONS))
    return n


def central_charge(rs: RootSystem, level: int) -> float:
    return level * rs.dimension / (level + rs.dual_coxeter)


# complex entries of the r x r matrices per block of the batched binary64
# determinant; larger blocks are no faster and only raise the peak over S
_BLOCK_ENTRIES = 1 << 14
# rows of S per block of the certificate's two products
_CERT_ROWS = 32


def _pow_mod(x, e: int, p: int):
    """x^e mod p elementwise, for int64 x in [0, p) and e >= 0; with p < 2^31
    every product of two residues stays below 2^62."""
    out = np.ones_like(x)
    for bit in bin(e)[2:]:
        out = out * out % p
        if bit == "1":
            out = out * x % p
    return out


def _inverse_mod(x, p: int):
    """Inverses mod p < 2^31 of int64 x in [0, p), by a product tree: pairwise
    products up to the root, one pow at the root, and each child's inverse
    down as its parent's inverse times its sibling. A zero in x makes the
    root 0, which pow refuses with ValueError."""
    tree = [x]
    while len(tree[-1]) > 1:
        if len(tree[-1]) % 2:
            tree[-1] = np.append(tree[-1], 1)
        tree.append(tree[-1][0::2] * tree[-1][1::2] % p)
    inv = np.array([pow(int(tree.pop()[0]), -1, p)], dtype=np.int64)
    for level in reversed(tree):
        siblings = level.reshape(-1, 2)[:, ::-1].ravel()
        inv = np.repeat(inv[:len(level) // 2], 2) * siblings % p
    return inv[:len(x)]


def _roots_mod(p: int, order: int):
    """z^m mod p for m < order, by doubling, for z = a^((p-1)/order) of order
    exactly `order` (no z^e = 1 at a proper divisor e), a = 2, 3, ..."""
    divisors = [e for d in range(1, math.isqrt(order) + 1) if order % d == 0
                for e in (d, order // d) if e < order]
    z = next(z for z in (pow(a, (p - 1) // order, p) for a in itertools.count(2))
             if all(pow(z, e, p) != 1 for e in divisors))
    table, m = np.ones(order, dtype=np.int64), 1
    while m < order:
        table[m:2 * m] = table[:min(m, order - m)] * pow(z, m, p) % p
        m *= 2
    return table


def _det_mod(a, p: int):
    """Determinants mod p < 2^31 of stacked r x r int64 matrices in [0, p),
    as numerators and denominators not 0 mod p, by fraction-free elimination
    (rows below a pivot are multiplied by it; a zero pivot swaps rows)."""
    r = a.shape[-1]
    a = a.reshape(-1, r, r).copy()
    num, den = np.ones(len(a), dtype=np.int64), np.ones(len(a), dtype=np.int64)
    for k in range(r):
        first = k + (a[:, k:, k] != 0).argmax(axis=1)  # k when the column is 0
        swap = np.flatnonzero(first != k)
        a[swap, k], a[swap, first[swap]] = a[swap, first[swap]], a[swap, k]
        num[swap] = p - num[swap]
        num = num * a[:, k, k] % p  # 0 at a zero column
        pivot = np.where(a[:, k, k] == 0, 1, a[:, k, k])
        den = den * _pow_mod(pivot, r - 1 - k, p) % p
        a[:, k + 1:] = (a[:, k + 1:] * pivot[:, None, None]
                        - a[:, k + 1:, k, None] * a[:, None, k]) % p
    return num, den


class _Level:
    """The integrable weights of one level and everything read over them."""

    def __init__(self, rs: RootSystem, level: int):
        self.rs = rs
        self.level = level
        self.kappa = level + rs.dual_coxeter
        self.coords = _weight_array(rs.rank, level)
        # M = (r+1)|L+rho|^2, exact; the vacuum's comes first
        self.es, self.m = _epsilon_norms(self.coords + 1)
        i, j = np.triu_indices(rs.rank + 1, k=1)
        self._gaps = self.es[:, i] - self.es[:, j]  # each in 1..kappa-1
        # S row 0; sin(pi min(d, kappa-d)/kappa) keeps the argument, and its rounding, small
        folded = np.minimum(np.arange(self.kappa), self.kappa - np.arange(self.kappa))
        sines = 2 * np.sin(np.pi * folded / self.kappa)
        self.s0 = sines[self._gaps].prod(axis=1) / math.sqrt(
            (rs.rank + 1) * self.kappa ** rs.rank)

    @functools.cached_property
    def weights(self) -> tuple[Weight, ...]:  # one per row of coords, on first read
        return integrable_weights(self.rs, self.level)

    def index_of(self, weight: Weight) -> int:
        if len(weight.coords) == self.rs.rank:
            for i in np.flatnonzero((self.coords == weight.coords).all(axis=1)):
                return int(i)
        raise PreconditionError(
            "weight %r is not integrable at level %d" % (weight.coords, self.level))

    def conjugation(self):
        """Charge conjugation as an index array: the partner of each weight is
        the weight with its Dynkin labels reversed. The reversed rows are the
        rows in another order, so sorting them (lexsort keys the last label
        first) puts at place m the row whose reversal is row m."""
        return np.lexsort(self.coords.T)

    def _exponents(self, rows):
        """Exponents of zeta mod (r+1) kappa in det[zeta^{(r+1) e_i f_j} - 1],
        i, j <= r, and in zeta^{-(sum e)(sum f)}, e over rows, f over weights."""
        r1, order = self.rs.rank + 1, (self.rs.rank + 1) * self.kappa
        return ((r1 * rows[:, None, :-1, None] * self.es[None, :, None, :-1]) % order,
                (-rows.sum(axis=1)[:, None] * self.es.sum(axis=1)[None, :]) % order)

    def label_rows(self, label_idx):
        """S[L, M] for L over the given weight indices and M over every
        weight, one r x r determinant det[zeta^{(r+1) e_i f_j} - 1] per
        entry (see module docstring), taken by numpy in binary64 over row
        blocks of at most _BLOCK_ENTRIES matrix entries."""
        kappa, r, order = self.kappa, self.rs.rank, (self.rs.rank + 1) * self.kappa
        rows = self.es[list(label_idx)]
        norm = (1j ** self.rs.num_positive_roots) / math.sqrt(float(kappa ** r * (r + 1)))
        table = np.exp(-2j * math.pi * np.arange(order) / order)
        minus_one = table - 1
        out = np.empty((len(rows), len(self.es)), dtype=complex)
        block = max(1, _BLOCK_ENTRIES // (len(self.es) * r * r))
        for i0 in range(0, len(rows), block):
            phases, shift = self._exponents(rows[i0:i0 + block])
            out[i0:i0 + block] = norm * np.linalg.det(minus_one[phases]) * table[shift]
        return out

    def residues(self, p: int, power: int, label_idx):
        """The Verlinde terms (S[0,M]^2)^power prod_L S[L,M]/S[0,M], L over
        label_idx, as int64 residues mod a prime p = 1 mod (r+1) kappa below
        2^31, for every weight M (see module docstring)."""
        r, r1, kappa = self.rs.rank, self.rs.rank + 1, self.kappa
        z = _roots_mod(p, r1 * kappa)
        # the factor 2 - w^d - w^-d of each gap d, raised before the product; no
        # factor is 0 mod p, so by Fermat its power is power mod (p - 1)
        d = r1 * np.arange(kappa)
        factors = _pow_mod((2 - z[d] - z[-d]) % p, power % (p - 1), p)
        norm = pow(r1 * kappa ** r, -power, p)  # ((r+1) kappa^r)^-power
        terms = np.full(len(self.es), norm, dtype=np.int64)
        for gaps in self._gaps.T:
            terms = terms * factors[gaps] % p
        dets = []  # D(L) as (top, bottom) for L = 0 and each label, a row at a time
        for i in (0, *label_idx) if label_idx else ():
            phases, shift = self._exponents(self.es[[i]])
            top, bottom = _det_mod((z[phases] - 1) % p, p)
            dets.append((top * z[shift[0]] % p, bottom))
        den = np.ones_like(terms)
        for top, bottom in dets[1:]:  # D(L)/D(0) as top_L bottom_0 / (bottom_L top_0)
            terms = terms * top % p * dets[0][1] % p
            den = den * bottom % p * dets[0][0] % p
        return terms * _inverse_mod(den, p) % p if label_idx else terms

    def t_diagonals(self):
        """Diagonals of T over the weights, bare and canonical framing.
        M - M[0] is (r+1) times the Casimir, the vacuum coming first;
        int/int division rounds it exactly as float(casimir(...)) does."""
        r1 = self.rs.rank + 1
        t_bare = np.array([cmath.exp(1j * math.pi * (d / r1) / self.kappa)
                           for d in (self.m - self.m[0]).tolist()])
        return t_bare, t_bare * cmath.exp(
            -2j * math.pi * central_charge(self.rs, self.level) / 24)


class ModularData:
    """Immutable S/T package for one (algebra, level) pair: read-only
    attributes, arrays and certificate mapping."""

    __slots__ = ("rs", "level", "s", "t_canonical", "t_bare", "conjugation", "certificate", "_lv")
    precision_bits = 53  # binary64, the one precision S is assembled in

    def __init__(self, rs: RootSystem, level: int, s: np.ndarray, t_canonical: np.ndarray,
                 t_bare: np.ndarray, conjugation: tuple[int, ...], certificate: dict, lv: _Level):
        for arr in (s, t_canonical, t_bare):
            arr.setflags(write=False)
        for name, value in zip(self.__slots__, (rs, level, s, t_canonical, t_bare, conjugation,
                                                types.MappingProxyType(certificate), lv)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError("ModularData is immutable, %r cannot be set" % name)

    __delattr__ = __setattr__

    @property
    def kappa(self) -> int:
        return self.level + self.rs.dual_coxeter

    @property
    def weights(self) -> tuple[Weight, ...]:
        return self._lv.weights

    def index_of(self, weight: Weight) -> int:
        return self._lv.index_of(weight)


def _certify(s, t_canon, conj, tol):
    """Residuals of the certificate (see module docstring) and ok, for S, the
    canonical T diagonal t and the charge conjugation conj (an index array).

    Here * is the entrywise complex conjugate. Two products run over blocks
    of _CERT_ROWS rows. S (S[rows])^dagger is a column block of S S^dagger,
    so E_u = S S^dagger - I, and unitarity, come out as from the whole
    product; (S[rows] T) S less (T* S T*)[rows] is a row block of
    E_t = S T S - T* S T*. Each block also gives its rows of E_s = S - S^T,
    E_c = S* - C S and E_p = S C - C S and the l1 norms of its rows and
    columns, and every residual is reduced to its maximum on the spot, so
    no n x n temporary is made. The identities

        S^2 - C = C E_u + C S E_s* + E_p S* + S E_c*,
        (ST)^3 - S^2 = (T* C T - C) + T* (S^2 - C) T - (S^2 - C)
                       + T* S (T* T - I) S T + E_t T S T

    hold for any S, diagonal T and permutation C. Hoelder's inequality on
    each term, with nu the largest row l1 norm of S, nu1 the largest column
    l1 norm and tau = max |t|, turns the measured maxima into the bounds
    conjugation_permutation >= max |S^2 - C| and st_cubed >= max |(ST)^3 - S^2|;
    the products' own rounding is not added, as it never was to the
    residuals they measure. For the true S and T every term vanishes:
    S* = S^-1 = C S, C commutes with S and T, and (ST)^3 = C gives
    S T S = T* S T*."""
    n = s.shape[0]
    t_bar = t_canon.conj()
    unitarity = symmetry = e_c = e_p = e_t = nu = s_max = 0.0
    col_l1 = np.zeros(n)
    for i0 in range(0, n, _CERT_ROWS):
        rows = slice(i0, i0 + _CERT_ROWS)
        block = s[rows]
        bar = block.conj()
        x = s @ bar.T  # (S S^dagger)[:, rows]
        x[np.arange(i0, i0 + len(block)), np.arange(len(block))] -= 1
        unitarity = max(unitarity, float(np.abs(x).max()))
        del x
        partner = s[conj[rows]]  # (C S)[rows]
        e_c = max(e_c, float(np.abs(bar - partner).max()))
        del bar
        e_p = max(e_p, float(np.abs(block[:, conj] - partner).max()))
        del partner
        symmetry = max(symmetry, float(np.abs(block - s[:, rows].T).max()))
        mags = np.abs(block)
        nu = max(nu, float(mags.sum(axis=1).max()))
        s_max = max(s_max, float(mags.max()))
        col_l1 += mags.sum(axis=0)
        del mags
        x = (block * t_canon) @ s  # (S T S)[rows]
        x -= t_bar[rows, None] * block * t_bar
        e_t = max(e_t, float(np.abs(x).max()))
        del x
    nu1 = float(col_l1.max())
    tau2 = float(np.abs(t_canon).max()) ** 2
    conjugation = unitarity + nu * symmetry + nu1 * e_p + nu * e_c
    st_cubed = (float(np.abs(t_bar * t_canon[conj] - 1).max())
                + (tau2 + 1) * conjugation
                + tau2 * float(np.abs(t_bar * t_canon - 1).max()) * nu * s_max
                + tau2 * nu1 * e_t)
    residuals = {
        "unitarity": unitarity,
        "symmetry": symmetry,
        "row0_imag": float(np.abs(s[0].imag).max()),
        "row0_min": float(s[0].real.min()),
        "conjugation_permutation": conjugation,
        "st_cubed": st_cubed,
    }
    involution = bool((conj[conj] == np.arange(n)).all())
    ok = (residuals["unitarity"] < tol and residuals["symmetry"] < tol
          and residuals["row0_imag"] < tol and residuals["row0_min"] > 0
          and residuals["conjugation_permutation"] < tol and involution
          and residuals["st_cubed"] < tol)
    residuals["involution"] = involution
    return ok, residuals


def s_matrix(rs: RootSystem, level: int, tol: float = DEFAULT_TOL) -> ModularData:
    """Build and certify the modular data at the given level."""
    if not 0 < tol < math.inf:  # also refuses nan
        raise PreconditionError("tol must be a positive finite number, got %r" % (tol,))
    if level < 1:
        raise PreconditionError("level must be >= 1")
    n = price_level(rs, level, s=True)
    lv = _Level(rs, level)
    t_bare, t_canon = lv.t_diagonals()
    s = lv.label_rows(range(n))
    conj = lv.conjugation()
    ok, residuals = _certify(s, t_canon, conj, tol)
    if not ok:
        raise CertificationError(
            "modular certification failed in binary64: residuals %r against "
            "threshold %r" % (residuals, tol),
            residuals=residuals, threshold=tol, precision="binary64")
    return ModularData(rs=rs, level=level, s=s, t_canonical=t_canon, t_bare=t_bare,
                       conjugation=tuple(conj.tolist()), certificate=residuals, lv=lv)
