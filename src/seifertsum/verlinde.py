"""Verlinde dimensions of conformal block spaces.

    V_g(k; labels) = sum_lam (S[0,lam])^(2-2g) prod_i S[label_i,lam]/S[0,lam]

over the integrable lam at level k: the degree-zero Seifert lattice sum,
whose binary64 value is the degree-0 cell of `seifert.seifert_scan`. It
is read from the level object that also assembles S (modular._Level),
never the full S, so this module loads `modular` and not `seifert`. A
label outside the level's integrable weights is refused by name.

V is computed exactly. Every factor of a term lies in the cyclotomic
field Q(zeta), zeta of order N = (r+1) kappa, with only primes dividing N
in denominators (Coste-Gannon, Phys. Lett. B 323 (1994)), so for a prime
p = 1 mod N the ring map sending zeta to an element of order N in F_p
sends the terms (modular._Level.residues) to residues that sum to V mod p.
As |S[label, lam]| <= 1, A = sum_lam S[0,lam]^(2-2g-n) bounds |V|; it is
sized from the binary64 S row 0 with a 2-bit margin. Primes p = 1 mod N
below 2^31, largest first, are taken until their product exceeds 2A + 1,
and V is the symmetric residue of the Chinese remainder theorem. One more
prime is a witness: a residue that disagrees with it, or a negative V,
raises IntegralityError.

Without labels, V_g(k) is a polynomial in k of degree D = (g-1) dim G for
every k >= 0, g >= 2 and G = SU(r+1). It is dim H^0(M, L^k) on the moduli
space M of semistable SU(r+1) bundles over a curve of genus g, with L the
ample generator of Pic(M) (Beauville-Laszlo, Comm. Math. Phys. 164
(1994)). The higher cohomology of L^k vanishes for k >= 0
(Kumar-Narasimhan-Ramanathan, Math. Ann. 300 (1994)), so V_g(k) equals
chi(M, L^k), which is a polynomial in k of degree dim M = D (Snapper; see
Kleiman, Ann. of Math. 84 (1966)). Its leading coefficient C_g is then
Delta^D V(0) / D! over the levels 0 .. D, with V_g(0) = 1 (_leading_coefficient).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import CertificationError, IntegralityError, PreconditionError
from .lie import RootSystem, Weight
from .modular import _Level, price_level


class VerlindeTable(NamedTuple):
    genus: int
    labels: tuple[Weight, ...]
    rows: tuple[tuple[int, int], ...]  # (level, dimension)
    monotone_nondecreasing: bool | None = None


def _primes(order: int):
    """The primes p = 1 mod order in (31, 2^31), largest first: trial
    division by the odd primes below 32 and a base-2 Fermat test, which
    every even p fails, reject most composites cheaply; Miller-Rabin with
    bases 2, 3, 5, 7, deterministic below 3.2e9, decides."""
    for p in range((2 ** 31 - 2) // order * order + 1, max(order, 31), -order):
        s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = 2^s d with d odd
        if all(p % q for q in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)) and pow(2, p - 1, p) == 1 and all(
                any(pow(a, (p - 1) >> i, p) == p - 1 for i in range(1, s + 1))
                or pow(a, (p - 1) >> s, p) == 1 for a in (2, 3, 5, 7)):
            yield p


def verlinde_dimension(rs: RootSystem, level: int, genus: int,
                       labels: tuple[Weight, ...] = ()) -> int:
    """V_g(k; labels), exactly (module docstring)."""
    if genus < 0:
        raise PreconditionError("genus must be >= 0")
    if level < 1:
        raise PreconditionError("level must be >= 1")
    price_level(rs, level, rows=len(labels) + bool(labels))  # row 0 with the labels
    lv = _Level(rs, level)
    label_idx = [lv.index_of(lab) for lab in labels]
    # A <= 2^bits: A is summed in log space, so that an A past the binary64
    # range is sized too, and 2 bits cover the roundings of that sum
    logs = (2 - 2 * genus - len(label_idx)) * np.log2(lv.s0)
    top = logs.max()
    bits = math.ceil(top + math.log2(math.fsum((2.0 ** (logs - top)).tolist()))) + 2
    value, modulus, used = 0, 1, []
    for p in _primes((lv.rs.rank + 1) * lv.kappa):
        residue = int(lv.residues(p, 1 - genus, label_idx).sum()) % p
        if modulus >> (bits + 1):  # an odd modulus >= 2^(bits+1) exceeds 2A + 1
            if value % p != residue or value < 0:
                raise IntegralityError(
                    "Verlinde dimension %d from primes %s is not a nonnegative integer "
                    "or fails witness prime %d: residue expected %d, got %d"
                    % (value, used, p, value % p, residue))
            return value
        value += modulus * ((residue - value) * pow(modulus, -1, p) % p)
        modulus *= p
        used.append(p)
        value -= modulus if value > modulus // 2 else 0  # the symmetric residue
    raise PreconditionError("the primes p = 1 mod (r+1) kappa below 2^31 do not "
                            "determine the Verlinde dimension at level %d" % level)


def verlinde_table(rs: RootSystem, genus: int, levels, labels: tuple[Weight, ...] = ()) -> VerlindeTable:
    levels = list(levels)
    if not levels or any(k < 1 for k in levels):
        raise PreconditionError("levels must be >= 1")
    price_level(rs, max(levels), rows=len(labels) + bool(labels))  # all or nothing
    rows = tuple((k, verlinde_dimension(rs, k, genus, tuple(labels))) for k in levels)
    monotone = None if labels else all(b[1] >= a[1] for a, b in zip(rows, rows[1:]))
    return VerlindeTable(genus=genus, labels=tuple(labels), rows=rows,
                         monotone_nondecreasing=monotone)


def _leading_coefficient(rs: RootSystem, genus: int):
    """C_g of the unlabelled V_g(k), genus >= 2, exactly, as a Fraction: the D-th
    difference of V over the levels 0 .. D, divided by D!. Level D + 1 checks the
    degree: the (D+1)-th difference of a polynomial of degree D is 0."""
    from fractions import Fraction

    degree = (genus - 1) * rs.dimension
    diffs = [1] + [v for _, v in verlinde_table(rs, genus, range(1, degree + 2)).rows]
    for _ in range(degree):
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    if diffs[0] != diffs[1]:
        raise CertificationError(
            "V_%d(k) of %s%d over k = 0 .. %d is not a polynomial of degree %d: its "
            "difference of order %d is %d, not 0"
            % (genus, rs.series, rs.rank, degree + 1, degree, degree + 1, diffs[1] - diffs[0]))
    return Fraction(diffs[0], math.factorial(degree))
