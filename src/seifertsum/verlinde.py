"""Verlinde dimensions of conformal block spaces.

    V_g(k; labels) = sum_lam (S[0,lam])^(2-2g) prod_i S[label_i,lam]/S[0,lam]

over the integrable lam at level k: the degree-zero Seifert lattice sum,
read from S row 0 and the label rows of the level object that also
assembles S (modular._Level), never the full S. A label outside the
level's integrable weights is refused by name.

The result must be a nonnegative integer, and the working precision is
chosen from an error bound. Every |S[label, lam]| is at most 1, so
A = sum_lam S[0,lam]^(2-2g-n) bounds sum |term|, and the sum carries an
error of at most (R A + |V|) eps at unit roundoff eps, with R counting
the roundings of one term (_roundings). The sum is taken in binary64
when (R + 1) A has at most 15 digits, so that this bound is below 1/2.
When it has more, or the bound plus the distance to the nearest integer
is not below 1/2, the sum is taken in mpmath at digits((R + 1) A) +
_GUARD_DIGITS digits. A value is rounded only when its bound plus its
distance to the nearest integer is below 1/2, so that nearest integer
is the only one the exact sum can be; anything else is a hard error,
not a silent rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from .errors import IntegralityError, PreconditionError
from .lie import RootSystem, Weight
from .modular import _Level
from .seifert import _cells

_EPS64 = 2.0 ** -52
_BINARY64_DIGITS = 15  # 10^15 eps64 < 1/2
_GUARD_DIGITS = 3


@dataclass(frozen=True)
class VerlindeRequest:
    rs: RootSystem
    level: int
    genus: int
    labels: tuple[Weight, ...] = ()


@dataclass(frozen=True)
class VerlindeTable:
    genus: int
    labels: tuple[Weight, ...]
    rows: tuple[tuple[int, int], ...]  # (level, dimension)
    monotone_nondecreasing: bool | None = None


def _distance(value):
    """|value - nearest integer| and that integer, for complex or mpc."""
    nearest = int(mp.nint(value.real, prec=0))  # exact at any precision
    return abs(value - nearest), nearest


def _round_integral(value, context: str, error=0.0, precision: str = "binary64") -> int:
    """The nearest integer to value, when value carries at most `error`
    and the distance to that integer plus `error` is below 1/2."""
    residual, nearest = _distance(value)
    if residual + error >= 0.5:
        threshold = 0.5 - error
        raise IntegralityError(
            "%s = %s is %.3g away from the nearest integer (threshold %.3g = "
            "1/2 - certified error %.3g, %s)"
            % (context, mp.nstr(value, 25), residual, threshold, error, precision),
            residual=float(residual), threshold=float(threshold), precision=precision)
    if nearest < 0:
        raise IntegralityError("%s rounded to the negative integer %d"
                               % (context, nearest))
    return nearest


def _roundings(rs: RootSystem, power: int, n_labels: int) -> int:
    """R: a term's error in units of eps, relative to S[0,lam]^power.

    A table sine carries at most 7 roundings: 3 in its argument, which
    stays at most pi/2 so they do not grow, and 4 ulps of the library
    sine. S[0,lam], a product of |Delta_+| sines and a normalisation,
    so carries at most 8|Delta_+| + 4, and the power multiplies that by
    |power| + 1. A label entry is the r x r determinant of the entries
    zeta^m - 1 (modular._Level.label_rows), of modulus at most 2, each
    off by at most 16 roundings: 10 from its argument, up to 2 pi after
    3 roundings, 4 ulps of the library exponential, and 1 in the
    subtraction. Elimination with partial pivoting adds r^2 2^r roundings
    to each of the r^2 entries (pivot growth at most 2^(r-1) on entries
    of modulus 2); each entry's error reaches the determinant through a
    cofactor of at most 2^(r-1) (r-1)^((r-1)/2) (Hadamard); and r + 2
    roundings of the pivot product, phase and normalisation follow.
    """
    r = rs.rank
    det = r ** 2 * (r ** 2 * 2 ** r + 16) * 2 ** (r - 1) * math.ceil((r - 1) ** ((r - 1) / 2))
    return (abs(power) + 1) * (8 * rs.num_positive_roots + 4) + n_labels * (det + r + 2)


def _lattice_value(lv: _Level, genus: int, label_idx, dps: int | None = None):
    """(V, bound on its error): the lattice sum in binary64, or with a dps
    in mpmath at that many digits."""
    power = 2 - 2 * genus - len(label_idx)
    if dps is None:
        value = _cells(lv, [genus], [0], label_idx)[genus, 0]
        total, eps = math.fsum((lv.s0 ** power).tolist()), _EPS64
    else:
        with mp.workdps(dps):
            mags = [s ** power for s in lv.s0_row(dps)]
            terms = mags
            for row in lv.label_rows(label_idx, dps):
                terms = [t * s for t, s in zip(terms, row)]
            value, total, eps = mp.fsum(terms), mp.fsum(mags), +mp.eps
    return value, (_roundings(lv.rs, power, len(label_idx)) * total + abs(value)) * eps


def _certified_sum(req: VerlindeRequest):
    """(V, bound on its error, precision name) at the first precision,
    binary64 or the mpmath digits its bound asks for, whose bound plus
    distance to the nearest integer is below 1/2."""
    if req.genus < 0:
        raise PreconditionError("genus must be >= 0")
    if req.level < 1:
        raise PreconditionError("level must be >= 1")
    lv = _Level(req.rs, req.level)
    label_idx = [lv.index_of(lab) for lab in req.labels]
    # digits of (R + 1) A, which bounds the error in units of eps; A is
    # summed in log space so that a sum past the binary64 range is sized too
    power = 2 - 2 * req.genus - len(label_idx)
    logs = power * np.log10(lv.s0)
    top = logs.max()
    digits = math.ceil(math.log10(_roundings(req.rs, power, len(label_idx)) + 1) + top
                       + math.log10(math.fsum((10.0 ** (logs - top)).tolist())))
    if digits <= _BINARY64_DIGITS:
        value, error = _lattice_value(lv, req.genus, label_idx)
        if _distance(value)[0] + error < 0.5:
            return value, error, "binary64"
    dps = digits + _GUARD_DIGITS
    value, error = _lattice_value(lv, req.genus, label_idx, dps)
    return value, error, "dps=%d" % dps


def verlinde_sum(req: VerlindeRequest) -> complex:
    """The complex weight sum, before integrality enforcement, at the
    precision verlinde_dimension rounds it at."""
    return complex(_certified_sum(req)[0])


def verlinde_dimension(req: VerlindeRequest) -> int:
    value, error, precision = _certified_sum(req)
    return _round_integral(value, "Verlinde dimension", error, precision)


def verlinde_table(rs: RootSystem, genus: int, levels, labels: tuple[Weight, ...] = ()) -> VerlindeTable:
    levels = list(levels)
    if not levels or any(k < 1 for k in levels):
        raise PreconditionError("levels must be >= 1")
    rows = []
    for k in levels:
        dim = verlinde_dimension(VerlindeRequest(rs=rs, level=k, genus=genus,
                                                 labels=tuple(labels)))
        rows.append((k, dim))
    monotone = None
    if not labels:
        monotone = all(b[1] >= a[1] for a, b in zip(rows, rows[1:]))
    return VerlindeTable(genus=genus, labels=tuple(labels), rows=tuple(rows),
                         monotone_nondecreasing=monotone)
