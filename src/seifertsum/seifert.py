"""Chern-Simons partition sums on Seifert fibrations over genus-g bases.

For the circle bundle of degree p over a genus-g surface, with n fibre
Wilson lines labelled by integrable weights, the localisation of the
path integral onto the weight lattice gives the finite sum

    Z = N * sum_lam (S[0,lam])^(2-2g-n) * prod_i S[label_i, lam]
            * exp(-i pi p <lam+rho, lam+rho> / kappa)

with kappa = k + dual Coxeter number and the sum over integrable lam at
level k. At p = 0 the phase collapses and the sum is the Verlinde sum,
which `verlinde` computes exactly.

The sum reads only S row 0 and one row per label, never the full S,
from the level object that also assembles S (modular._Level): row 0 from
its sine product, a label row from the determinant kernel of S.

The phase is reduced exactly: (r+1)<lam+rho, lam+rho> is the level's
integer norm M = (r+1) sum e_i^2 - (sum e_i)^2 in the epsilon
coordinates e of lam+rho, so the exponent is
-2 pi i (p M mod 2(r+1)kappa) / (2(r+1)kappa), and Z(p) is periodic in
p with period 2(r+1)kappa bit for bit. All (genus, degree) cells of one
level are contracted together in binary64 (_cells), and a cell's value
does not depend on the other cells of its scan, so one cell is the scan
`(cell,) = seifert_scan(rs, [g], [p], [k])`. A genus whose terms
overflow binary64 is refused.
The overall normalisation N is pure convention:

* framing "bare" applies no extra phase; "canonical" multiplies by
  exp(-2 pi i c sign(p) / 8), one unit of framing correction per
  surgery twist, changing the phase only, never the modulus;
* the optional centre factor divides by |Z(G)| = rank+1 for A_r and is
  off by default.

Anchors fixing the exponent sign: |Z| at (g, p) = (0, 1) equals S[0,0]
for every level, and Z(p) is the complex conjugate of Z(-p) in the bare
convention whenever S is real.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np

from .errors import FRAMING_CONVENTIONS, PreconditionError
from .lie import RootSystem, Weight
from .modular import _Level, central_charge, price_level


def _cells(lv: _Level, genera, degrees, label_idx) -> dict:
    """{(g, p): Z} in binary64 for every genus g and degree p, where

        Z = sum_lam S[0,lam]^(2-2g-n) prod_i S[label_i,lam] exp(-i pi p |lam+rho|^2/kappa)

    and n = len(label_idx).

    The phase is exact (see module docstring) and is 1 at p = 0, so the
    terms are those of the Verlinde sum. Each term is formed by single
    elementwise operations and the real and imaginary parts of each cell
    are summed by math.fsum, so a cell does not depend on which other
    cells are contracted with it.
    """
    r1 = lv.rs.rank + 1
    order = 2 * r1 * lv.kappa
    table = np.exp(-2j * np.pi * np.arange(order) / order)
    m = lv.m % order
    idx = np.array([p % order for p in degrees], dtype=np.int64)[:, None] * m % order
    ph_re, ph_im = table.real[idx], table.imag[idx]
    labels = np.prod(lv.label_rows(label_idx), axis=0)
    out = {}
    for g in genera:
        with np.errstate(over="ignore", invalid="ignore"):
            w = lv.s0 ** (2 - 2 * g - len(label_idx)) * labels
        if not np.isfinite(w).all():
            raise PreconditionError("genus %d terms at level %d exceed the binary64 range"
                                    % (g, lv.level))
        re = ph_re * w.real - ph_im * w.imag
        im = ph_re * w.imag + ph_im * w.real
        for p, row_re, row_im in zip(degrees, re, im):
            out[g, p] = complex(math.fsum(row_re.tolist()), math.fsum(row_im.tolist()))
    return out


class ScanCell(NamedTuple):
    genus: int
    degree: int
    level: int
    value: complex
    modulus: float
    term_count: int


def seifert_scan(rs: RootSystem, genera, degrees, levels,
                 labels: tuple[Weight, ...] = (), framing: str = "bare",
                 include_centre_factor: bool = False) -> tuple[ScanCell, ...]:
    """Grid evaluation, all or nothing: modular.price_level prices the top
    level, whose arrays are the largest, with the lattice terms of all cells
    before any level is built. Each level is then built once, one at a time,
    and contracted for every (genus, degree) cell."""
    genera = sorted(set(int(g) for g in genera))
    degrees = sorted(set(int(p) for p in degrees))
    levels = sorted(set(int(k) for k in levels))
    if any(g < 0 for g in genera):
        raise PreconditionError("genus must be >= 0")
    if any(k < 1 for k in levels):
        raise PreconditionError("level must be >= 1")
    if framing not in FRAMING_CONVENTIONS:
        raise PreconditionError("unknown framing convention %r" % framing)
    n_weights = {k: math.comb(k + rs.rank, rs.rank) for k in levels}
    price_level(rs, max(levels, default=0), rows=len(labels), degrees=len(degrees),
                terms=sum(n_weights.values()) * len(genera) * len(degrees))
    values = {}
    for k in levels:
        lv = _Level(rs, k)
        label_idx = [lv.index_of(lab) for lab in labels]
        c = central_charge(rs, k)
        for (g, p), value in _cells(lv, genera, degrees, label_idx).items():
            if framing == "canonical" and p != 0:
                value *= cmath.exp(-2j * math.pi * c * (1 if p > 0 else -1) / 8)
            if include_centre_factor:
                value /= rs.centre_order
            values[g, p, k] = value
    return tuple(ScanCell(genus=g, degree=p, level=k, value=values[g, p, k],
                          modulus=abs(values[g, p, k]),
                          term_count=n_weights[k])
                 for g in genera for p in degrees for k in levels)
