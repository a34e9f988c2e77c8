"""Chern-Simons partition sums on Seifert fibrations over genus-g bases.

For the circle bundle of degree p over a genus-g surface, with n fibre
Wilson lines labelled by integrable weights, the localisation of the
path integral onto the weight lattice gives the finite sum

    Z = N * sum_lam (S[0,lam])^(2-2g-n) * prod_i S[label_i, lam]
            * exp(-i pi p <lam+rho, lam+rho> / kappa)

with kappa = k + dual Coxeter number and the sum over integrable lam at
level k. At p = 0 the phase collapses and the sum is exactly the
Verlinde sum: `verlinde.verlinde_sum` calls the same kernel with p = 0.
The phase is reduced exactly: (r+1)<lam+rho, lam+rho> is the integer
M = (r+1) sum e_i^2 - (sum e_i)^2 in the epsilon coordinates e of
lam+rho, so the exponent is -2 pi i (p M mod 2(r+1)kappa) / (2(r+1)kappa),
and Z(p) is periodic in p with period 2(r+1)kappa bit for bit.
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
from dataclasses import dataclass

from .errors import BudgetExceededError, PreconditionError
from .lie import RootSystem, Weight, _form, _shifted_epsilon
from .modular import ModularData, central_charge, integrable_weights, modular_data

DEFAULT_SCAN_BUDGET = 10_000_000

FRAMING_CONVENTIONS = ("bare", "canonical")


@dataclass(frozen=True)
class SeifertSpec:
    rs: RootSystem
    level: int
    genus: int
    degree: int
    labels: tuple[Weight, ...] = ()
    framing: str = "bare"
    include_centre_factor: bool = False


@dataclass(frozen=True)
class SeifertValue:
    value: complex
    modulus: float
    phase_convention: str
    term_count: int


def _lattice_sum(md: ModularData, genus: int, label_idx, degree: int) -> complex:
    """sum_lam S[0,lam]^(2-2g-n) prod_i S[label_i,lam] exp(-i pi p |lam+rho|^2/kappa).

    The phase is exact (see module docstring) and at p = 0 none is
    applied, so the terms are those of the Verlinde sum. Real and
    imaginary parts are each summed by math.fsum.
    """
    s0 = md.s[0].real
    power = 2 - 2 * genus - len(label_idx)
    order = 2 * (md.rs.rank + 1) * md.kappa
    re_parts, im_parts = [], []
    for j, lam in enumerate(md.weights):
        term = complex(s0[j]) ** power
        for i in label_idx:
            term *= md.s[i, j]
        if degree:
            e = _shifted_epsilon(lam.coords)
            term *= cmath.exp(-2j * math.pi * (degree * _form(e, e) % order) / order)
        re_parts.append(term.real)
        im_parts.append(term.imag)
    return complex(math.fsum(re_parts), math.fsum(im_parts))


def seifert_partition(spec: SeifertSpec) -> SeifertValue:
    if spec.level < 1:
        raise PreconditionError("level must be >= 1")
    if spec.genus < 0:
        raise PreconditionError("genus must be >= 0")
    if spec.framing not in FRAMING_CONVENTIONS:
        raise PreconditionError("unknown framing convention %r" % spec.framing)
    md = modular_data(spec.rs, spec.level)
    label_idx = [md.index_of(lab) for lab in spec.labels]
    value = _lattice_sum(md, spec.genus, label_idx, spec.degree)
    if spec.framing == "canonical" and spec.degree != 0:
        c = central_charge(spec.rs, spec.level)
        sign = 1 if spec.degree > 0 else -1
        value *= cmath.exp(-2j * math.pi * c * sign / 8)
    if spec.include_centre_factor:
        value /= spec.rs.centre_order
    return SeifertValue(value=value, modulus=abs(value),
                        phase_convention=spec.framing,
                        term_count=len(md.weights))


@dataclass(frozen=True)
class ScanCell:
    genus: int
    degree: int
    level: int
    value: complex
    modulus: float
    term_count: int


def seifert_scan(rs: RootSystem, genera, degrees, levels,
                 labels: tuple[Weight, ...] = (), framing: str = "bare",
                 include_centre_factor: bool = False,
                 budget: int = DEFAULT_SCAN_BUDGET) -> tuple[ScanCell, ...]:
    """Grid evaluation with an all-or-nothing term budget.

    The total number of lattice terms over all cells is counted before
    any cell is evaluated; exceeding the budget refuses the whole scan
    rather than returning truncated results.
    """
    genera = sorted(set(int(g) for g in genera))
    degrees = sorted(set(int(p) for p in degrees))
    levels = sorted(set(int(k) for k in levels))
    if any(g < 0 for g in genera):
        raise PreconditionError("genus must be >= 0")
    if any(k < 1 for k in levels):
        raise PreconditionError("level must be >= 1")
    counts = {k: len(integrable_weights(rs, k)) for k in levels}
    total = sum(counts[k] for k in levels) * len(genera) * len(degrees)
    if total > budget:
        raise BudgetExceededError(
            "scan needs %d lattice terms, budget is %d" % (total, budget))
    cells = []
    for g in genera:
        for p in degrees:
            for k in levels:
                spec = SeifertSpec(rs=rs, level=k, genus=g, degree=p, labels=labels,
                                   framing=framing,
                                   include_centre_factor=include_centre_factor)
                val = seifert_partition(spec)
                cells.append(ScanCell(genus=g, degree=p, level=k, value=val.value,
                                      modulus=val.modulus, term_count=val.term_count))
    return tuple(cells)
