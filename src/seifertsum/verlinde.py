"""Verlinde dimensions of conformal block spaces.

    V_g(k; labels) = sum_lam (S[0,lam])^(2-2g) prod_i S[label_i,lam]/S[0,lam]

over the integrable lam at level k. The result must land on a
nonnegative integer within 1e-6; anything farther is a hard error rather
than a silent rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import IntegralityError, PreconditionError
from .lie import RootSystem, Weight
from .modular import modular_data
from .seifert import _lattice_sum

INTEGRALITY_TOL = 1e-6
_PRECISION = "binary64"  # arithmetic of the lattice sum being rounded


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


def _round_integral(value: complex, context: str) -> int:
    nearest = round(value.real)
    residual = abs(value - nearest)
    if residual > INTEGRALITY_TOL:
        raise IntegralityError(
            "%s = %r is %.3g away from the nearest integer (threshold %g, %s)"
            % (context, value, residual, INTEGRALITY_TOL, _PRECISION),
            residual=residual, threshold=INTEGRALITY_TOL, precision=_PRECISION)
    if nearest < 0:
        raise IntegralityError("%s rounded to the negative integer %d"
                               % (context, nearest))
    return int(nearest)


def verlinde_sum(req: VerlindeRequest) -> complex:
    """The raw complex weight sum, before integrality enforcement: the
    degree-zero Seifert lattice sum."""
    if req.genus < 0:
        raise PreconditionError("genus must be >= 0")
    if req.level < 1:
        raise PreconditionError("level must be >= 1")
    md = modular_data(req.rs, req.level)
    label_idx = []
    for lab in req.labels:
        if not lab.is_dominant:
            raise PreconditionError("labels must be dominant")
        label_idx.append(md.index_of(lab))  # validates integrability
    return _lattice_sum(md, req.genus, label_idx, 0)


def verlinde_dimension(req: VerlindeRequest) -> int:
    value = verlinde_sum(req)
    return _round_integral(value, "Verlinde dimension")


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
