"""Heat-kernel partition sums of two dimensional Yang-Mills theory.

    Z_g(eps) = sum over dominant Lambda of (dim Lambda)^(2-2g)
               * exp(-eps * casimir(Lambda) / 2)

The sum runs over the full dominant cone, so every evaluation carries a
certified truncation bound:

* rank 1, eps = 0: the tail of sum n^-(2g-2) is replaced by the midpoint
  integral int_{N+1/2}^inf x^-m dx, whose error is bounded by
  m N^-(m+1)/24 (second-derivative midpoint estimate). This is what lets
  the zeta anchors hit 1e-10 with a few thousand terms.
* otherwise: dominant weights are enumerated in the box max coord <= L
  and the tail is bounded by dim(Lambda) >= prod(coord_i + 1), the
  full-chain factor dim >= prod * (|Lambda| + r)/r for rank >= 2, and
  <Lambda, Lambda> >= L^2/4 outside the box (smallest eigenvalue of the
  inverse Cartan matrix exceeds 1/4 in the A series), giving

      tail <= r 2^(r-1) (L+1)^(1-m)/(m-1)
              * (r/(L+1+r))^(m [rank>=2])
              * exp(-eps L^2 / 8).

The box is summed by _box_terms in blocks of at most _BLOCK points, taken
in itertools.product order (last coordinate fastest). Each block turns
flat indices into the rows Lambda+rho, takes their epsilon coordinates e
and M = (r+1)|Lambda+rho|^2 from lie._epsilon_norms (as modular's levels
do), so casimir(Lambda) = (M - M_rho)/(r+1), and multiplies out
V = prod_{i<j} (e_i - e_j) in place, so dim Lambda = V // V(rho). Each
of V and M is int64 when its largest value in the box, (L+1)^(r(r+1)/2) V(rho)
for V, is below 2^63, and exact Python ints (dtype=object) otherwise;
A5 at L = 16 has V near 1e23, while M stays small.
The two floating point steps, dim^-m and exp(-eps casimir/2), stay scalar
libm calls on the .tolist() values: numpy's vectorised pow and exp are
not guaranteed to round as libm does, and scalar calls keep every term
bit-identical to the per-weight formula. math.fsum rounds the sum
correctly, so Z does not depend on the order of the terms either. The
term budget is checked on every box, the first one included, before
any term is summed.

Genus must be at least 2; the g < 2 sums diverge at eps = 0 and are
refused rather than regularised.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, CertificationError, PreconditionError
from .lie import RootSystem, _epsilon_norms, _form, _shifted_epsilon, _vandermonde

DEFAULT_TOL = 1e-10
DEFAULT_MAX_TERMS = 2_000_000
_BLOCK = 4096  # box points per _box_terms block; larger blocks cost memory, not time


@dataclass(frozen=True)
class YM2Request:
    rs: RootSystem
    genus: int
    epsilon: float
    target_tol: float = DEFAULT_TOL
    max_terms: int = DEFAULT_MAX_TERMS


@dataclass(frozen=True)
class YM2Result:
    value: float
    tail_bound: float
    terms: int
    genus: int
    epsilon: float


def _rank1_flat(m: int, tol: float, max_terms: int) -> YM2Result:
    # direct zeta partial sum plus midpoint tail integral
    n_cut = max(64, math.ceil((m / (24 * tol)) ** (1 / (m + 1))))
    if n_cut > max_terms:
        raise BudgetExceededError(
            "rank-1 flat sum needs %d terms, budget %d" % (n_cut, max_terms))
    partial = math.fsum(n ** (-m) for n in range(1, n_cut + 1))
    tail = (n_cut + 0.5) ** (1 - m) / (m - 1)
    cert = m * n_cut ** (-(m + 1)) / 24
    return YM2Result(value=partial + tail, tail_bound=cert, terms=n_cut,
                     genus=(m + 2) // 2, epsilon=0.0)


def _box_tail_bound(rank: int, m: int, eps: float, box: int) -> float:
    geom = rank * 2.0 ** (rank - 1) * (box + 1.0) ** (1 - m) / (m - 1)
    if rank >= 2:
        # the product over simple coordinates misses the full-chain factor
        geom *= (rank / (box + 1.0 + rank)) ** m
    return geom * math.exp(-eps * box * box / 8)


def _box_invariants(rank: int, box: int, flat: np.ndarray) -> tuple[list[int], list[int]]:
    """dim Lambda and (r+1) casimir(Lambda), as lists of ints, for the
    points of the box 0..box at the itertools.product indices `flat`."""
    r1 = rank + 1
    side = box + 1
    e_rho = _shifted_epsilon((0,) * rank)
    v_rho = _vandermonde(e_rho)
    strides = np.array([side ** k for k in range(rank - 1, -1, -1)])
    lam = flat[:, None] // strides % side + 1  # coordinates of Lambda+rho
    # e_i <= e_1 <= rank * side bounds (r+1) sum e^2 and (sum e)^2, and the
    # largest V in the box is side^(r(r+1)/2) V(rho)
    e, m = _epsilon_norms(lam if (r1 * rank * side) ** 2 < 2 ** 63 else lam.astype(object))
    e = e.astype(np.int64 if side ** (rank * r1 // 2) * v_rho < 2 ** 63 else object, copy=False)
    v = np.ones(len(flat), dtype=e.dtype)
    for i in range(rank):
        for j in range(i + 1, r1):
            v *= e[:, i] - e[:, j]
    return (v // v_rho).tolist(), (m - _form(e_rho, e_rho)).tolist()


def _box_terms(rank: int, box: int, m: int, eps: float):
    """Yield the terms dim^-m exp(-eps casimir/2) of the dominant weights
    with coordinates in 0..box, in lists of at most _BLOCK terms."""
    r1 = rank + 1
    total = (box + 1) ** rank
    for start in range(0, total, _BLOCK):
        dims, cas = _box_invariants(rank, box, np.arange(start, min(start + _BLOCK, total)))
        yield [d ** (-m) * math.exp(-eps * (c / r1) / 2) for d, c in zip(dims, cas)]


def ym2_partition(req: YM2Request) -> YM2Result:
    """Certified evaluation of Z_g(eps)."""
    rs = req.rs
    if req.genus < 2:
        raise PreconditionError("genus must be >= 2, the sum diverges below that")
    if not 0 <= req.epsilon < math.inf:  # also refuses nan
        raise PreconditionError("epsilon must be a finite number >= 0")
    if not (req.target_tol > 0):
        raise PreconditionError("target_tol must be positive")
    m = 2 * req.genus - 2
    if rs.rank == 1 and req.epsilon == 0:
        return _rank1_flat(m, req.target_tol, req.max_terms)

    box = 16
    while True:
        if (box + 1) ** rs.rank > req.max_terms:
            raise BudgetExceededError(
                "certifying tol %g needs a box of at least %d^%d dominant "
                "weights, budget %d; raise max_terms or relax target_tol"
                % (req.target_tol, box + 1, rs.rank, req.max_terms))
        if _box_tail_bound(rs.rank, m, req.epsilon, box) <= req.target_tol:
            break
        box *= 2
    value = math.fsum(itertools.chain.from_iterable(
        _box_terms(rs.rank, box, m, req.epsilon)))
    if not value > 0:  # also catches nan
        raise CertificationError("partition sum must be positive, got %r" % (value,))
    return YM2Result(value=value, tail_bound=_box_tail_bound(rs.rank, m, req.epsilon, box),
                     terms=(box + 1) ** rs.rank, genus=req.genus, epsilon=req.epsilon)


@dataclass(frozen=True)
class EpsilonProfile:
    genus: int
    rows: tuple[tuple[float, float, float], ...]  # (eps, Z, tail_bound)
    flat_value: float | None  # Z(0), None when eps = 0 was not requested


def ym2_epsilon_profile(rs: RootSystem, genus: int, epsilons,
                        target_tol: float = DEFAULT_TOL,
                        max_terms: int = DEFAULT_MAX_TERMS) -> EpsilonProfile:
    """Z_g on a list of couplings, checked for monotonicity.

    Every term falls as eps grows, so Z(eps2) <= Z(eps1) + 4 target_tol
    must hold for eps1 < eps2 over the requested rows. As Z(0) >= Z(eps)
    term by term, this is the deviation |Z(eps) - Z(0)| growing with eps,
    checked without summing Z(0). A violation means the certificates
    were not honoured and is raised as an error. The flat limit is summed
    only when eps = 0 is requested.
    """
    eps_list = sorted(set(float(e) + 0.0 for e in epsilons))  # -0.0 -> 0.0
    if any(e < 0 for e in eps_list):
        raise PreconditionError("epsilon must be >= 0")
    rows = []
    for e in eps_list:
        res = ym2_partition(YM2Request(rs=rs, genus=genus, epsilon=e,
                                       target_tol=target_tol,
                                       max_terms=max_terms))
        rows.append((e, res.value, res.tail_bound))
    slack = 4 * target_tol
    for (e1, z1, _), (e2, z2, _) in zip(rows, rows[1:]):
        if z2 > z1 + slack:
            raise CertificationError(
                "Z is not monotone in the coupling: eps %g gives Z = %r but "
                "eps %g gives Z = %r, more than %g above it"
                % (e1, z1, e2, z2, slack))
    flat = rows[0][1] if rows and rows[0][0] == 0.0 else None
    return EpsilonProfile(genus=genus, rows=tuple(rows), flat_value=flat)


@dataclass(frozen=True)
class CrosscheckReport:
    genus: int
    levels: tuple[int, ...]
    scaled: tuple[float, ...]
    flat_value: float
    fitted_constant: float
    first_gap: float
    last_gap: float
    converged: bool


def verlinde_ym2_crosscheck(rs: RootSystem, genus: int, levels) -> CrosscheckReport:
    """Ratio convergence between scaled Verlinde growth and Z_g(0).

    The Verlinde dimension grows like kappa^D with D = (g-1) dim(g);
    the sequence V_g(k) kappa^-D / Z_g(0) must be Cauchy-decreasing in
    its increments. Only the trend is asserted, never an absolute
    constant, since the limiting normalisation is convention bound.
    """
    from .verlinde import VerlindeRequest, verlinde_dimension

    ks = sorted(set(int(k) for k in levels))
    if len(ks) < 4:
        raise PreconditionError("need at least 4 increasing levels")
    if genus < 2:
        raise PreconditionError("genus must be >= 2")
    d_exp = (genus - 1) * rs.dimension
    flat = ym2_partition(YM2Request(rs=rs, genus=genus, epsilon=0.0))
    scaled = []
    for k in ks:
        v = verlinde_dimension(VerlindeRequest(rs=rs, level=k, genus=genus))
        kappa = k + rs.dual_coxeter
        scaled.append(v / kappa ** d_exp / flat.value)
    first_gap = abs(scaled[1] - scaled[0])
    last_gap = abs(scaled[-1] - scaled[-2])
    converged = last_gap < first_gap
    return CrosscheckReport(genus=genus, levels=tuple(ks), scaled=tuple(scaled),
                            flat_value=flat.value, fitted_constant=scaled[-1],
                            first_gap=first_gap, last_gap=last_gap,
                            converged=converged)
