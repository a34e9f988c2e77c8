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

Each box term takes dim Lambda as an integer Vandermonde ratio and
casimir(Lambda) as (M - M_rho)/(r+1) from the integer M = (r+1)|Lambda+rho|^2
of lie._form; int/int division rounds as float(casimir(...)) does.

Genus must be at least 2; the g < 2 sums diverge at eps = 0 and are
refused rather than regularised.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import BudgetExceededError, CertificationError, PreconditionError
from .lie import RootSystem, _form, _shifted_epsilon, _vandermonde
from .verlinde import VerlindeRequest, verlinde_dimension

DEFAULT_TOL = 1e-10
DEFAULT_MAX_TERMS = 2_000_000


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


def ym2_partition(req: YM2Request) -> YM2Result:
    """Certified evaluation of Z_g(eps)."""
    rs = req.rs
    if req.genus < 2:
        raise PreconditionError("genus must be >= 2, the sum diverges below that")
    if req.epsilon < 0:
        raise PreconditionError("epsilon must be >= 0")
    if not (req.target_tol > 0):
        raise PreconditionError("target_tol must be positive")
    m = 2 * req.genus - 2
    if rs.rank == 1 and req.epsilon == 0:
        return _rank1_flat(m, req.target_tol, req.max_terms)

    box = 16
    while _box_tail_bound(rs.rank, m, req.epsilon, box) > req.target_tol:
        box *= 2
        if (box + 1) ** rs.rank > req.max_terms:
            raise BudgetExceededError(
                "certifying tol %g needs a box of %d^%d dominant weights, "
                "budget %d; raise max_terms or relax target_tol"
                % (req.target_tol, box + 1, rs.rank, req.max_terms))
    r1 = rs.rank + 1
    e_rho = _shifted_epsilon((0,) * rs.rank)
    m_rho = _form(e_rho, e_rho)
    v_rho = _vandermonde(e_rho)
    parts = []
    for coords in itertools.product(range(box + 1), repeat=rs.rank):
        e = _shifted_epsilon(coords)
        dim = _vandermonde(e) // v_rho
        cas = (_form(e, e) - m_rho) / r1
        parts.append(dim ** (-m) * math.exp(-req.epsilon * cas / 2))
    value = math.fsum(parts)
    if value <= 0:
        raise CertificationError("partition sum must be positive")
    return YM2Result(value=value, tail_bound=_box_tail_bound(rs.rank, m, req.epsilon, box),
                     terms=len(parts), genus=req.genus, epsilon=req.epsilon)


@dataclass(frozen=True)
class EpsilonProfile:
    genus: int
    rows: tuple[tuple[float, float, float], ...]  # (eps, Z, tail_bound)
    flat_value: float


def ym2_epsilon_profile(rs: RootSystem, genus: int, epsilons,
                        target_tol: float = DEFAULT_TOL,
                        max_terms: int = DEFAULT_MAX_TERMS) -> EpsilonProfile:
    """Z_g on a list of couplings, checked against the flat limit.

    The deviation |Z(eps) - Z(0)| must shrink monotonically as eps
    decreases; a violation means the certificates were not honoured and
    is raised as an error.
    """
    eps_list = sorted(set(float(e) for e in epsilons))
    if any(e < 0 for e in eps_list):
        raise PreconditionError("epsilon must be >= 0")
    flat = ym2_partition(YM2Request(rs=rs, genus=genus, epsilon=0.0,
                                    target_tol=target_tol, max_terms=max_terms))
    rows = []
    for e in eps_list:
        if e == 0.0:
            rows.append((0.0, flat.value, flat.tail_bound))
            continue
        res = ym2_partition(YM2Request(rs=rs, genus=genus, epsilon=e,
                                       target_tol=target_tol,
                                       max_terms=max_terms))
        rows.append((e, res.value, res.tail_bound))
    devs = [(e, abs(z - flat.value)) for e, z, _ in rows if e > 0]
    for (e1, d1), (e2, d2) in zip(devs, devs[1:]):
        slack = 4 * target_tol
        if d2 + slack < d1:
            raise CertificationError(
                "deviation from the flat limit is not monotone: "
                "eps %g -> %g but eps %g -> %g" % (e1, d1, e2, d2))
    return EpsilonProfile(genus=genus, rows=tuple(rows), flat_value=flat.value)


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
