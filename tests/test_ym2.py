"""Heat-kernel sums: zeta anchors, certified tails, coupling profiles."""

import math
import tracemalloc

import numpy as np
import pytest

from oracles import ym2_box_terms
from seifertsum import ym2
from seifertsum.errors import (
    BudgetExceededError,
    CertificationError,
    PreconditionError,
)
from seifertsum.lie import _form, _shifted_epsilon, _vandermonde, build_root_system
from seifertsum.ym2 import (
    YM2Request,
    YM2Result,
    verlinde_ym2_crosscheck,
    ym2_epsilon_profile,
    ym2_partition,
)

ZETA = {2: math.pi**2 / 6, 4: math.pi**4 / 90, 6: math.pi**6 / 945}


def _run(rs, genus, eps, **kw):
    return ym2_partition(YM2Request(rs=rs, genus=genus, epsilon=eps, **kw))


@pytest.mark.parametrize("genus", [2, 3, 4])
def test_rank1_flat_values_are_zeta(genus, a1):
    res = _run(a1, genus, 0.0)
    exact = ZETA[2 * genus - 2]
    assert abs(res.value - exact) <= res.tail_bound
    assert abs(res.value - exact) < 1e-10


def test_rank1_coupled_sum_against_brute_force(a1):
    # dim n+1, quadratic invariant n(n+2)/2, so the summand over d = n+1
    # is d^-m exp(-eps (d^2-1)/4)
    for genus, eps in ((2, 0.5), (3, 0.05), (2, 1.0)):
        m = 2 * genus - 2
        brute = math.fsum(d ** (-m) * math.exp(-eps * (d * d - 1) / 4)
                          for d in range(1, 4001))
        res = _run(a1, genus, eps)
        assert abs(res.value - brute) <= res.tail_bound + 1e-12


def test_rank2_coupled_sum_against_brute_force(a2):
    eps, m = 0.5, 2
    parts = []
    for a in range(201):
        for b in range(201):
            dim = (a + 1) * (b + 1) * (a + b + 2) / 2
            cas = 2 * (a * a + a * b + b * b) / 3 + 2 * (a + b)
            parts.append(dim ** (-m) * math.exp(-eps * cas / 2))
    brute = math.fsum(parts)
    res = _run(a2, 2, eps)
    assert abs(res.value - brute) <= res.tail_bound + 1e-12


def test_rank2_flat_sum_against_brute_force(a2):
    # slow 1/dim^2 decay keeps certified flat tolerances modest at rank
    # 2; the brute tail at 400 sits near 1e-8, far below the certificate
    parts = []
    for a in range(401):
        for b in range(401):
            dim = (a + 1) * (b + 1) * (a + b + 2) / 2
            parts.append(dim ** (-2))
    brute = math.fsum(parts)
    res = _run(a2, 2, 0.0, target_tol=1e-5)
    assert abs(res.value - brute) <= res.tail_bound + 1e-7


def test_rank2_flat_sum_is_pinned(a2):
    # the integer box sum must reproduce these bits exactly; the
    # Mordell-Tornheim value 4 T(2,2,2) = 4 pi^6 / 2835 lies inside the bound
    res = _run(a2, 2, 0.0, target_tol=1e-6)
    assert repr(res.value) == "1.356457164470393"
    assert res.terms == 66049
    assert abs(res.value - 4 * math.pi**6 / 2835) <= res.tail_bound


# boxes of 4501, 4489, 4913, 6561, 3125 and 729 points: none a multiple
# of the 4096-point block, so every partial last block is exercised
@pytest.mark.parametrize("rank, box", [(1, 4500), (2, 66), (3, 16), (4, 8), (5, 4), (6, 2)])
def test_box_kernel_matches_the_scalar_loop_bit_for_bit(rank, box):
    assert (box + 1) ** rank % ym2._BLOCK
    for m in (2, 4):
        for eps in (0.0, 0.05, 0.5, 2.0):
            blocks = list(ym2._box_terms(rank, box, m, eps))
            assert all(len(b) <= ym2._BLOCK for b in blocks)
            terms = [t for b in blocks for t in b]
            assert terms == ym2_box_terms(rank, box, m, eps), (m, eps)


def test_box_invariants_stay_exact_past_int64():
    # A5 at box 16 reaches V near 1e23, so the kernel works on Python ints
    rank, box = 5, 16
    points = [(16, 16, 16, 16, 16), (16, 0, 16, 0, 16), (0, 16, 16, 16, 0),
              (1, 2, 3, 4, 16), (0, 0, 0, 0, 0)]
    flat = np.array([sum(c * (box + 1) ** (rank - 1 - j) for j, c in enumerate(p))
                     for p in points])
    dims, cas = ym2._box_invariants(rank, box, flat)
    e_rho = _shifted_epsilon((0,) * rank)
    assert _vandermonde(_shifted_epsilon(points[0])) > 2 ** 63
    for p, d, c in zip(points, dims, cas):
        e = _shifted_epsilon(p)
        assert type(d) is int and type(c) is int
        assert d == _vandermonde(e) // _vandermonde(e_rho)
        assert c == _form(e, e) - _form(e_rho, e_rho)


def test_box_norms_stay_exact_past_int64_on_their_own():
    # at rank 1 the norm M = e_1^2 passes 2^63 long before V = e_1 does
    box = 2 ** 40
    dims, cas = ym2._box_invariants(1, box, np.array([0, box - 1, box]))
    assert dims == [1, box, box + 1]
    assert cas == [0, box ** 2 - 1, (box + 1) ** 2 - 1]
    assert all(type(c) is int for c in dims + cas) and cas[-1] > 2 ** 63


def test_box_sum_stays_within_a_block_of_memory(a2):
    # a list holding all 66049 terms at once peaks at about 2.1 MB
    _run(a2, 2, 0.0, target_tol=1e-3)
    tracemalloc.start()
    try:
        _run(a2, 2, 0.0, target_tol=1e-6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2e6


def test_profile_is_decreasing_and_convex(a1):
    grid = (0.0, 0.001, 0.01, 0.1, 1.0)
    prof = ym2_epsilon_profile(a1, 2, grid)
    zs = [z for _, z, _ in prof.rows]
    assert all(b < a for a, b in zip(zs, zs[1:]))
    slopes = [(zs[i + 1] - zs[i]) / (grid[i + 1] - grid[i])
              for i in range(len(grid) - 1)]
    assert all(s2 > s1 for s1, s2 in zip(slopes, slopes[1:]))
    assert prof.flat_value == zs[0]


def test_profile_rows_are_certified(a2):
    prof = ym2_epsilon_profile(a2, 2, (0.0, 0.5, 2.0), target_tol=1e-5)
    for _, _, bound in prof.rows:
        assert bound <= 1e-5


def test_profile_sums_only_the_requested_couplings(a2, monkeypatch):
    seen = []

    def spy(req):
        seen.append(req.epsilon)
        return ym2_partition(req)

    monkeypatch.setattr(ym2, "ym2_partition", spy)
    prof = ym2_epsilon_profile(a2, 2, (2.0, 0.5), target_tol=1e-5)
    assert seen == [0.5, 2.0]
    assert prof.flat_value is None
    assert [e for e, _, _ in prof.rows] == [0.5, 2.0]


def test_profile_refuses_a_rising_z(a1, monkeypatch):
    def rising(req):
        return YM2Result(value=1.0 + req.epsilon, tail_bound=0.0, terms=1,
                         genus=req.genus, epsilon=req.epsilon)

    monkeypatch.setattr(ym2, "ym2_partition", rising)
    with pytest.raises(CertificationError) as info:
        ym2_epsilon_profile(a1, 2, (0.25, 0.5))
    msg = str(info.value)
    for text in ("eps 0.25", "Z = 1.25", "eps 0.5", "Z = 1.5"):
        assert text in msg


def test_growth_ratio_against_block_dimensions(a1):
    rep = verlinde_ym2_crosscheck(a1, 2, (20, 40, 80, 160, 320))
    assert rep.converged
    assert rep.last_gap < rep.first_gap
    # kappa^3/6 growth divided by zeta(2) lands on 1/pi^2
    assert abs(rep.fitted_constant - 1 / math.pi**2) < 5e-3


def test_budget_errors_are_loud(a1, a2):
    with pytest.raises(BudgetExceededError):
        _run(a1, 2, 0.0, max_terms=10)
    with pytest.raises(BudgetExceededError):
        _run(a2, 2, 0.0, target_tol=1e-10, max_terms=100)


def test_first_box_is_checked_against_the_budget(a2):
    # the first box, 17^2 = 289 weights, already exceeds this budget
    with pytest.raises(BudgetExceededError):
        _run(a2, 3, 1.0, target_tol=1e-3, max_terms=100)
    # 17^6 = 24.1M weights against the default 2M budget
    with pytest.raises(BudgetExceededError):
        _run(build_root_system("A", 6), 3, 1.0)


def test_preconditions(a1):
    with pytest.raises(PreconditionError):
        _run(a1, 1, 0.0)
    with pytest.raises(PreconditionError):
        _run(a1, 2, -0.5)
    with pytest.raises(PreconditionError):
        _run(a1, 2, 0.0, target_tol=0.0)
    with pytest.raises(PreconditionError):
        ym2_epsilon_profile(a1, 2, (-1.0, 0.0))
    with pytest.raises(PreconditionError):
        verlinde_ym2_crosscheck(a1, 2, (5, 10))
    with pytest.raises(PreconditionError):
        verlinde_ym2_crosscheck(a1, 1, (5, 10, 20, 40))


def test_result_metadata(a1):
    res = _run(a1, 3, 0.0)
    assert res.genus == 3 and res.epsilon == 0.0
    assert res.terms >= 64


@pytest.mark.parametrize("eps", [math.inf, math.nan])
def test_non_finite_epsilon_is_refused(a2, eps):
    # inf used to sum to nan, which passed the positivity check
    with pytest.raises(PreconditionError, match="epsilon must be a finite number"):
        _run(a2, 2, eps, target_tol=1e-3)
    with pytest.raises(PreconditionError, match="epsilon must be a finite number"):
        ym2_epsilon_profile(a2, 2, [0.5, eps], target_tol=1e-3)


def test_a_nan_sum_fails_the_positivity_check(a2, monkeypatch):
    monkeypatch.setattr(ym2, "_box_terms", lambda *args: [[math.nan]])
    with pytest.raises(CertificationError, match="must be positive, got nan"):
        _run(a2, 2, 1.0, target_tol=1e-3)
