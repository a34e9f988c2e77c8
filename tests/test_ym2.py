"""Heat-kernel sums: zeta anchors, certified tails, coupling profiles."""

import math

import pytest

from seifertsum.errors import (
    BudgetExceededError,
    PreconditionError,
)
from seifertsum.ym2 import (
    YM2Request,
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
