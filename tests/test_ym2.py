"""Heat-kernel sums: zeta anchors, certified tails, coupling profiles."""

import csv
import io
import itertools
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from oracles import ym2_box_terms, ym2_reference
import seifertsum
from seifertsum import ym2
from seifertsum.errors import (
    BudgetExceededError,
    CertificationError,
    PreconditionError,
)
from seifertsum.lie import _form, _shifted_epsilon, _vandermonde, build_root_system
from seifertsum.quasipoly import pairing_report
from seifertsum.verlinde import _leading_coefficient
from seifertsum.ym2 import (
    DEFAULT_TOL,
    YM2Result,
    ym2_epsilon_profile,
    ym2_partition,
)

ZETA = {2: 6, 4: 90, 6: 945}  # zeta(m) = pi^m / ZETA[m]


def _run(rs, genus, eps, **kw):
    return ym2_partition(rs, genus, eps, **kw)


@pytest.mark.parametrize("genus", [2, 3, 4])
def test_rank1_flat_values_are_zeta(genus, a1):
    # at 40 digits: the binary64 pi^4/90 and pi^6/945 are an ulp off, outside
    # the closed form's bound of about half an ulp
    res = _run(a1, genus, 0.0)
    m = 2 * genus - 2
    with mpmath.workdps(40):
        assert _encloses(res, mpmath.nstr(mpmath.pi ** m / ZETA[m], 35))
    assert res.tail_bound < 1e-10


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
    # the Mordell-Tornheim value 4 T(2,2,2) = 4 pi^6 / 2835 in closed form,
    # rounded once: no terms summed, and a bound of one rounding
    res = _run(a2, 2, 0.0, target_tol=1e-6)
    assert repr(res.value) == "1.3564574159792655"
    assert res.terms == 1
    with mpmath.workdps(40):
        gap = abs(mpmath.mpf(res.value) - 4 * mpmath.pi ** 6 / 2835)
    assert gap <= res.tail_bound <= 2.0 ** -52 * res.value


# boxes of 4501, 4489, 4913, 6561, 3125 and 729 points: none a multiple
# of the 4096-point block, so every partial last block is exercised
@pytest.mark.parametrize("rank, box", [(1, 4500), (2, 66), (3, 16), (4, 8), (5, 4), (6, 2)])
def test_box_kernel_matches_the_scalar_loop_bit_for_bit(rank, box):
    assert (box + 1) ** rank % ym2._BLOCK
    for m in (2, 4):
        for eps in (0.0, 0.05, 0.5, 2.0):
            blocks = [b for b, _ in ym2._cone_terms(rank, m, eps, box=box)]
            assert all(len(b) <= ym2._BLOCK for b in blocks)
            terms = [t for b in blocks for t in b]
            assert terms == ym2_box_terms(rank, box, m, eps), (m, eps)


def test_box_invariants_stay_exact_past_int64():
    # A5 at box 16 reaches V near 1e23: the enumerator keeps exact ints
    rank, box = 5, 16
    points = [(16, 16, 16, 16, 16), (16, 0, 16, 0, 16), (0, 16, 16, 16, 0),
              (1, 2, 3, 4, 16), (0, 0, 0, 0, 0)]
    lines = {p[:-1] for p in points}
    seen = {}
    segments = ym2._cone_invariants(rank, box=box)
    for prefix in itertools.product(range(box + 1), repeat=rank - 1):
        dims, cas = next(segments)  # one segment per line of 17 points
        if prefix in lines:
            for c, (d, k) in enumerate(zip(dims, cas)):
                seen[prefix + (c,)] = d, k
    assert next(segments, None) is None
    e_rho = _shifted_epsilon((0,) * rank)
    assert _vandermonde(_shifted_epsilon(points[0])) > 2 ** 63
    for p in points:
        e = _shifted_epsilon(p)
        d, k = seen[p]
        assert type(d) is int and type(k) is int
        assert d == _vandermonde(e) // _vandermonde(e_rho)
        assert k == _form(e, e) - _form(e_rho, e_rho)


def test_box_norms_stay_exact_past_int64_on_their_own():
    # at rank 1 the norm (r+1) casimir = (v+1)^2 - 1 passes 2^63 long before
    # dim = v + 1 does; the shell stops on it by an integer square root
    box = 2 ** 40
    cap = (box + 1) ** 2 - 1
    assert cap > 2 ** 80
    (line,) = ym2._cone_lines(1, box=box)
    assert line == ([], 1, 0, 2, box + 1)
    assert list(ym2._cone_lines(1, cap=cap)) == [line]
    assert list(ym2._cone_lines(1, cap=cap - 1)) == [([], 1, 0, 2, box)]
    a, b = line[2:4]
    assert [a + v * (b + v) for v in (0, box - 1, box)] == [0, box ** 2 - 1, cap]
    dims, cas = next(ym2._cone_invariants(1, cap=cap))
    dims, cas = list(dims), list(cas)
    assert dims == list(range(1, ym2._BLOCK + 1))
    assert cas == [d * d - 1 for d in dims]
    assert all(type(c) is int for c in dims + cas)


def test_box_sum_stays_within_a_block_of_memory(a2):
    # the Casimir shell, not the 257^2 box, wins here: a list holding all its
    # 36237 terms and their shares at once would peak near 2.3 MB
    _run(a2, 2, 0.5, target_tol=1e-3)
    tracemalloc.start()
    try:
        assert _run(a2, 2, 0.001, target_tol=1e-8).terms == 36237
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

    def spy(rs, genus, epsilon, *args):
        seen.append(epsilon)
        return ym2_partition(rs, genus, epsilon, *args)

    monkeypatch.setattr(ym2, "ym2_partition", spy)
    prof = ym2_epsilon_profile(a2, 2, (2.0, 0.5), target_tol=1e-5)
    assert seen == [0.5, 2.0]
    assert prof.flat_value is None
    assert [e for e, _, _ in prof.rows] == [0.5, 2.0]


def test_profile_refuses_a_rising_z(a1, monkeypatch):
    def rising(rs, genus, epsilon, *args):
        return YM2Result(value=1.0 + epsilon, tail_bound=0.0, terms=1,
                         genus=genus, epsilon=epsilon)

    monkeypatch.setattr(ym2, "ym2_partition", rising)
    with pytest.raises(CertificationError) as info:
        ym2_epsilon_profile(a1, 2, (0.25, 0.5))
    msg = str(info.value)
    for text in ("eps 0.25", "Z = 1.25", "eps 0.5", "Z = 1.5"):
        assert text in msg


def test_budget_errors_are_loud(a1, a2, monkeypatch):
    # a flat sum at rank <= 2 is a closed form with nothing to budget; a
    # rank-1 box and the flat A4 g3 cube have, and are refused before any term
    def no_sum(*args, **kwargs):
        raise AssertionError("summed past the budget")

    monkeypatch.setattr(ym2, "_cone_terms", no_sum)
    assert ym2.MAX_TERMS == 2_000_000
    assert _run(a2, 2, 0.0).terms == 1
    with pytest.raises(BudgetExceededError, match=r"box of at least 2097153\^1 dominant weights"):
        _run(a1, 2, 1e-12)
    with pytest.raises(BudgetExceededError, match=r"box of at least 65\^4 dominant weights, "
                       r"budget 2000000"):
        _run(build_root_system("A", 4), 3, 0.0)


def test_first_box_is_checked_against_the_budget(monkeypatch):
    def no_sum(*args, **kwargs):
        raise AssertionError("summed past the budget")

    monkeypatch.setattr(ym2, "_cone_terms", no_sum)
    # the first box, 17^r weights (24.1M and 410M), and the shell both
    # exceed the budget
    for rank, genus, eps in ((6, 3, 0.02), (7, 2, 0.05)):
        with pytest.raises(BudgetExceededError, match=r"17\^%d dominant weights or a Casimir "
                           r"shell of more than 2000000, budget 2000000" % rank):
            _run(build_root_system("A", rank), genus, eps)


def test_preconditions(a1):
    with pytest.raises(PreconditionError):
        _run(a1, 1, 0.0)
    with pytest.raises(PreconditionError):
        _run(a1, 2, -0.5)
    with pytest.raises(PreconditionError):
        _run(a1, 2, 0.0, target_tol=0.0)
    with pytest.raises(PreconditionError):
        ym2_epsilon_profile(a1, 2, (-1.0, 0.0))


def test_result_metadata(a1):
    res = _run(a1, 3, 0.0)
    assert res.genus == 3 and res.epsilon == 0.0
    assert res.terms == 1  # rank 1 has the single empty outer point


@pytest.mark.parametrize("eps", [math.inf, math.nan])
def test_non_finite_epsilon_is_refused(a2, eps):
    # inf used to sum to nan, which passed the positivity check
    with pytest.raises(PreconditionError, match="epsilon must be a finite number"):
        _run(a2, 2, eps, target_tol=1e-3)
    with pytest.raises(PreconditionError, match="epsilon must be a finite number"):
        ym2_epsilon_profile(a2, 2, [0.5, eps], target_tol=1e-3)


@pytest.mark.parametrize("tol", [math.inf, math.nan])
def test_non_finite_tol_is_refused(a2, tol, monkeypatch):
    # tol inf once passed one outer point off as Z(0) = 1.1594725347858112, bound 2.19
    def no_sum(*args):
        raise AssertionError("summed for target_tol %r" % tol)

    monkeypatch.setattr(ym2, "_cone_terms", no_sum)
    monkeypatch.setattr(ym2, "_flat_sum", no_sum)
    for eps in (0.0, 0.5):
        with pytest.raises(PreconditionError, match="target_tol must be a positive finite"):
            _run(a2, 2, eps, target_tol=tol)


def test_a_nan_sum_fails_the_positivity_check(a2, monkeypatch):
    monkeypatch.setattr(ym2, "_cone_terms", lambda *args, **kwargs: [([math.nan], 0.0)])
    with pytest.raises(CertificationError, match="must be positive, got nan"):
        _run(a2, 2, 1.0, target_tol=1e-3)


# Z_g(0) for A2 is 2^m T(m, m, m), m = 2g - 2, with Mordell's closed form
# for even s, T(s,s,s) = (4/3) sum_{j<=s/2} C(2s-2j-1, s-1) zeta(2j) zeta(3s-2j),
# evaluated with mpmath at 40 digits. It gives 4 pi^6/2835 at g = 2 and
# Witten's 19/41513472000 at g = 3, and meets the box sums at g >= 6.
A2_FLAT = {
    2: "1.356457415979265519619357", 3: "1.026784212342228425846359",
    4: "1.002792560547090033501768", 5: "1.000306103576229548823690",
    6: "1.000033904390383976005603", 7: "1.000003764288216721511605",
    8: "1.000000418176085638854255", 9: "1.000000046461858944992037",
    10: "1.000000005162369333741096",
}


def _encloses(res, reference) -> bool:
    return abs(Fraction(res.value) - Fraction(reference)) <= Fraction(res.tail_bound)


def _flat_q(rs, genus):
    """q = Z / pi^(m |Delta+|) at eps = 0 from the Verlinde polynomial's leading
    coefficient, by Witten's volume formula."""
    m = 2 * genus - 2
    v_rho = _vandermonde(_shifted_epsilon((0,) * rs.rank))
    return _leading_coefficient(rs, genus) * Fraction(
        v_rho ** m * 2 ** (m * len(rs.positive_roots)), (rs.rank + 1) ** genus)


def _q_pi(q, e):
    """q pi^e to 35 digits."""
    with mpmath.workdps(40):
        return mpmath.nstr(mpmath.mpf(q.numerator) / q.denominator * mpmath.pi ** e, 35)


@pytest.mark.parametrize("rank, genus", [(1, 2), (2, 2), (2, 3)])
def test_verlinde_polynomial_gives_the_closed_form(rank, genus):
    assert _flat_q(build_root_system("A", rank), genus) == ym2._flat_rational(rank, 2 * genus - 2)


# the outer sum that summed these before printed Z = 1.1985582628797393 with
# bound 5.03e-11 at A3, and 1.1174328756238634 with bound 6.67e-11 at A4
@pytest.mark.parametrize("rank, q, outer, outer_bound", [
    (3, Fraction(92, 70945875), 1.1985582628797393, 5.03e-11),
    (4, Fraction(1024, 8036666859375), 1.1174328756238634, 6.67e-11)], ids=["A3", "A4"])
def test_genus_two_flat_sum_reads_q_off_the_verlinde_polynomial(rank, q, outer, outer_bound):
    rs = build_root_system("A", rank)
    assert _flat_q(rs, 2) == q
    res = _run(rs, 2, 0.0)
    assert _encloses(res, _q_pi(q, 2 * len(rs.positive_roots)))
    assert res.tail_bound <= 2.0 ** -51 * res.value
    assert abs(res.value - outer) <= outer_bound


def test_a5_genus_two_flat_sum_is_summed():
    # refused before on 40^4 outer points; levels 1 .. 36 of A5 now give q
    res = _run(build_root_system("A", 5), 2, 0.0)
    q = Fraction(6096289792, 4659159510015705904584375)
    assert _encloses(res, _q_pi(q, 30))
    assert res.tail_bound <= 2.0 ** -51 * res.value


@pytest.mark.parametrize("genus", [2, 3, 4, 5, 6])
def test_rank1_flat_bound_encloses_zeta_from_bernoulli_numbers(a1, genus):
    n = genus - 1  # zeta(2n) = |B_2n| (2 pi)^2n / (2 (2n)!)
    with mpmath.workdps(40):
        exact = mpmath.nstr(abs(mpmath.bernoulli(2 * n)) * (2 * mpmath.pi) ** (2 * n)
                            / (2 * mpmath.factorial(2 * n)), 35)
    res = _run(a1, genus, 0.0)
    assert res.tail_bound <= DEFAULT_TOL
    assert _encloses(res, exact)


@pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-12])
@pytest.mark.parametrize("genus", range(2, 11))
def test_rank2_flat_bound_encloses_the_reference(a2, genus, tol):
    res = _run(a2, genus, 0.0, target_tol=tol)
    assert res.tail_bound <= tol
    assert _encloses(res, A2_FLAT[genus])


def test_flat_sum_falls_back_to_the_box_where_rounding_needs_it(a3, monkeypatch):
    boxes = []
    cone_terms = ym2._cone_terms
    monkeypatch.setattr(ym2, "_cone_terms", lambda *args, **kwargs: boxes.append(
        (args, kwargs)) or cone_terms(*args, **kwargs))
    # g = 2 reads q off the Verlinde levels 1 .. 16, C(20, 4) - 1 weights in all
    assert _run(a3, 2, 0.0).terms == math.comb(20, 4) - 1 and boxes == []
    # from g = 3 the flat sum takes the 65^3 box, which encloses q pi^e with
    # q from the Verlinde polynomial
    assert ym2._flat_sum(a3, 4) is None
    res = _run(a3, 3, 0.0)
    assert boxes == [((3, 4, 0.0), {"box": 64})] and res.terms == 65 ** 3
    assert res.tail_bound <= DEFAULT_TOL
    q = _flat_q(a3, 3)
    with mpmath.workdps(40):
        assert _encloses(res, mpmath.nstr(mpmath.mpf(q.numerator) / q.denominator
                                          * mpmath.pi ** 24, 35))


def test_box_bound_covers_rounding_at_every_coupling(a1):
    # this row once printed a tail bound of 8.9e-25 for Z = 1.41, far below
    # one ulp of Z: the rounding is now bounded at every eps, and the bound
    # encloses the series at the binary64 coupling, summed at 40 digits; at
    # g = 10 the 17-point box wins over the 30-point shell, and its tail is
    # far below its rounding
    for genus, terms, most in ((2, 31, DEFAULT_TOL), (10, 17, 1e-14)):
        m = 2 * genus - 2
        res = _run(a1, genus, 0.1)
        assert res.terms == terms
        assert 2.0 ** -53 * res.value <= res.tail_bound <= most
        with mpmath.workdps(40):
            eps = mpmath.mpf(0.1)
            series = mpmath.fsum(mpmath.mpf(n) ** -m * mpmath.exp(-eps * (n * n - 1) / 4)
                                 for n in range(1, 400))
            assert _encloses(res, mpmath.nstr(series, 35))


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
@pytest.mark.parametrize("genus", [2, 3])
def test_shell_bound_encloses_the_reference(rank, genus):
    # the reference sums a larger shell at 40 digits, whose own tail T is a
    # thousandth of tol, so Z lies in [P, P + T]
    eps = random.Random(100 * rank + genus).uniform(0.05, 2.0)
    tol, m = 1e-6, 2 * genus - 2
    res = _run(build_root_system("A", rank), genus, eps, target_tol=tol)
    cube = 17 ** rank  # the smallest box the sum may take
    assert res.terms < cube and res.tail_bound <= tol
    with mpmath.workdps(40):
        cut = 2 * (rank * mpmath.log(mpmath.zeta(m)) - mpmath.log(tol / 2000)) / eps
        low, tail = ym2_reference(rank, m, eps, float(cut))
        assert tail <= tol / 1000
        value, bound = mpmath.mpf(res.value), mpmath.mpf(res.tail_bound)
        assert value - bound <= low and low + tail <= value + bound


def test_a_tol_below_the_rounding_bound_is_refused(a1, a2):
    with pytest.raises(CertificationError, match="tol 1e-16 is below the bound"):
        _run(a2, 10, 0.0, target_tol=1e-16)
    # at eps > 0 too: the box's tail meets 1e-16, its rounding does not
    with pytest.raises(CertificationError, match="tol 1e-16 is below the bound"):
        _run(a1, 2, 1.0, target_tol=1e-16)


def test_rank3_flat_sum_against_a_brute_force_box(a3):
    # the box sum is a lower bound on Z, short of it by at most its tail bound
    res = _run(a3, 2, 0.0, target_tol=1e-6)
    assert res.tail_bound <= 1e-6
    box = 64
    brute = math.fsum(t for b, _ in ym2._cone_terms(3, 2, 0.0, box=box) for t in b)
    assert brute - res.tail_bound <= res.value
    assert res.value <= brute + ym2._box_tail_bound(3, 2, 0.0, box) + res.tail_bound


@pytest.mark.parametrize("rank, genus, leading", [
    (1, 2, Fraction(1, 6)), (1, 3, Fraction(1, 180)),
    (2, 2, Fraction(1, 20160)), (2, 3, Fraction(19, 41513472000)),
    (3, 2, Fraction(23, 653837184000)), (3, 3, Fraction(14081, 64814699109633048576000000)),
    (4, 2, Fraction(1, 27303661403504640000)),
], ids=["A1-g2", "A1-g3", "A2-g2", "A2-g3", "A3-g2", "A3-g3", "A4-g2"])
def test_witten_volume_identity(rank, genus, leading):
    # the leading coefficient of the Verlinde polynomial V_g(k) (the exact
    # pairings fits) is |Z(G)| (r+1)^(g-1) V(rho)^(2-2g) (2 pi)^(-(2g-2)|Delta+|)
    # times the flat sum
    rs = build_root_system("A", rank)
    res = _run(rs, genus, 0.0)
    v_rho = _vandermonde(_shifted_epsilon((0,) * rank))
    with mpmath.workdps(40):
        pref = (mpmath.mpf(rank + 1) ** genus / mpmath.mpf(v_rho) ** (2 * genus - 2)
                / (2 * mpmath.pi) ** ((2 * genus - 2) * len(rs.positive_roots)))
        exact = mpmath.mpf(leading.numerator) / leading.denominator
        assert abs(pref * mpmath.mpf(res.value) - exact) <= pref * res.tail_bound


@pytest.mark.parametrize("rank, genus, k_max", [
    (1, 2, 20), (1, 3, 20), (1, 4, 30), (1, 5, 30), (2, 2, 30), (2, 3, 40)])
def test_witten_volume_identity_is_exact(rank, genus, k_max):
    # with Z = q pi^(m |Delta+|), pi cancels: the exact pairings fit's leading
    # coefficient is |Z(G)| (r+1)^(g-1) V(rho)^(2-2g) 2^(-m |Delta+|) q
    rs = build_root_system("A", rank)
    m = 2 * genus - 2
    v_rho = _vandermonde(_shifted_epsilon((0,) * rank))
    leading = Fraction((rank + 1) ** genus, v_rho ** m * 2 ** (m * len(rs.positive_roots)))
    assert pairing_report(rs, genus, 1, k_max).leading_by_class == (
        leading * ym2._flat_rational(rank, m),)


def test_zeta_remainder_is_below_the_unit_roundoff():
    for k in range(2, 80):
        value, remainder = ym2._zeta(k)
        assert remainder <= Fraction(1.02e-18) and remainder < 2 ** -53
        with mpmath.workdps(40):
            assert float(value) == float(mpmath.zeta(k))


@pytest.mark.parametrize("rank, genus, tol, seconds", [
    (2, 2, 1e-10, 0.05), (2, 2, 1e-12, 0.05), (3, 2, DEFAULT_TOL, 1.0),
    (2, 100, DEFAULT_TOL, 0.1), (1, 100, DEFAULT_TOL, 0.1)],
    ids=["A2-1e-10", "A2-1e-12", "A3-default", "A2-g100", "A1-g100"])
def test_flat_sums_are_fast(rank, genus, tol, seconds):
    rs = build_root_system("A", rank)
    _run(rs, genus, 0.0, target_tol=tol)  # warm up
    elapsed = []
    for _ in range(3):  # the fastest of three, as the machine may be shared
        start = time.perf_counter()
        res = _run(rs, genus, 0.0, target_tol=tol)
        elapsed.append(time.perf_counter() - start)
    assert min(elapsed) < seconds
    assert res.tail_bound <= tol


def test_a5_shell_call_is_fast_end_to_end():
    # its box held 1,419,857 weights and took 2.4 s; its Casimir shell holds
    # 18, which leaves the interpreter's start-up and the imports
    argv = ["ym2", "--algebra", "A5", "--genus", "2", "--epsilons", "1", "--tol", "1e-3"]
    code = "import sys\nfrom seifertsum import cli\nsys.exit(cli.main(%r))" % (argv,)
    src = str(Path(seifertsum.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    elapsed = []
    for _ in range(3):  # the fastest of three, as the machine may be shared
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], check=True,
                              capture_output=True, text=True, env=env)
        elapsed.append(time.perf_counter() - start)
    (_, z, bound), = list(csv.reader(io.StringIO(proc.stdout)))[1:]
    assert float(bound) <= 1e-3 and float(z) > 1
    assert min(elapsed) < 0.3
