"""Weight-lattice partition sums over Seifert fibrations."""

import cmath
import itertools
import math

import numpy as np
import pytest

from oracles import kac_peterson_s
from seifertsum import modular, seifert
from seifertsum.errors import BudgetExceededError, PreconditionError
from seifertsum.lie import Weight, build_root_system
from seifertsum.modular import _Level, central_charge, s_matrix
from seifertsum.orbits import wilson_weight
from seifertsum.quasipoly import pairing_report
from seifertsum.seifert import ScanCell, seifert_scan
from seifertsum.verlinde import verlinde_dimension


def _z(rs, level, genus, degree, **kw):
    (cell,) = seifert_scan(rs, [genus], [degree], [level], **kw)
    return cell


LABEL_SETS_A1 = ((), (Weight((1,)),), (Weight((1,)), Weight((1,))))


def test_degree_zero_reduces_to_block_dimensions(a1, a2):
    for k, g, labels in itertools.product((1, 3, 6), (0, 1, 2), LABEL_SETS_A1):
        z = _z(a1, k, g, 0, labels=labels)
        assert abs(z.value - verlinde_dimension(a1, k, g, labels)) < 1e-9
    for k in (1, 2, 3):
        z = _z(a2, k, 2, 0)
        assert abs(z.value - verlinde_dimension(a2, k, 2)) < 1e-9


def test_degree_one_sphere_modulus_anchor(a1, a2):
    # |Z| on the (g, p) = (0, 1) bundle is the S[0,0] entry at every level
    for rs, levels in ((a1, (1, 2, 3, 8)), (a2, (1, 2))):
        for k in levels:
            md = s_matrix(rs, k)
            z = _z(rs, k, 0, 1)
            assert abs(z.modulus - float(md.s[0, 0].real)) < 1e-9


def test_rank1_level1_degree_one_closed_value(a1):
    # two weights, S = [[1,1],[1,-1]]/sqrt(2), phases at <lam+rho>^2/2 in
    # units of pi/3: Z = (e^{-i pi/6} + e^{-2 i pi/3}/... ) assembled here
    md = s_matrix(a1, 1)
    z = _z(a1, 1, 0, 1)
    want = 0j
    for j, lam in enumerate(md.weights):
        m = lam.coords[0] + 1
        want += complex(md.s[0, j]) ** 2 * cmath.exp(-1j * math.pi * m * m / (2 * 3))
    assert abs(z.value - want) < 1e-12


def test_orientation_reversal_conjugates(a1):
    for k, g in itertools.product((1, 2, 3, 4), (0, 1, 2)):
        for p in (1, 2, 3):
            zp = _z(a1, k, g, p).value
            zm = _z(a1, k, g, -p).value
            assert abs(zp - zm.conjugate()) < 1e-9


def test_framing_change_is_a_pure_phase(a1, a2):
    for rs, k in ((a1, 3), (a2, 2)):
        for g, p in itertools.product((0, 1, 2), (-2, 1, 3)):
            bare = _z(rs, k, g, p)
            canon = _z(rs, k, g, p, framing="canonical")
            assert abs(bare.modulus - canon.modulus) < 1e-10
            c = central_charge(rs, k)
            twist = cmath.exp(-2j * math.pi * c * (1 if p > 0 else -1) / 8)
            assert abs(canon.value - bare.value * twist) < 1e-12


def test_framing_is_inert_at_degree_zero(a1):
    bare = _z(a1, 2, 1, 0)
    canon = _z(a1, 2, 1, 0, framing="canonical")
    assert bare.value == canon.value


def test_centre_factor_divides_by_centre_order(a1, a2):
    for rs, order in ((a1, 2), (a2, 3)):
        plain = _z(rs, 2, 1, 1)
        scaled = _z(rs, 2, 1, 1, include_centre_factor=True)
        assert abs(scaled.value - plain.value / order) < 1e-12
        assert rs.centre_order == order


def test_wilson_lines_enter_through_s_ratios(a1):
    # one fibre label mu: each term carries S[mu,lam] in place of S[0,lam]
    k, g, p = 3, 1, 2
    mu = Weight((2,))
    md = s_matrix(a1, k)
    want = 0j
    i = md.index_of(mu)
    for j, lam in enumerate(md.weights):
        m = lam.coords[0] + 1
        term = complex(md.s[0, j]) ** (2 - 2 * g - 1) * complex(md.s[i, j])
        term *= cmath.exp(-1j * math.pi * p * m * m / (2 * (k + 2)))
        want += term
    got = _z(a1, k, g, p, labels=(mu,))
    assert abs(got.value - want) < 1e-12


def test_preconditions(a1):
    with pytest.raises(PreconditionError):
        _z(a1, 0, 1, 0)
    with pytest.raises(PreconditionError):
        _z(a1, 2, -1, 0)
    with pytest.raises(PreconditionError):
        _z(a1, 2, 1, 0, framing="twisted")
    with pytest.raises(PreconditionError):
        _z(a1, 2, 1, 0, labels=(Weight((3,)),))
    with pytest.raises(PreconditionError, match="exceed the binary64 range"):
        _z(a1, 100, 80, 1)  # S[0,lam]^(2-2g) reaches 1e373


def test_scan_matches_pointwise(a1):
    cells = seifert_scan(a1, genera=(0, 1), degrees=(-1, 0, 2), levels=(1, 3))
    assert len(cells) == 12
    for cell in cells:
        single = _z(a1, cell.level, cell.genus, cell.degree)
        assert cell.value == single.value
        assert cell.modulus == single.modulus
        assert cell.term_count == cell.level + 1


def test_scan_budget_is_all_or_nothing(a1, monkeypatch):
    def no_level(*args):
        raise AssertionError("a level was built before the scan was priced")

    monkeypatch.setattr(seifert, "_Level", no_level)
    # level 9 alone is cheap; 10^10 weights at the top level are over the byte limit
    with pytest.raises(BudgetExceededError, match=r"level 10000000000 of A1"):
        seifert_scan(a1, genera=(0,), degrees=(0,), levels=(9, 10 ** 10))
    # the level fits, but its 2000 x 6 cells hold 1.2e10 lattice terms, priced
    # at TERM_OPERATIONS = 350 operations each
    with pytest.raises(BudgetExceededError, match=r"needs [0-9.e+]+ bytes and 4.2e\+12 operations"):
        seifert_scan(a1, genera=range(2000), degrees=range(6), levels=(10 ** 6,))
    # 1e8 terms, more than ten seconds of lattice sums, are 3.5e10 operations
    with pytest.raises(BudgetExceededError, match=r"needs [0-9.e+]+ bytes and 3.5e\+10 operations"):
        seifert_scan(a1, genera=range(100), degrees=range(10), levels=(10 ** 5,))


def test_budget_refusals_count_weights_without_building_them(monkeypatch):
    def enumerate_weights(rs, level):
        raise AssertionError("weights built before the budget check")

    monkeypatch.setattr(modular, "integrable_weights", enumerate_weights)
    monkeypatch.setattr(modular, "_weight_array", enumerate_weights)
    a2, a4 = build_root_system("A", 2), build_root_system("A", 4)
    with pytest.raises(BudgetExceededError):
        s_matrix(build_root_system("A", 3), 150)
    with pytest.raises(BudgetExceededError):
        seifert_scan(a2, genera=(0,), degrees=(0,), levels=(100_000,))
    with pytest.raises(BudgetExceededError):
        verlinde_dimension(a4, 1000, 2)
    # the window starts cheap, but its horizon's top level 1005 is priced first
    with pytest.raises(BudgetExceededError, match="level 1005 of A4"):
        pairing_report(a4, genus=2, k_min=1, k_max=1000)
    with pytest.raises(BudgetExceededError):
        wilson_weight(a2, Weight((1, 0)), Weight((0, 0)), 10 ** 6)


def test_scan_deduplicates_and_sorts(a1):
    cells = seifert_scan(a1, genera=(1, 1, 0), degrees=(2, 0), levels=(2,))
    keys = [(c.genus, c.degree, c.level) for c in cells]
    assert keys == [(0, 0, 2), (0, 2, 2), (1, 0, 2), (1, 2, 2)]
    assert all(isinstance(c, ScanCell) for c in cells)


def test_leading_example_value(a1):
    # degree 0 at level 1 on a genus 2 base counts the four blocks
    value = _z(a1, 1, 2, 0).value
    assert value.real == pytest.approx(4.0, abs=1e-9)
    assert value.imag == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("rank,level,genus", [(1, 3, 1), (2, 4, 2), (3, 2, 0)])
def test_degree_period_is_exact(rank, level, genus):
    # the phase depends on p only through p |lam+rho|^2 mod 2 kappa, and
    # (r+1)|lam+rho|^2 is an integer: Z(p) has period 2(r+1)kappa bit for bit
    rs = build_root_system("A", rank)
    period = 2 * (rank + 1) * (level + rank + 1)
    for p in (1, -3, 7):
        z = _z(rs, level, genus, p).value
        for t in (1, 10**9):
            assert _z(rs, level, genus, p + t * period).value == z


@pytest.mark.parametrize("rank,levels", [(1, (1, 4, 9)), (2, (1, 3, 5)), (3, (1, 3)),
                                         (4, (1, 2))])
def test_rows_agree_with_certified_s(rank, levels):
    # the lattice sums read these rows in place of S; certified S is one
    # oracle, and the explicit Weyl-group sum at 30 digits another
    rs = build_root_system("A", rank)
    for k in levels:
        md = s_matrix(rs, k)
        lv = _Level(rs, k)
        assert lv.weights == md.weights
        every = range(len(lv.weights))
        assert np.abs(lv.s0 - md.s[0]).max() <= 1e-13
        assert np.abs(lv.label_rows(every) - md.s).max() <= 1e-13
        assert np.abs(md.s - kac_peterson_s(rank, k)).max() <= 1e-15
