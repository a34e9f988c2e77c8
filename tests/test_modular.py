"""Modular matrices: closed forms, certification, conjugation."""

import cmath
import itertools
import math

import numpy as np
import pytest

from oracles import certify_expressions, su2_s_closed, t_diagonals
from seifertsum import lie, modular
from seifertsum.errors import BudgetExceededError, CertificationError, PreconditionError
from seifertsum.lie import Weight, build_root_system, casimir
from seifertsum.modular import (
    _Level,
    _weight_array,
    central_charge,
    integrable_weights,
    s_matrix,
)
from seifertsum.quasipoly import pairing_report
from seifertsum.seifert import seifert_scan
from seifertsum.verlinde import verlinde_dimension


@pytest.mark.parametrize("level", [1, 2, 3, 4, 5, 6])
def test_rank1_sine_kernel_closed_form(level, a1):
    md = s_matrix(a1, level)
    closed = su2_s_closed(level)
    err = max(abs(complex(md.s[i, j]) - closed[i][j])
              for i in range(level + 1) for j in range(level + 1))
    assert err < 1e-12


def test_integrable_weight_counts(a1, a2):
    assert len(integrable_weights(a1, 5)) == 6
    assert len(integrable_weights(a2, 3)) == 10
    for k in (1, 2, 4):
        assert len(integrable_weights(a2, k)) == (k + 1) * (k + 2) // 2


def test_integrable_weights_are_sorted_and_start_at_vacuum(a2):
    ws = integrable_weights(a2, 2)
    assert ws[0].coords == (0, 0)
    assert list(ws) == sorted(ws, key=lambda w: w.coords)


@pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
def test_weight_array_is_the_lexicographic_bounded_tuples(rank):
    for level in range(9):
        want = [t for t in itertools.product(range(level + 1), repeat=rank)
                if sum(t) <= level]
        got = _weight_array(rank, level)
        assert got.dtype == np.int64 and got.shape == (len(want), rank)
        assert [tuple(row) for row in got.tolist()] == want


@pytest.mark.parametrize("rank,level", [(1, 50), (2, 12), (3, 6)])
def test_index_of_finds_every_weight(rank, level):
    lv = _Level(build_root_system("A", rank), level)
    for i, w in enumerate(integrable_weights(lv.rs, level)):
        assert lv.index_of(w) == i


@pytest.mark.parametrize("coords", [(-1, 2), (1, 1, 0), (1,), (3, 2)])
def test_index_of_refuses_what_is_not_integrable(coords, a2):
    # a negative coordinate, the wrong length twice, and a sum above k = 4
    with pytest.raises(PreconditionError, match="not integrable at level 4"):
        _Level(a2, 4).index_of(Weight(coords))


def test_lattice_sums_build_no_weight_per_weight(monkeypatch):
    # only labels (and rho) become Weight objects; the levels stay arrays
    built = []
    new = lie.Weight.__new__

    def counting(cls, coords):
        built.append(new(cls, coords))
        return built[-1]

    a1, a2 = build_root_system("A", 1), build_root_system("A", 2)
    label = Weight((1, 1))
    monkeypatch.setattr(lie.Weight, "__new__", staticmethod(counting))
    verlinde_dimension(a2, 30, 2, (label,))
    seifert_scan(a1, genera=(0, 1, 2), degrees=(-1, 0, 3), levels=range(1, 41))
    pairing_report(a1, genus=2, k_min=1, k_max=12)
    assert len(built) <= 2, [w.coords for w in built]


def test_central_charges(a1, a2):
    assert central_charge(a1, 1) == pytest.approx(1.0)
    assert central_charge(a2, 1) == pytest.approx(2.0)
    # k dim / (k + dual coxeter) in general
    assert central_charge(a2, 3) == pytest.approx(3 * 8 / 6)


@pytest.mark.parametrize("series,rank,level", [
    ("A", 1, 5), ("A", 1, 20), ("A", 2, 4), ("A", 2, 6), ("A", 3, 2),
])
def test_certification_residuals(series, rank, level):
    md = s_matrix(build_root_system(series, rank), level)
    for key in ("unitarity", "symmetry", "row0_imag",
                "conjugation_permutation", "st_cubed"):
        assert md.certificate[key] < 1e-9
    assert md.certificate["row0_min"] > 0
    assert md.certificate["involution"]


def test_conjugation_flips_coordinates(a2):
    md = s_matrix(a2, 3)
    for i, w in enumerate(md.weights):
        partner = md.weights[md.conjugation[i]]
        assert partner.coords == tuple(reversed(w.coords))


def test_bare_t_matches_casimir_phases(a1):
    level = 4
    md = s_matrix(a1, level)
    kappa = level + 2
    for i, w in enumerate(md.weights):
        want = cmath.exp(1j * math.pi * float(casimir(a1, w)) / kappa)
        assert abs(complex(md.t_bare[i]) - want) < 1e-12
    # closed anchor: level 1, spin 1/2 entry is exp(i pi (3/2)/3) = i
    md1 = s_matrix(a1, 1)
    assert complex(md1.t_bare[1]) == pytest.approx(1j)


def test_canonical_t_includes_central_charge_phase(a2):
    level = 2
    md = s_matrix(a2, level)
    c = central_charge(a2, level)
    shift = cmath.exp(-2j * math.pi * c / 24)
    err = np.abs(md.t_canonical - md.t_bare * shift).max()
    assert err < 1e-12


def test_t_matrix_conventions(a1):
    md = s_matrix(a1, 3)
    assert np.abs(np.abs(md.t_bare) - 1).max() < 1e-12
    assert np.abs(np.abs(md.t_canonical) - 1).max() < 1e-12


def test_vacuum_row_is_positive(a2):
    md = s_matrix(a2, 4)
    assert md.s[0].real.min() > 0
    assert np.abs(md.s[0].imag).max() < 1e-12


def test_square_is_conjugation_permutation(a1):
    md = s_matrix(a1, 6)
    n = len(md.weights)
    c = np.asarray(md.s) @ np.asarray(md.s)
    perm = np.zeros((n, n))
    for i, p in enumerate(md.conjugation):
        perm[i, p] = 1.0
    assert np.abs(c - perm).max() < 1e-9


def test_preconditions(a1):
    with pytest.raises(PreconditionError):
        s_matrix(a1, 0)
    md = s_matrix(a1, 2)
    with pytest.raises(PreconditionError):
        md.index_of(Weight((9,)))


def test_matrices_are_read_only(a1):
    md = s_matrix(a1, 2)
    with pytest.raises(ValueError):
        md.s[0, 0] = 0
    # the record and its certificate too: neither write may go unnoticed
    with pytest.raises(AttributeError):
        md.level = 5
    with pytest.raises(AttributeError):
        del md.s
    with pytest.raises(TypeError):
        md.certificate["unitarity"] = 0.0
    assert (md.level, md.kappa) == (2, 4)


def test_s_is_priced_by_its_products_before_any_weight(a2, monkeypatch):
    monkeypatch.setattr(modular, "_weight_array", None)  # any build would raise
    # A2 k52: 1431 weights, 2 n^3 = 5.9e9 certificate operations, 168 MB with the report
    assert modular.price_level(a2, 52, s=True) == 1431
    # A2 k57: 1711 weights, 2 n^3 + n^2 r^3 = 1.004e10
    with pytest.raises(BudgetExceededError, match=r"level 57 of A2 \(1711 weights\) needs "
                                                  r"2.407e\+08 bytes and 1.004e\+10 operations"):
        s_matrix(a2, 57)


@pytest.mark.parametrize("rank, level", [
    (1, 7), (2, 12), (3, 5), (4, 3), (2, 40), (3, 15), (5, 6), (9, 3)])
def test_certify_matches_the_expression_form_bit_for_bit(rank, level):
    # the measured keys equal the four-product oracle's bit for bit; the two
    # transferred ones are bounds on the residuals the oracle measures
    md = s_matrix(build_root_system("A", rank), level)
    ok, residuals = modular._certify(md.s, md.t_canonical, md._lv.conjugation(),
                                     modular.DEFAULT_TOL)
    want_ok, want_residuals, want_perm = certify_expressions(
        md.s, md.t_canonical, modular.DEFAULT_TOL)
    assert ok is want_ok is True
    assert md.conjugation == want_perm
    assert list(residuals) == list(want_residuals)
    for key in ("unitarity", "symmetry", "row0_imag", "row0_min", "involution"):
        assert residuals[key] == want_residuals[key], key
    for key in ("conjugation_permutation", "st_cubed"):
        assert want_residuals[key] <= residuals[key] <= 1e-12, key


@pytest.mark.parametrize("rank, level", [(1, 6), (2, 5), (3, 4), (4, 3), (5, 2)])
def test_conjugation_reverses_the_labels_and_is_read_off_s_squared(rank, level):
    lv = _Level(build_root_system("A", rank), level)
    conj = lv.conjugation()
    assert (conj[conj] == np.arange(len(conj))).all()
    assert (lv.coords[conj] == lv.coords[:, ::-1]).all()
    md = s_matrix(lv.rs, level)
    assert tuple(conj.tolist()) == md.conjugation
    assert md.conjugation == certify_expressions(md.s, md.t_canonical, modular.DEFAULT_TOL)[2]


def _refused(monkeypatch, rank, level, s_rows=None, t_canon=None):
    """The CertificationError of s_matrix at tol 1e-9 with S or canonical T
    changed by the given functions."""
    label_rows, t_diagonals = _Level.label_rows, _Level.t_diagonals
    if s_rows:
        monkeypatch.setattr(_Level, "label_rows", lambda lv, idx: s_rows(lv, label_rows(lv, idx)))
    if t_canon:
        def diagonals(lv):
            bare, canon = t_diagonals(lv)
            return bare, t_canon(canon)

        monkeypatch.setattr(_Level, "t_diagonals", diagonals)
    with pytest.raises(CertificationError) as err:
        s_matrix(build_root_system("A", rank), level, tol=1e-9)
    return err.value


@pytest.mark.parametrize("rank, level, i, j", [(2, 3, 1, 2), (3, 3, 1, 2)])
def test_certificate_refuses_s_moved_by_1e_7_off_its_symmetries(monkeypatch, rank, level, i, j):
    # S + d on (i, j), (j, i), (Ci, Cj), (Cj, Ci) and conj(d) on their
    # conjugate partners keeps S symmetric and conj(S) = C S, so only the
    # two products can see it
    d = 1e-7 * (0.6 + 0.8j)

    def moved(lv, s):
        c = lv.conjugation()
        assert len({i, j, int(c[i]), int(c[j])}) == 4
        s = s.copy()
        for a, b in ((i, j), (j, i), (c[i], c[j]), (c[j], c[i])):
            s[a, b] += d
            s[c[a], b] += d.conjugate()
        # at the rounding of the unmoved S, far below the move
        assert np.abs(s.conj() - s[c]).max() < 1e-14
        return s

    err = _refused(monkeypatch, rank, level, s_rows=moved)
    assert err.residuals["symmetry"] < 1e-14
    assert err.residuals["unitarity"] > 1e-9
    assert err.threshold == 1e-9 and err.precision == "binary64"


def test_certificate_refuses_t_with_one_phase_rotated_by_1e_7(monkeypatch):
    # the vacuum is its own conjugate, so conj(T) C T = C still holds and only
    # the (S T) S product can see the rotation
    def rotated(t):
        t = t.copy()
        t[0] *= cmath.exp(1e-7j)
        return t

    err = _refused(monkeypatch, 2, 3, t_canon=rotated)
    for key in ("unitarity", "symmetry", "conjugation_permutation"):
        assert err.residuals[key] < 1e-12, key
    assert err.residuals["st_cubed"] > 1e-9


@pytest.mark.parametrize("rank, top", [(1, 20), (2, 12), (3, 6), (4, 4)])
def test_t_from_integer_norms_matches_the_per_weight_form_bit_for_bit(rank, top):
    rs = build_root_system("A", rank)
    for level in range(1, top + 1):
        lv = modular._Level(rs, level)
        want_bare, want_canon = t_diagonals(rs, level, lv.weights)
        bare, canon = lv.t_diagonals()
        assert (bare == want_bare).all()
        assert (canon == want_canon).all()


@pytest.mark.parametrize("tol", [0.0, math.nan, -1.0, math.inf])
def test_s_matrix_refuses_a_tolerance_no_matrix_can_meet(tol, monkeypatch):
    # 0, nan and -1 no residual can be below; inf certifies anything
    def no_level(*args):
        raise AssertionError("s_matrix built a level for tol %r" % tol)

    monkeypatch.setattr(modular, "_Level", no_level)
    with pytest.raises(PreconditionError, match="tol must be a positive finite number"):
        s_matrix(build_root_system("A", 2), 20, tol=tol)


# A2 k40 is the largest S the benchmark builds; A3 k15, A5 k6 and A9 k3 hold
# 816, 462 and 220 weights
@pytest.mark.parametrize("rank, level", [(2, 40), (3, 15), (5, 6), (9, 3)])
def test_reduced_determinant_s_certifies_in_binary64(rank, level):
    md = s_matrix(build_root_system("A", rank), level)
    assert md.precision_bits == 53
    assert md.certificate["unitarity"] <= 1e-14
    assert md.certificate["symmetry"] <= 1e-14
    for key in ("unitarity", "symmetry", "row0_imag", "conjugation_permutation",
                "st_cubed"):
        assert md.certificate[key] <= 1e-12, key


def _exact_det(rows):
    """Integer determinant by cofactor expansion along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    return sum((-1) ** j * rows[0][j] * _exact_det([row[:j] + row[j + 1:] for row in rows[1:]])
               for j in range(len(rows)))


@pytest.mark.parametrize("r", [1, 2, 3, 5])
def test_modular_determinants_match_exact_ones(r):
    # entries mostly 0 or 1, so that zero pivots, row swaps and singular
    # matrices all occur, next to entries near p
    p = 2147483497
    rng = np.random.default_rng(r)
    a = rng.choice(np.array([0, 0, 1, 2, p - 1, p - 2, 12345]), size=(400, r, r))
    num, den = modular._det_mod(a, p)
    assert (den % p != 0).all()
    for m, top, bottom in zip(a.tolist(), num.tolist(), den.tolist()):
        assert top * pow(bottom, -1, p) % p == _exact_det(m) % p
    assert num.tolist().count(0) > 10  # singular matrices
    if r > 1:  # and regular ones that needed a row swap
        assert any(m[0][0] == 0 and _exact_det(m) % p for m in a.tolist())


@pytest.mark.parametrize("p,order", [(7, 6), (2147483497, 24), (2139621397, 400004)])
def test_root_table_has_exact_order(p, order):
    assert p % order == 1
    table = modular._roots_mod(p, order)
    z = int(table[1])
    assert table[0] == 1 and len(np.unique(table)) == order
    assert (table[1:] == table[:-1] * z % p).all() and pow(z, order, p) == 1


@pytest.mark.parametrize("n", [1, 2, 3, 7, 1000])
def test_batch_inverse_matches_pow(n):
    p = 2147483497
    rng = np.random.default_rng(n)
    x = rng.integers(1, p, size=n, dtype=np.int64)
    x[:2] = [1, p - 1][:n]  # the extremes of the residues
    assert modular._inverse_mod(x, p).tolist() == [pow(v, -1, p) for v in x.tolist()]


@pytest.mark.parametrize("n", [1, 2, 3, 7, 1000])
def test_batch_inverse_refuses_a_zero(n):
    p = 2147483497
    x = np.arange(1, n + 1, dtype=np.int64)
    x[n // 2] = 0
    with pytest.raises(ValueError, match="not invertible"):
        modular._inverse_mod(x, p)
