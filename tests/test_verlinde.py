"""Block-space dimensions against an independent fusion-rule oracle."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    blocks_genus1,
    blocks_genus2,
    blocks_sphere3,
    fusion_coefficients,
    verlinde_exact,
)
from seifertsum import modular, verlinde
from seifertsum.errors import (
    BudgetExceededError,
    CertificationError,
    IntegralityError,
    PreconditionError,
)
from seifertsum.lie import Weight, build_root_system
from seifertsum.modular import _Level, integrable_weights
from seifertsum.seifert import seifert_scan
from seifertsum.verlinde import verlinde_dimension, verlinde_table


def _dim(rs, level, genus, labels=()):
    return verlinde_dimension(rs, level, genus, tuple(labels))


def test_torus_counts_integrable_weights(a1, a2):
    for k in range(1, 9):
        assert _dim(a1, k, 1) == k + 1
    for k in range(1, 5):
        assert _dim(a2, k, 1) == (k + 1) * (k + 2) // 2


def test_rank1_genus2_closed_polynomial(a1):
    for k in range(1, 21):
        kappa = k + 2
        want = (kappa**3 - kappa) // 6
        assert _dim(a1, k, 2) == want


def test_rank1_genus3_closed_polynomial(a1):
    for k in range(1, 13):
        kappa = k + 2
        want = kappa**2 * (kappa**2 - 1) * (kappa**2 + 11) // 180
        assert _dim(a1, k, 3) == want


def test_frozen_tables(a1, a2):
    assert [_dim(a1, k, 2) for k in (1, 2, 3, 7, 12)] == [4, 10, 20, 120, 455]
    assert [_dim(a1, k, 3) for k in (1, 2, 3)] == [8, 36, 120]
    assert [_dim(a2, k, 2) for k in (1, 2, 3, 4)] == [9, 45, 166, 504]


@pytest.mark.parametrize("series,rank,levels", [
    ("A", 1, (1, 2, 3, 4)),
    ("A", 2, (1, 2, 3)),
])
def test_one_point_torus_blocks_match_fusion_traces(series, rank, levels):
    rs = build_root_system(series, rank)
    for k in levels:
        for mu in integrable_weights(rs, k):
            want = blocks_genus1(series, rank, k, mu.coords)
            assert _dim(rs, k, 1, [mu]) == want


@pytest.mark.parametrize("series,rank,levels", [
    ("A", 1, (1, 2, 3)),
    ("A", 2, (1, 2)),
])
def test_genus2_blocks_match_squared_fusion_counts(series, rank, levels):
    rs = build_root_system(series, rank)
    for k in levels:
        assert _dim(rs, k, 2) == blocks_genus2(series, rank, k)


@pytest.mark.parametrize("series,rank,kmax", [("A", 1, 4), ("A", 2, 3)])
def test_three_point_sphere_blocks_are_fusion_coefficients(series, rank, kmax):
    rs = build_root_system(series, rank)
    for k in range(1, kmax + 1):
        ws = integrable_weights(rs, k)
        for a, b, c in itertools.product(ws, repeat=3):
            want = blocks_sphere3(series, rank, k, a.coords, b.coords, c.coords)
            assert _dim(rs, k, 0, [a, b, c]) == want


def test_sphere_without_labels_is_one(a1, a2):
    assert _dim(a1, 4, 0) == 1
    assert _dim(a2, 2, 0) == 1


def test_gluing_identity(a2):
    # cutting a genus 2 surface along a handle loop inserts a sum over
    # conjugate label pairs on the resulting two-point torus
    k = 2
    glued = sum(_dim(a2, k, 1, [mu, Weight(tuple(reversed(mu.coords)))])
                for mu in integrable_weights(a2, k))
    assert glued == _dim(a2, k, 2)


def test_fusion_coefficients_are_symmetric(a2):
    k = 2
    ws = integrable_weights(a2, k)
    for lam, mu in itertools.product(ws, repeat=2):
        ab = fusion_coefficients(a2, k, lam, mu)
        ba = fusion_coefficients(a2, k, mu, lam)
        assert ab == ba


def test_raw_sum_is_nearly_real(a1):
    # the binary64 sum is the degree-zero Seifert cell
    (cell,) = seifert_scan(a1, [2], [0], [6])
    assert abs(cell.value.imag) < 1e-9


_MAX_LEVEL = {1: 12, 2: 6, 3: 3}


@st.composite
def _cells(draw):
    rank = draw(st.integers(1, 3))
    level = draw(st.integers(1, _MAX_LEVEL[rank]))
    weights = [w.coords for w in integrable_weights(build_root_system("A", rank), level)]
    labels = draw(st.lists(st.sampled_from(weights), max_size=2))
    return rank, level, draw(st.integers(0, 4)), tuple(labels)


@settings(max_examples=60, deadline=None)
@given(_cells())
def test_dimension_matches_the_weyl_sum_oracle(cell):
    rank, level, genus, labels = cell
    rs = build_root_system("A", rank)
    assert _dim(rs, level, genus, [Weight(lab) for lab in labels]) == verlinde_exact(
        rank, level, genus, labels)


@pytest.mark.parametrize("level", [1, 2, 1000, 200000])
def test_rank1_genus2_is_binomial_to_the_frontier(a1, level):
    assert _dim(a1, level, 2) == math.comb(level + 3, 3)


@pytest.mark.parametrize("rank,genus,level,labels,exact", [
    (2, 3, 15, ((1, 1),), 458392504320),
    (2, 1, 6, ((1, 0), (0, 1)), 63),
    (2, 0, 5, ((1, 0),) * 3, 1),
    (3, 2, 4, ((1, 0, 1), (0, 2, 0)), 83840),
    (5, 1, 4, ((1, 0, 0, 0, 0), (0, 0, 0, 0, 1)), 336),
])
def test_labelled_dimensions_are_exact(rank, genus, level, labels, exact):
    assert verlinde_exact(rank, level, genus, labels) == exact
    assert _dim(build_root_system("A", rank), level, genus,
                [Weight(lab) for lab in labels]) == exact


def test_labelled_dimension_at_the_frontier(a2):
    # 45,451 weights; no oracle reaches it, and the pin was taken from this path
    assert _dim(a2, 300, 2, [Weight((1, 1))]) == 28186499346148364


def _patched_residues(monkeypatch, change):
    """Replace the first term of every residue vector by change(call
    number, p, that term), reduced mod p; return the primes called."""
    true_residues = _Level.residues
    calls = []

    def patched(lv, p, power, label_idx):
        terms = true_residues(lv, p, power, label_idx)
        calls.append(p)
        terms[0] = change(len(calls), p, terms[0]) % p
        return terms

    monkeypatch.setattr(_Level, "residues", patched)
    return calls


def test_witness_mismatch_is_refused(a1, monkeypatch):
    # one residue off by one: the reconstructed value fails the witness prime
    calls = _patched_residues(monkeypatch, lambda i, p, res: res + (i == 1))
    with pytest.raises(IntegralityError, match=r"fails witness prime (\d+): residue "
                                               r"expected \d+, got \d+") as info:
        _dim(a1, 10, 5)
    assert len(calls) >= 2
    assert "fails witness prime %d" % calls[-1] in str(info.value)
    assert "from primes %s" % calls[:-1] in str(info.value)


def test_negative_value_is_refused(a1, monkeypatch):
    # every residue moved by -2V: the primes and the witness agree on -V
    _patched_residues(monkeypatch, lambda i, p, res: res - 2 * 129443600)
    with pytest.raises(IntegralityError, match=r"dimension -129443600 from primes \[\d+(?:, \d+)*\] "
                                               r"is not a nonnegative integer or fails "
                                               r"witness prime \d+: residue expected "
                                               r"(\d+), got \1$"):
        _dim(a1, 10, 5)


def test_primes_run_out_for_a_large_cyclotomic_order(a1, monkeypatch):
    # no prime p = 1 mod N lies below 2^31 when N is past it
    monkeypatch.setattr(verlinde, "_primes", lambda order: iter(()))
    with pytest.raises(PreconditionError, match="do not determine"):
        _dim(a1, 3, 2)


def test_primes_are_every_prime_1_mod_the_order_from_the_top():
    sieve = bytearray([1]) * 46341  # past sqrt(2^31)
    sieve[:2] = b"\0\0"
    for q in range(2, 216):
        if sieve[q]:
            sieve[q * q::q] = bytearray(len(sieve[q * q::q]))
    small = [q for q in range(len(sieve)) if sieve[q]]

    def is_prime(n):
        return all(n % q for q in small if q * q <= n)

    assert list(verlinde._primes(2 ** 30)) == []  # 2^30 + 1 = 5^2 * 13 * 41 * 61 * 1321
    for order in (6, 15, 400004, 999999, 12345678):  # odd orders give even candidates
        primes = list(itertools.islice(verlinde._primes(order), 5))
        top = (2 ** 31 - 2) // order * order + 1
        assert top + order >= 2 ** 31 and primes[0] < 2 ** 31
        assert [p for p in range(top, primes[-1] - 1, -order) if is_prime(p)] == primes


def test_preconditions(a1):
    with pytest.raises(PreconditionError):
        _dim(a1, 0, 1)
    with pytest.raises(PreconditionError):
        _dim(a1, 2, -1)
    with pytest.raises(PreconditionError):
        _dim(a1, 2, 1, [Weight((5,))])  # not integrable at level 2


def test_non_dominant_label_is_refused_by_name(a2):
    with pytest.raises(PreconditionError, match=r"weight \(-1, 1\) is not integrable"):
        _dim(a2, 2, 1, [Weight((-1, 1))])


def test_table_structure(a1):
    table = verlinde_table(a1, 2, range(1, 6))
    assert table.rows == tuple((k, ((k + 2) ** 3 - (k + 2)) // 6)
                               for k in range(1, 6))
    assert table.monotone_nondecreasing
    with_labels = verlinde_table(a1, 1, [2, 3], labels=(Weight((1,)),))
    assert with_labels.monotone_nondecreasing is None
    with pytest.raises(PreconditionError):
        verlinde_table(a1, 1, [])


def test_table_is_priced_before_its_first_level(monkeypatch):
    # k = 60 fits the limits and k = 1000 does not: the table is refused
    # before k = 60 is summed, not after
    def no_build(*args):
        raise AssertionError("weights built before the table was priced")

    monkeypatch.setattr(modular, "_weight_array", no_build)
    with pytest.raises(BudgetExceededError, match="level 1000 of A4"):
        verlinde_table(build_root_system("A", 4), 2, [60, 1000])


@pytest.mark.parametrize("rank, genus, leading", [
    (1, 2, Fraction(1, 6)), (1, 3, Fraction(1, 180)), (2, 2, Fraction(1, 20160)),
    (3, 2, Fraction(23, 653837184000))])
def test_leading_coefficient_is_the_top_difference(rank, genus, leading):
    assert verlinde._leading_coefficient(build_root_system("A", rank), genus) == leading


@pytest.mark.parametrize("level", [1, 8, 16])
def test_leading_coefficient_checks_the_degree(a3, monkeypatch, level):
    # one level moved by 1 moves the 16th difference over 0 .. 16 by +-C(16, k):
    # the integers are no polynomial of degree 15, and nothing is read off them
    exact = verlinde.verlinde_dimension
    monkeypatch.setattr(verlinde, "verlinde_dimension", lambda rs, k, *args: exact(
        rs, k, *args) + (k == level))
    with pytest.raises(CertificationError, match=r"V_2\(k\) of A3 over k = 0 \.\. 16 is "
                       r"not a polynomial of degree 15: its difference of order 16 is -?\d+"):
        verlinde._leading_coefficient(a3, 2)


@pytest.mark.parametrize("rank,genus,level,exact", [
    (1, 8, 13, 9466521548960000),
    (2, 3, 34, 5818898230761285),
    (1, 5, 44, 1194839723859233),
    (2, 3, 40, 63931672337540589),
    (1, 5, 10, 129443600),
])
def test_large_dimensions_are_exact(rank, genus, level, exact):
    # a binary64 sum printed a wrong integer for the first four and was
    # refused for the last
    assert verlinde_exact(rank, level, genus) == exact
    assert _dim(build_root_system("A", rank), level, genus) == exact


@pytest.mark.parametrize("rank,genus,levels", [
    (2, 2, (25, 38, 50)),
    (2, 3, (9, 22, 31)),
    (3, 2, (8, 11, 15)),
])
def test_levels_past_binary64_are_exact(rank, genus, levels):
    rs = build_root_system("A", rank)
    for k in levels:
        assert _dim(rs, k, genus) == verlinde_exact(rank, k, genus)


def test_dimension_past_the_binary64_range(a1):
    # about 1e373: the terms S[0,lam]^(2-2g) overflow binary64
    assert _dim(a1, 100, 80) == verlinde_exact(1, 100, 80, dps=600)
