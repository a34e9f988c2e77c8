"""Block-space dimensions against an independent fusion-rule oracle."""

import itertools

import pytest
from mpmath import iv

from oracles import (
    blocks_genus1,
    blocks_genus2,
    blocks_sphere3,
    fusion_coefficients,
    verlinde_exact,
)
from seifertsum.errors import IntegralityError, PreconditionError
from seifertsum.lie import Weight, _shifted_epsilon, build_root_system
from seifertsum.modular import integrable_weights
from seifertsum.verlinde import (
    VerlindeRequest,
    _certified_sum,
    _round_integral,
    verlinde_dimension,
    verlinde_sum,
    verlinde_table,
)


def _dim(rs, level, genus, labels=()):
    return verlinde_dimension(
        VerlindeRequest(rs=rs, level=level, genus=genus, labels=tuple(labels)))


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
    value = verlinde_sum(VerlindeRequest(rs=a1, level=6, genus=2))
    assert abs(value.imag) < 1e-9


def test_rounding_guard():
    with pytest.raises(IntegralityError):
        _round_integral(0.5 + 0j, "test value")
    with pytest.raises(IntegralityError):
        _round_integral(-1.0 + 0j, "test value")
    assert _round_integral(3.0 + 1e-12j, "test value") == 3


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


def _interval_sum(rs, level, genus, labels, dps):
    """An mpmath.iv enclosure of the Verlinde sum: each term at dps digits,
    row 0 from the sine product, label entries as explicit Weyl sums, and
    the terms added at dps + 20 digits."""
    n = rs.rank + 1
    kappa = level + n
    order = n * kappa
    iv.dps = dps
    zeta = [iv.mpc(iv.cos(2 * iv.pi * x / order), -iv.sin(2 * iv.pi * x / order))
            for x in range(order)]
    # sin(pi d/kappa) = sin(pi (kappa-d)/kappa), and the smaller argument
    # keeps the enclosure narrow
    sines = [2 * iv.sin(iv.pi * min(d, kappa - d) / kappa) for d in range(kappa)]
    norm = 1 / iv.sqrt(iv.mpf(n) * iv.mpf(kappa) ** rs.rank)
    phase = iv.mpc(*[(1, 0), (0, 1), (-1, 0), (0, -1)][rs.num_positive_roots % 4])
    perms = [(perm, (-1) ** sum(perm[a] > perm[b]
                                for a in range(n) for b in range(a + 1, n)))
             for perm in itertools.permutations(range(n))]
    total = iv.mpc(0)
    for w in integrable_weights(rs, level):
        m = _shifted_epsilon(w.coords)
        term = norm
        for i in range(n):
            for j in range(i + 1, n):
                term *= sines[m[i] - m[j]]
        term = iv.mpc(term ** (2 - 2 * genus - len(labels)))
        for lab in labels:
            e = _shifted_epsilon(lab.coords)
            entry = iv.mpc(0)
            for perm, sign in perms:
                x = n * sum(e[perm[i]] * m[i] for i in range(n)) - sum(e) * sum(m)
                entry += sign * zeta[x % order]
            term *= entry * norm * phase
        iv.dps = dps + 20
        total += term
        iv.dps = dps
    return total


@pytest.mark.parametrize("rank,genus,level,labels", [
    (1, 8, 13, ()),
    (2, 3, 34, ()),
    (2, 3, 15, ((1, 1),)),
])
def test_error_bound_covers_an_interval_enclosure(rank, genus, level, labels):
    rs = build_root_system("A", rank)
    labels = tuple(Weight(lab) for lab in labels)
    value, error, precision = _certified_sum(
        VerlindeRequest(rs=rs, level=level, genus=genus, labels=labels))
    assert precision.startswith("dps=")
    dps = int(precision[len("dps="):])
    saved = iv.prec
    try:
        enclosure = _interval_sum(rs, level, genus, labels, dps)
        iv.dps = dps + 20  # compare the mp value at its full precision
        assert value.real in enclosure.real
        assert value.imag in enclosure.imag
    finally:
        iv.prec = saved
    assert error >= max(enclosure.real.delta, enclosure.imag.delta) / 2


def test_dimension_past_the_binary64_range(a1):
    # about 1e373: the terms S[0,lam]^(2-2g) overflow binary64
    assert _dim(a1, 100, 80) == verlinde_exact(1, 100, 80, dps=600)
