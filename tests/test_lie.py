"""Root systems, Weyl groups, exact invariants and characters."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    _ip,
    character_reference,
    character_value,
    dimension_value,
    integer_determinant,
)
from seifertsum.errors import (
    PreconditionError,
    UnsupportedAlgebraError,
    WeylGroupTooLargeError,
)
from seifertsum.lie import (
    CartanElement,
    Weight,
    build_root_system,
    casimir,
    weyl_character,
    weyl_dimension,
    weyl_group,
)


@pytest.mark.parametrize("rank", [1, 2, 3, 4, 5, 6])
def test_gram_inverts_cartan_exactly(rank):
    rs = build_root_system("A", rank)
    for i in range(rank):
        for j in range(rank):
            entry = sum(Fraction(rs.cartan[i][k]) * rs.gram_fw[k][j]
                        for k in range(rank))
            assert entry == (1 if i == j else 0)


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_counting_invariants(rank):
    rs = build_root_system("A", rank)
    assert rs.num_positive_roots == rank * (rank + 1) // 2
    assert rs.dimension == rank * (rank + 2)
    assert rs.dual_coxeter == rank + 1
    assert rs.centre_order == rank + 1
    assert len(weyl_group(rs)) == math.factorial(rank + 1)


def test_rho_and_highest_root(a2):
    assert a2.rho.coords == (1, 1)
    assert tuple(a2.highest_root_fw) == (1, 1)
    assert a2.level_of(Weight((1, 1))) == 2
    a1 = build_root_system("A", 1)
    assert tuple(a1.highest_root_fw) == (2,)


def test_roots_have_norm_two(a3):
    for alpha in a3.positive_roots_fw:
        assert a3.ip(alpha, alpha) == 2


def test_weyl_signs_are_determinants(a2):
    for w in weyl_group(a2):
        assert integer_determinant(w.weight_matrix) == w.sign


def test_weyl_group_closure_is_a_group(a2):
    mats = {w.weight_matrix for w in weyl_group(a2)}
    for w in weyl_group(a2):
        for v in weyl_group(a2):
            prod = tuple(
                tuple(sum(w.weight_matrix[i][k] * v.weight_matrix[k][j]
                          for k in range(2)) for j in range(2))
                for i in range(2))
            assert prod in mats


DIM_CASES = [
    ("A", 1, (3,), 4),
    ("A", 2, (1, 0), 3),
    ("A", 2, (1, 1), 8),
    ("A", 2, (3, 0), 10),
    ("A", 2, (1, 2), 15),
    ("A", 3, (1, 0, 0), 4),
    ("A", 3, (1, 1, 1), 64),
    ("A", 3, (2, 0, 1), 36),
]


@pytest.mark.parametrize("series,rank,coords,expected", DIM_CASES)
def test_weyl_dimension_against_multiplicity_sum(series, rank, coords, expected):
    rs = build_root_system(series, rank)
    w = Weight(coords)
    assert weyl_dimension(rs, w) == expected
    assert dimension_value(rs, w) == expected


def test_casimir_values(a1, a2):
    assert casimir(a1, Weight((1,))) == Fraction(3, 2)
    assert casimir(a2, Weight((1, 1))) == 6
    assert casimir(a2, Weight((0, 0))) == 0


# level cap per rank, so the Freudenthal oracle stays fast
_ORACLE_LEVEL = {1: 8, 2: 5, 3: 3, 4: 2, 5: 2}


@st.composite
def _rank_weight_and_vector(draw):
    rank = draw(st.integers(1, 5))
    coords, budget = [], _ORACLE_LEVEL[rank]
    for _ in range(rank):
        coords.append(draw(st.integers(0, budget)))
        budget -= coords[-1]
    other = draw(st.tuples(*[st.integers(-4, 4)] * rank))
    return rank, tuple(coords), other


@given(case=_rank_weight_and_vector())
def test_invariants_match_gram_and_freudenthal_oracles(case):
    rank, coords, other = case
    rs = build_root_system("A", rank)
    w = Weight(coords)
    # the oracle's integer epsilon form against the Gram matrix of the fundamental weights
    gram = sum(Fraction(u) * rs.gram_fw[i][j] * v
               for i, u in enumerate(coords) for j, v in enumerate(other))
    assert rs.ip(coords, other) == _ip(rs, coords, other) == gram
    assert rs.ip(other, other) == _ip(rs, other, other)
    assert casimir(rs, w) == _ip(rs, coords, tuple(c + 2 for c in coords))
    assert rs.level_of(w) == _ip(rs, coords, rs.highest_root_fw)
    assert weyl_dimension(rs, w) == dimension_value(rs, w)


def test_casimir_refuses_non_dominant(a2):
    with pytest.raises(PreconditionError):
        casimir(a2, Weight((-1, 2)))


CHAR_CASES = [
    ("A", 1, (3,), (0.31,)),
    ("A", 2, (1, 2), (0.23, 0.41)),
    ("A", 2, (2, 2), (0.2 + 0.1j, 0.37)),
    ("A", 3, (1, 1, 1), (0.19, 0.23, 0.31)),
]


@pytest.mark.parametrize("series,rank,coords,x", CHAR_CASES)
def test_character_matches_multiplicity_sum(series, rank, coords, x):
    rs = build_root_system(series, rank)
    w = Weight(coords)
    xc = CartanElement(tuple(complex(c) for c in x))
    got, _ = weyl_character(rs, w, xc)
    want = character_value(rs, w, x)
    assert abs(got - want) < 1e-9 * max(1.0, abs(want))


def test_character_at_zero_is_dimension(a2):
    x0 = CartanElement((0j, 0j))
    assert weyl_character(a2, Weight((1, 2)), x0)[0] == 15


def test_character_on_a_reflection_wall(a2):
    # alpha_2(x) = 0 here, where the determinant ratio would be 0/0
    x = CartanElement((0.4 + 0j, 0.2 + 0j))
    got, bound = weyl_character(a2, Weight((1, 2)), x)
    want = character_reference(a2, Weight((1, 2)), (0.4, 0.2))
    assert abs(got - want) <= bound


@pytest.mark.parametrize("rank,labels,point", [
    (3, (1, 0, 2), (0, 0, 0.7)),  # alpha_1(x) = alpha_2(x) = 0
    (5, (1, 0, 2, 0, 1), (0.3, 0.5, 0.2, 0.6, 0.4)),
])
def test_character_bound_is_relative_at_real_points(rank, labels, point):
    rs = build_root_system("A", rank)
    x = rs.cartan_point(point)
    got, bound = weyl_character(rs, Weight(labels), x)
    assert bound <= 1e-13 * abs(got)
    assert abs(got - character_reference(rs, Weight(labels), x.coords)) <= bound


def test_character_is_weyl_invariant(a2):
    x = CartanElement((0.31 + 0j, 0.17 + 0j))
    w = Weight((2, 1))
    base, _ = weyl_character(a2, w, x)
    for g in weyl_group(a2):
        moved = CartanElement(g.apply_cartan(x.coords))
        assert abs(weyl_character(a2, w, moved)[0] - base) < 1e-9 * abs(base)


def test_cartan_point_scaling(a1):
    x = a1.cartan_point((1,), scale=2.0)
    # gram of the single fundamental weight is 1/2
    assert x.coords == (1.0,)


def test_unsupported_algebra():
    with pytest.raises(UnsupportedAlgebraError):
        build_root_system("B", 2)
    with pytest.raises(PreconditionError):
        build_root_system("A", 0)


def test_weyl_bound_enforced(a3):
    with pytest.raises(WeylGroupTooLargeError):
        weyl_group(a3, max_order=5)


@given(coords=st.tuples(st.integers(0, 4), st.integers(0, 4)))
def test_dominant_weight_properties(coords):
    rs = build_root_system("A", 2)
    w = Weight(coords)
    dim = weyl_dimension(rs, w)
    assert dim >= 1
    assert casimir(rs, w) >= 0
    assert rs.level_of(w) == sum(coords)
    x0 = CartanElement((0j, 0j))
    assert weyl_character(rs, w, x0)[0] == dim


def test_records_normalise_their_coordinates_and_refuse_assignment(a2):
    # a list and an int64 row both give the record of plain ints that a tuple gives
    for w in (Weight([1, 2]), Weight(np.array([[1, 2]], dtype=np.int64)[0])):
        assert w == Weight((1, 2)) and hash(w) == hash(Weight((1, 2)))
        assert [type(c) for c in w.coords] == [int, int]
    assert repr(Weight((1, 2))) == "Weight(coords=(1, 2))"
    x = CartanElement([1, np.float64(0.5)])
    assert x.coords == (1 + 0j, 0.5 + 0j) and [type(c) for c in x.coords] == [complex, complex]
    for record, field in ((Weight((1, 2)), "coords"), (x, "coords"), (a2, "rank")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
