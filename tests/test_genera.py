"""Equivariant genus point-functions and the truncated determinant product."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from seifertsum.errors import PreconditionError, WallProximityError
from seifertsum.genera import (
    a_hat_function,
    evaluate,
    j_function,
    j_inverse_sqrt,
    partial_euler_product,
    todd_function,
    wall_distance,
)
from seifertsum.lie import CartanElement, build_root_system


def _pt(*coords):
    return CartanElement(tuple(complex(c) for c in coords))


def test_j_at_origin_is_one(a2):
    assert j_function(a2, _pt(0, 0)) == pytest.approx(1.0, abs=1e-15)


def test_j_single_root_value(a1):
    # alpha(x) = 2 x_1 = 1 here, so j = (sin(1/2)/(1/2))^2
    got = j_function(a1, _pt(0.5))
    assert got == pytest.approx(0.9193953882637206, abs=1e-12)


def test_j_at_the_pi_point(a1):
    got = j_function(a1, _pt(math.pi / 2))
    assert got == pytest.approx(4 / math.pi ** 2, abs=1e-12)


def test_a_hat_single_root_value(a1):
    got = a_hat_function(a1, _pt(0.5), genus=2)
    assert got == pytest.approx(0.9206735942077923, abs=1e-12)


def test_todd_reduces_to_j_at_genus_zero(a1):
    x = _pt(0.5)
    assert todd_function(a1, x, genus=0) == pytest.approx(
        j_function(a1, x), abs=1e-14)


def test_todd_degree_factor(a2):
    x = _pt(0.3, 0.2)
    plain = todd_function(a2, x, genus=2)
    shifted = todd_function(a2, x, genus=2, c1_part=1.4)
    assert shifted == pytest.approx(plain * math.exp(0.7), rel=1e-13)


@given(
    coords=st.tuples(st.floats(-0.8, 0.8), st.floats(-0.8, 0.8)),
    genus=st.integers(0, 3),
)
def test_sinh_genus_is_j_at_rotated_argument(coords, genus):
    rs = build_root_system("A", 2)
    x = _pt(*coords)
    rotated = CartanElement(tuple(1j * c for c in x.coords))
    lhs = a_hat_function(rs, x, genus)
    rhs = j_function(rs, rotated) ** (1 - genus)
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


def test_half_density_squares_back(a2):
    x = _pt(0.41, 0.23)
    half = j_inverse_sqrt(a2, x)
    assert half.real > 0
    assert half ** 2 * j_function(a2, x) == pytest.approx(1.0, abs=1e-12)


def test_half_density_refuses_walls(a1):
    # alpha(x) = 2 x_1 = 2 pi sits on a determinant zero
    with pytest.raises(WallProximityError):
        j_inverse_sqrt(a1, _pt(math.pi))


def test_wall_distance(a1):
    assert wall_distance(a1, _pt(math.pi)) == pytest.approx(0.0, abs=1e-12)
    assert wall_distance(a1, _pt(0.5)) == pytest.approx(2 * math.pi - 1, abs=1e-12)


@pytest.mark.parametrize("rank", [1, 2])
def test_truncated_product_error_decreases(rank):
    rs = build_root_system("A", rank)
    rng = np.random.default_rng(7)
    for _ in range(5):
        x = _pt(*(0.1 + 1.1 * rng.random(rank)))
        exact = j_function(rs, x)
        errs = [abs(partial_euler_product(rs, x, n) - exact)
                for n in (100, 1000, 10000)]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-3


def test_truncated_product_rate(a1):
    x = _pt(0.6)
    exact = j_function(a1, x)
    e1 = abs(partial_euler_product(a1, x, 400) - exact)
    e2 = abs(partial_euler_product(a1, x, 800) - exact)
    # first order rate: doubling the cutoff should roughly halve the error
    assert e2 < 0.7 * e1


def test_evaluate_dispatch(a1):
    x = _pt(0.5)
    assert evaluate(a1, "j", x, 0, 0.0) == pytest.approx(j_function(a1, x))
    assert evaluate(a1, "ahat", x, 2, 0.0) == pytest.approx(a_hat_function(a1, x, 2))
    assert evaluate(a1, "todd", x, 1, 0.5) == pytest.approx(todd_function(a1, x, 1, 0.5))
    with pytest.raises(PreconditionError):
        evaluate(a1, "chern", x, 0, 0.0)
