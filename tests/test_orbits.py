"""Orbit transforms, stationary phase, quadrature, Wilson weights."""

import functools
import math

import mpmath as mp
import numpy as np
import pytest

from oracles import character_reference, sinc_product_reference
from seifertsum import modular
from seifertsum.errors import DegenerateOrbitError, PreconditionError
from seifertsum.lie import (
    CartanElement,
    Weight,
    build_root_system,
    weyl_character,
)
from seifertsum.orbits import (
    CoadjointOrbit,
    dh_weyl_sum,
    kirillov_check,
    orbit_fourier,
    orbit_from_highest_weight,
    quantum_character_point,
    su2_orbit_quadrature,
    wilson_weight,
)


def test_orbit_construction(a2):
    orbit = orbit_from_highest_weight(a2, Weight((1, 2)))
    assert orbit.lam.coords == (2, 3)
    assert orbit.regular
    assert orbit.dimension == 6
    with pytest.raises(PreconditionError):
        orbit_from_highest_weight(a2, Weight((-1, 0)))


def test_transforms_at_origin_give_dimension(a2):
    orbit = orbit_from_highest_weight(a2, Weight((1, 2)))
    zero = CartanElement((0.0, 0.0))
    assert orbit_fourier(orbit, zero)[0] == 15
    assert dh_weyl_sum(orbit, zero)[0] == 15


def test_degenerate_orbits_are_refused(a1):
    orbit = CoadjointOrbit(a1, Weight((0,)))
    assert not orbit.regular
    x = CartanElement((0.3,))
    with pytest.raises(DegenerateOrbitError):
        orbit_fourier(orbit, x)
    with pytest.raises(DegenerateOrbitError):
        dh_weyl_sum(orbit, x)


def test_rank1_stationary_phase_closed_form(a1):
    # sum over W divided by i alpha(x) collapses to sin(lam t)/t
    for m in (0, 1, 4):
        orbit = orbit_from_highest_weight(a1, Weight((m,)))
        lam = m + 1
        for t in (0.2, 0.9, 2.3):
            got, _ = dh_weyl_sum(orbit, CartanElement((t,)))
            assert got == pytest.approx(math.sin(lam * t) / t, abs=1e-12)


def test_sphere_quadrature_matches_weyl_sum(a1):
    for twice_j in range(0, 13, 2):
        j_label = twice_j / 2
        orbit = orbit_from_highest_weight(a1, Weight((int(2 * j_label),)))
        for t in np.linspace(0.05, 2.0, 20):
            quad = su2_orbit_quadrature(j_label, float(t))
            ws, _ = dh_weyl_sum(orbit, CartanElement((float(t),)))
            assert abs(quad - ws) < 1e-10


def _transform(name, rs, weight, x):
    if name == "weyl_character":
        return weyl_character(rs, weight, x)
    fn = orbit_fourier if name == "orbit_fourier" else dh_weyl_sum
    return fn(orbit_from_highest_weight(rs, weight), x)


@functools.lru_cache(maxsize=None)
def _reference(name, rank, labels, coords):
    """The evaluator at 40 digits from exact weight multiplicities."""
    rs = build_root_system("A", rank)
    if name == "dh_weyl_sum":
        value = character_reference(rs, Weight(labels), [1j * c for c in coords])
    else:
        value = character_reference(rs, Weight(labels), coords)
    if name != "weyl_character":
        value *= sinc_product_reference(rs, coords)
    return value


def _within_bound(name, rank, labels, coords):
    got, bound = _transform(name, build_root_system("A", rank), Weight(labels),
                            CartanElement(coords))
    with mp.workdps(40):
        return abs(got - _reference(name, rank, labels, coords)) <= bound


def _wall_point(rng, rank):
    """Dyadic coordinates with alpha_i(x) = 2 x_i - x_(i-1) - x_(i+1) = 0
    exactly, for one simple root i; x[-1] = 0 stands for x_0 and x_(r+1)."""
    x = [int(k) / 8 for k in rng.integers(-8, 9, rank)] + [0.0]
    i = int(rng.integers(rank))
    x[i] = (x[i - 1] + x[i + 1]) / 2
    return tuple(complex(c) for c in x[:rank])


def _property_cases():
    """Random A1-A4 weights with labels <= 3, each at a real, a complex, a
    wall and the zero point."""
    rng = np.random.default_rng(22)
    cases = []
    for rank in (1, 2, 3, 4):
        for _ in range(3):
            labels = tuple(int(c) for c in rng.integers(0, 4, rank))
            real = tuple(complex(c) for c in rng.uniform(-1, 1, rank))
            cplx = tuple(complex(a, b) for a, b in rng.uniform(-1, 1, (rank, 2)))
            for coords in (real, cplx, _wall_point(rng, rank), (0j,) * rank):
                cases.append((rank, labels, coords))
    return cases


@pytest.mark.parametrize("name", ["weyl_character", "orbit_fourier", "dh_weyl_sum"])
def test_every_evaluator_is_within_its_bound(name):
    for rank, labels, coords in _property_cases():
        assert _within_bound(name, rank, labels, coords), (rank, labels, coords)
    coords = build_root_system("A", 5).cartan_point((0.3, 0.5, 0.2, 0.6, 0.4)).coords
    assert _within_bound(name, 5, (1, 0, 2, 0, 1), coords)


def test_quadrature_input_validation():
    with pytest.raises(PreconditionError):
        su2_orbit_quadrature(0.3, 1.0)


def test_character_identity_residuals():
    rng = np.random.default_rng(11)
    for series, rank in (("A", 1), ("A", 2), ("A", 3)):
        rs = build_root_system(series, rank)
        for _ in range(6):
            weight = Weight(tuple(int(c) for c in rng.integers(0, 5, rank)))
            x = CartanElement(tuple(0.15 + 0.6 * rng.random(rank)))
            assert kirillov_check(rs, weight, x) < 1e-12


def test_character_identity_at_singular_point(a2):
    # alpha_1(x) = 2 x_1 - x_2 vanishes here, where both sides of the
    # multiplied-out character formula vanish too
    x = CartanElement((0.15, 0.3))
    assert kirillov_check(a2, Weight((2, 1)), x) < 1e-8


def test_character_identity_with_complex_argument(a2):
    x = CartanElement((0.25 + 0.1j, 0.4 - 0.05j))
    assert kirillov_check(a2, Weight((1, 1)), x) < 1e-9


def test_quantum_point_rank1_closed_form(a1):
    level = 3
    kappa = level + 2
    for m in range(level + 1):
        x = quantum_character_point(a1, Weight((m,)), level)
        want = -1j * math.pi * (m + 1) / kappa
        assert x.coords[0] == pytest.approx(want, abs=1e-15)


@pytest.mark.parametrize("series,rank,level", [("A", 1, 5), ("A", 2, 3)])
def test_wilson_weight_is_character_at_quantum_point(series, rank, level):
    rs = build_root_system(series, rank)
    from seifertsum.modular import integrable_weights

    ws = integrable_weights(rs, level)
    for label in ws:
        for lam in ws:
            w = wilson_weight(rs, label, lam, level)
            chi, _ = weyl_character(rs, label, quantum_character_point(rs, lam, level))
            assert abs(w - chi) < 1e-8


@pytest.mark.parametrize("rank, level", [(1, 5), (2, 3)])
def test_wilson_weight_reads_two_rows_of_the_certified_s(rank, level, monkeypatch):
    rs = build_root_system("A", rank)
    md = modular.s_matrix(rs, level)

    def no_s(*args, **kwargs):
        raise AssertionError("wilson_weight built the whole S")

    monkeypatch.setattr(modular, "s_matrix", no_s)
    for i, label in enumerate(md.weights):
        for j, lam in enumerate(md.weights):
            assert wilson_weight(rs, label, lam, level) == complex(md.s[i, j] / md.s[0, j])


def test_wilson_weight_of_vacuum_label_is_one(a2):
    from seifertsum.modular import integrable_weights

    for lam in integrable_weights(a2, 2):
        assert wilson_weight(a2, Weight((0, 0)), lam, 2) == pytest.approx(1.0)
