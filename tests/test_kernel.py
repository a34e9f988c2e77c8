"""The determinant kernel for Weyl alternating sums, and the modular
layer built on it, against explicit Weyl-group enumeration."""

import itertools
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from seifertsum.errors import CertificationError
from seifertsum.lie import (
    CartanElement,
    Weight,
    _alternating_sum,
    build_root_system,
    weyl_group,
)
from seifertsum.modular import integrable_weights, s_matrix
from seifertsum.orbits import dh_weyl_sum, orbit_from_highest_weight


def _brute_force_sum(rs, lam, x_coords, dps):
    """sum over weyl_group(rs) of eps(w) e^{<w lam, x>}, and sum |terms|,
    at dps digits."""
    with mp.workdps(dps):
        xs = [mp.mpc(c) for c in x_coords]
        terms = [el.sign * mp.exp(sum(m * c for m, c in zip(el.apply_weight(lam), xs)))
                 for el in weyl_group(rs)]
        return mp.fsum(terms), mp.fsum(abs(t) for t in terms)


_complex = st.builds(complex, st.floats(-1, 1), st.floats(-1, 1))


@given(data=st.data(), rank=st.integers(1, 4))
def test_kernel_matches_weyl_enumeration(data, rank):
    rs = build_root_system("A", rank)
    lam = data.draw(st.tuples(*[st.integers(-2, 4)] * rank))
    x = data.draw(st.tuples(*[_complex] * rank))
    want, scale = _brute_force_sum(rs, lam, x, dps=30)
    got = _alternating_sum(lam, x, dps=30)
    assert abs(got - want) <= mp.mpf(10) ** -26 * scale


def _weyl_enumeration_s(rs, level):
    """Kac-Peterson S summed term by term over the enumerated Weyl group."""
    kappa = level + rs.dual_coxeter
    gram = np.array([[float(v) for v in row] for row in rs.gram_fw])
    lams = np.array([[c + 1 for c in w.coords] for w in integrable_weights(rs, level)],
                    dtype=float)
    acc = np.zeros((len(lams), len(lams)), dtype=complex)
    for el in weyl_group(rs):
        moved = lams @ np.array(el.weight_matrix, dtype=float).T
        acc += el.sign * np.exp(-2j * math.pi * (moved @ gram @ lams.T) / kappa)
    det_cartan = rs.rank + 1
    return (1j ** rs.num_positive_roots) / math.sqrt(kappa ** rs.rank * det_cartan) * acc


@pytest.mark.parametrize("rank,level", [(1, 9), (2, 5), (3, 3), (4, 2)])
def test_s_matrix_matches_weyl_enumeration(rank, level):
    rs = build_root_system("A", rank)
    md = s_matrix(rs, level)
    assert md.precision_bits == 53
    assert np.abs(np.asarray(md.s) - _weyl_enumeration_s(rs, level)).max() <= 1e-12


def _stationary_phase_reference(weight, point, dps=60):
    """sum_{sigma in S_{r+1}} sgn(sigma) e^{i sum_j e_sigma(j) y_j} / prod_{i<j} i(y_i - y_j)

    in epsilon coordinates, moved 1e-30 off the walls along a regular
    direction (the quotient is entire in the point).
    """
    n = len(weight) + 1
    e = [sum(c + 1 for c in weight[i:]) for i in range(n - 1)] + [0]
    with mp.workdps(dps):
        x = [mp.mpf(0)] + [mp.mpf(repr(c)) for c in point] + [mp.mpf(0)]
        y = [x[j + 1] - x[j] + mp.mpf(10) ** -30 * (n - j) for j in range(n)]
        num = mp.mpc(0)
        for perm in itertools.permutations(range(n)):
            inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
            num += (-1) ** inversions * mp.expj(mp.fsum(e[perm[j]] * y[j] for j in range(n)))
        den = mp.mpc(1)
        for a in range(n):
            for b in range(a + 1, n):
                den *= 1j * (y[a] - y[b])
        return complex(num / den)


def test_stationary_phase_sum_on_a_wall():
    # alpha_2(x) = 2*0.4 - 0.3 - 0.5 = 0: the binary64 quotient is 0/0
    rs = build_root_system("A", 3)
    weight, point = (2, 1, 1), (0.3, 0.4, 0.5)
    got, _ = dh_weyl_sum(orbit_from_highest_weight(rs, Weight(weight)),
                         CartanElement(point))
    want = _stationary_phase_reference(weight, point)
    assert want == pytest.approx(100.96109102479 + 1.33215423896j, rel=1e-11)
    assert abs(got - want) <= 1e-9 * abs(want)


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_integrable_weight_count_and_order(rank):
    rs = build_root_system("A", rank)
    for level in range(6):
        coords = [w.coords for w in integrable_weights(rs, level)]
        assert len(coords) == math.comb(level + rank, rank)
        box = [c for c in itertools.product(range(level + 1), repeat=rank)
               if rs.level_of(Weight(c)) <= level]
        assert coords == box


def test_s_matrix_refuses_an_unreachable_tolerance(a1):
    # no binary64 S meets 1e-30
    with pytest.raises(CertificationError, match="failed in binary64") as info:
        s_matrix(a1, 3, tol=1e-30)
    exc = info.value
    assert exc.threshold == 1e-30
    assert exc.precision == "binary64"
    assert set(exc.residuals) == {"unitarity", "symmetry", "row0_imag", "row0_min",
                                  "conjugation_permutation", "st_cubed", "involution"}
    assert max(exc.residuals[k] for k in ("unitarity", "symmetry", "st_cubed")) >= 1e-30
    message = str(exc)
    assert "threshold 1e-30" in message and "'st_cubed'" in message
