"""Exact interpolation, minimal periods, pairing extraction."""

from fractions import Fraction as Q

import pytest

from oracles import verlinde_exact
from seifertsum.errors import PreconditionError, QuasiPolynomialFitError
from seifertsum.lie import Weight
from seifertsum.quasipoly import (
    QuasiPolynomial,
    _eval_poly,
    _newton_interpolate,
    fit_quasi_polynomial,
    pairing_report,
)


def test_newton_interpolation_recovers_monomials():
    coeffs = _newton_interpolate([(0, 1), (1, 2), (2, 5)])
    assert coeffs == (Q(1), Q(0), Q(1))
    assert _eval_poly(coeffs, Q(7)) == 50
    with pytest.raises(ValueError):
        _newton_interpolate([(1, 1), (1, 2)])


def test_eval_poly_horner():
    assert _eval_poly((Q(1), Q(-3), Q(2)), Q(1, 2)) == Q(1) - Q(3, 2) + Q(1, 2)


def _staircase(k):
    # floor(k^2/4) + 1, an honest period-2 quasi-polynomial
    return k * k // 4 + 1


def test_fit_finds_period_two():
    pts = [(k, _staircase(k)) for k in range(1, 13)]
    qp = fit_quasi_polynomial(pts, degree_bound=2)
    assert qp.period == 2
    assert qp.degree == 2
    assert qp.leading_by_class() == (Q(1, 4), Q(1, 4))
    for k in range(13, 25):
        assert qp.evaluate(k) == _staircase(k)


def test_fit_prefers_smallest_period():
    pts = [(k, k**3 - k) for k in range(1, 17)]
    qp = fit_quasi_polynomial(pts, degree_bound=3)
    assert qp.period == 1
    assert qp.coeffs == ((Q(0), Q(-1), Q(0), Q(1)),)


def test_fit_with_short_window_skips_infeasible_periods():
    # 12 samples cannot feed four cubic classes, yet the period-1 cubic
    # must still be found
    pts = [(k, 2 * k**3 + 5) for k in range(1, 13)]
    qp = fit_quasi_polynomial(pts, degree_bound=3, max_period=4)
    assert qp.period == 1
    assert qp.evaluate(40) == 2 * 40**3 + 5


def test_fit_failure_carries_best_residual():
    pts = [(k, _staircase(k)) for k in range(1, 13)]
    pts[5] = (6, _staircase(6) + 1)
    with pytest.raises(QuasiPolynomialFitError) as err:
        fit_quasi_polynomial(pts, degree_bound=2)
    assert err.value.best_residual is not None
    assert err.value.best_residual > 0


def test_fit_preconditions():
    with pytest.raises(PreconditionError):
        fit_quasi_polynomial([(1, 1), (2, 2)], degree_bound=2)
    with pytest.raises(PreconditionError):
        fit_quasi_polynomial([(1, 1), (1, 2), (2, 3)], degree_bound=1)
    with pytest.raises(PreconditionError):
        fit_quasi_polynomial([(0, 1), (1, 2), (2, 3)], degree_bound=1)
    with pytest.raises(PreconditionError):
        fit_quasi_polynomial([(1, 1), (2, 2)], degree_bound=-1)
    with pytest.raises(PreconditionError):
        # four samples interpolate a cubic with nothing left to verify
        fit_quasi_polynomial([(1, 1), (2, 9), (3, 36), (4, 100)],
                             degree_bound=3)
    with pytest.raises(PreconditionError):
        QuasiPolynomial(period=2, coeffs=((Q(1),),))
    with pytest.raises(PreconditionError):
        QuasiPolynomial(period=0, coeffs=())


def test_pairing_report_rank1_genus2(a1):
    rep = pairing_report(a1, genus=2, k_min=1, k_max=12)
    assert rep.qp.period == 1
    assert rep.degree == 3
    assert rep.expected_degree == 3
    assert rep.degree_matches
    assert rep.leading_by_class == (Q(1, 6),)
    assert rep.values[:3] == (4, 10, 20)
    assert all(e == 0 for e in rep.prediction_errors)
    assert [k for k, _ in rep.predictions] == [13, 14, 15, 16, 17]


def test_pairing_report_rank2_genus1(a2):
    rep = pairing_report(a2, genus=1, k_min=1, k_max=9, horizon=3)
    assert rep.degree == 2
    assert rep.expected_degree == 2
    # (k+1)(k+2)/2 counts the integrable weights
    assert rep.leading_by_class == (Q(1, 2),)
    assert all(e == 0 for e in rep.prediction_errors)


def test_pairing_report_with_labels(a1):
    rep = pairing_report(a1, genus=1, k_min=2, k_max=10,
                         labels=(Weight((2,)),), horizon=3)
    assert rep.labels == ((2,),)
    assert rep.expected_degree is None
    assert rep.degree_matches is None
    assert all(e == 0 for e in rep.prediction_errors)


def test_pairing_report_rank2_genus2_window_past_the_full_s_budget(a2):
    # levels 31..35 need S matrices past the 50M-operation budget; the
    # lattice sums read S row 0 only
    rep = pairing_report(a2, genus=2, k_min=1, k_max=30)
    assert rep.values == tuple(verlinde_exact(2, k, 2) for k in range(1, 31))
    assert rep.predictions == tuple((k, verlinde_exact(2, k, 2)) for k in range(31, 36))
    assert rep.prediction_errors == (0,) * 5
    assert rep.degree == rep.expected_degree == 8


def test_pairing_report_rejects_bad_windows(a1):
    with pytest.raises(PreconditionError):
        pairing_report(a1, genus=0, k_min=1, k_max=5)
    with pytest.raises(PreconditionError):
        pairing_report(a1, genus=2, k_min=5, k_max=1)
    with pytest.raises(PreconditionError):
        pairing_report(a1, genus=1, k_min=1, k_max=8, labels=(Weight((3,)),))


@pytest.mark.parametrize("horizon", [0, -1])
def test_pairing_report_refuses_an_empty_horizon(a1, horizon):
    # the predictions re-derived past the window are the fit's check
    with pytest.raises(PreconditionError, match="horizon must be >= 1"):
        pairing_report(a1, genus=2, k_min=1, k_max=8, horizon=horizon)
