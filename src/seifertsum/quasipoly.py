"""Exact quasi-polynomial structure of fusion dimension tables.

A quasi-polynomial of period T is a family of T polynomials, one per
residue class of the argument mod T. Fitting is exact: coefficients are
rational, interpolation goes through Newton divided differences over
Fraction arithmetic, and a candidate (T, class polynomials) is accepted
only when every supplied sample is reproduced exactly. The smallest
period that works wins.

The leading coefficient of the fitted polynomial is the quantity of
interest: for a genus g table without punctures it carries the volume
of the underlying moduli space, and the degree equals its complex
dimension, (g-1) dim(g) for g >= 2 and the rank for g = 1.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import PreconditionError, QuasiPolynomialFitError
from .lie import RootSystem, Weight
from .modular import price_level
from .verlinde import verlinde_dimension

DEFAULT_MAX_PERIOD = 4


class QuasiPolynomial(NamedTuple("QuasiPolynomial", [
        ("period", int),
        ("coeffs", tuple[tuple[Fraction, ...], ...]),  # ascending, one tuple per residue
])):
    __slots__ = ()

    def __new__(cls, period, coeffs):
        if period < 1 or len(coeffs) != period:
            raise PreconditionError("need one coefficient tuple per residue class")
        return super().__new__(cls, period, coeffs)

    @property
    def degree(self) -> int:
        return max(max((i for i, c in enumerate(cls) if c != 0), default=0)
                   for cls in self.coeffs)

    def leading_by_class(self) -> tuple[Fraction, ...]:
        d = self.degree
        return tuple(cls[d] if d < len(cls) else Fraction(0) for cls in self.coeffs)

    def evaluate(self, k: int) -> Fraction:
        cls = self.coeffs[k % self.period]
        return _eval_poly(cls, Fraction(k))


def _newton_interpolate(points) -> tuple[Fraction, ...]:
    """Exact polynomial through the given (x, y) points.

    Returns monomial coefficients in ascending order; length == len(points),
    trailing zeros not trimmed. Divided differences keep everything rational.
    """
    xs = [Fraction(x) for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ValueError("duplicate interpolation nodes")
    coef = [Fraction(y) for _, y in points]
    n = len(points)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - j])
    # Horner expansion of the Newton form into monomial coefficients.
    poly = [coef[n - 1]]
    for i in range(n - 2, -1, -1):
        shifted = [Fraction(0)] + poly
        poly = [a - xs[i] * b for a, b in zip(shifted, poly + [Fraction(0)])]
        poly[0] += coef[i]
    return tuple(poly)


def _eval_poly(coeffs, x) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _trim(coeffs):
    out = list(coeffs)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def fit_quasi_polynomial(points, degree_bound: int,
                         max_period: int = DEFAULT_MAX_PERIOD) -> QuasiPolynomial:
    """Minimal-period exact fit of integer-argument samples.

    points: iterable of (k, value) with distinct positive integer k and
    rational value. A candidate period is tried only when each of its
    residue classes holds degree_bound + 1 interpolation nodes and at
    least one sample overall is left to cross-validate the fit; a
    candidate that merely interpolates would accept arbitrary data.
    Raises QuasiPolynomialFitError when no feasible period up to
    max_period reproduces all samples; best_residual then reports how
    close the best candidate came.
    """
    pts = sorted((int(k), Fraction(v)) for k, v in points)
    if degree_bound < 0 or max_period < 1:
        raise PreconditionError("degree_bound must be >= 0 and max_period >= 1")
    if any(k < 1 for k, _ in pts):
        raise PreconditionError("sample arguments must be positive")
    if len(set(k for k, _ in pts)) != len(pts):
        raise PreconditionError("duplicate sample arguments")
    if len(pts) < degree_bound + 1:
        raise PreconditionError(
            "need at least %d samples for degree %d, got %d"
            % (degree_bound + 1, degree_bound, len(pts)))

    best_residual = None
    evaluated_any = False
    for period in range(1, max_period + 1):
        classes = [[] for _ in range(period)]
        for k, v in pts:
            classes[k % period].append((k, v))
        if (any(len(cls) < degree_bound + 1 for cls in classes)
                or len(pts) < period * (degree_bound + 1) + 1):
            continue
        evaluated_any = True
        fitted = []
        worst = Fraction(0)  # the fit is exact while this stays 0
        for cls in classes:
            coeffs = _newton_interpolate(cls[:degree_bound + 1])
            for k, v in cls[degree_bound + 1:]:
                worst = max(worst, abs(_eval_poly(coeffs, Fraction(k)) - v))
            fitted.append(_trim(coeffs))
        if worst == 0:
            return QuasiPolynomial(period=period, coeffs=tuple(fitted))
        res = float(worst)
        best_residual = res if best_residual is None else min(best_residual, res)
    if not evaluated_any:
        raise PreconditionError(
            "no candidate period leaves a cross-validation sample; "
            "supply more than %d samples" % (degree_bound + 1))
    raise QuasiPolynomialFitError(
        "no quasi-polynomial of degree <= %d and period <= %d matches the samples"
        % (degree_bound, max_period), best_residual=best_residual)


class PairingReport(NamedTuple):
    genus: int
    labels: tuple[tuple[int, ...], ...]
    levels: tuple[int, ...]
    values: tuple[int, ...]
    qp: QuasiPolynomial
    degree: int
    expected_degree: int | None
    degree_matches: bool | None
    leading_by_class: tuple[Fraction, ...]
    predictions: tuple[tuple[int, int], ...]
    prediction_errors: tuple[int, ...]


def pairing_report(rs: RootSystem, genus: int, k_min: int, k_max: int,
                   labels: tuple[Weight, ...] = (), degree_bound: int | None = None,
                   max_period: int = DEFAULT_MAX_PERIOD,
                   horizon: int = 5) -> PairingReport:
    """Fit a level window of fusion dimensions and extrapolate past it.

    The window [k_min, k_max] is fitted exactly; the next `horizon`
    levels are predicted from the fit and re-derived independently, so
    the report carries the actual prediction errors (all zero for a
    sound fit).
    """
    if genus < 1:
        raise PreconditionError("genus must be >= 1")
    if k_min < 1 or k_max < k_min:
        raise PreconditionError("need 1 <= k_min <= k_max")
    if horizon < 1:
        raise PreconditionError("horizon must be >= 1, got %d" % horizon)
    labels = tuple(labels)
    # the degree of the unlabelled table: rank at genus 1, else (g-1) dim
    base = rs.rank if genus == 1 else (genus - 1) * rs.dimension
    if degree_bound is None:
        degree_bound = base + len(labels) * rs.num_positive_roots
    levels = tuple(range(k_min, k_max + 1))
    if any(rs.level_of(lab) > k_min for lab in labels):
        raise PreconditionError(
            "labels must be integrable at every level of the window")
    # the horizon's top level is the window's largest, priced before the first is summed
    price_level(rs, k_max + horizon, rows=len(labels) + bool(labels))
    values = tuple(verlinde_dimension(rs, k, genus, labels) for k in levels)
    qp = fit_quasi_polynomial(zip(levels, values), degree_bound=degree_bound,
                              max_period=max_period)
    expected = None if labels else base
    matches = None if labels else qp.degree == base
    preds = []
    errors = []
    for k in range(k_max + 1, k_max + 1 + horizon):
        pred = qp.evaluate(k)
        if pred.denominator != 1:
            raise QuasiPolynomialFitError(
                "prediction at level %d is not integral: %s" % (k, pred))
        preds.append((k, int(pred)))
        direct = verlinde_dimension(rs, k, genus, labels)
        errors.append(int(pred) - direct)
    return PairingReport(genus=genus, labels=tuple(lab.coords for lab in labels),
                         levels=levels, values=values, qp=qp, degree=qp.degree,
                         expected_degree=expected, degree_matches=matches,
                         leading_by_class=qp.leading_by_class(),
                         predictions=tuple(preds),
                         prediction_errors=tuple(errors))
