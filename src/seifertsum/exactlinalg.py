"""Small exact linear algebra helpers over fractions.Fraction.

Used for Cartan determinants and quasi-polynomial interpolation, where
floating point is forbidden.
"""

from __future__ import annotations

from fractions import Fraction as Q
from typing import Sequence


def rational_determinant(rows: Sequence[Sequence]) -> Q:
    n = len(rows)
    mat = [[Q(rows[i][j]) for j in range(n)] for i in range(n)]
    det = Q(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if mat[r][col] != 0), None)
        if pivot is None:
            return Q(0)
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            det = -det
        det *= mat[col][col]
        inv = Q(1) / mat[col][col]
        for r in range(col + 1, n):
            if mat[r][col] != 0:
                factor = mat[r][col] * inv
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[col])]
    return det


def newton_interpolate(points: Sequence[tuple]) -> tuple[Q, ...]:
    """Exact polynomial through the given (x, y) points.

    Returns monomial coefficients in ascending order; length == len(points),
    trailing zeros not trimmed. Divided differences keep everything rational.
    """
    xs = [Q(x) for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ValueError("duplicate interpolation nodes")
    coef = [Q(y) for _, y in points]
    n = len(points)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - j])
    # Horner expansion of the Newton form into monomial coefficients.
    poly = [coef[n - 1]]
    for i in range(n - 2, -1, -1):
        shifted = [Q(0)] + poly
        poly = [a - xs[i] * b for a, b in zip(shifted, poly + [Q(0)])]
        poly[0] += coef[i]
    return tuple(poly)


def eval_poly(coeffs: Sequence[Q], x) -> Q:
    acc = Q(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc
