"""Cross-module consistency suites.

Every check here ties two independent computational routes to the same
quantity and reports the residual. The quick suite is a smoke screen
that runs in seconds; the full suite adds the expensive anchors
(integer tables, flat-space zeta values, extrapolation of exact fits)
and is the thing to run before trusting a new environment.

Checks draw their sample points from a seeded generator, so a repeated
run with the same seed reproduces every residual bit for bit.
"""

from __future__ import annotations

import math
import time
from typing import NamedTuple

import numpy as np

from .genera import a_hat_function, j_function, partial_euler_product
from .lie import CartanElement, RootSystem, Weight, build_root_system, weyl_character
from .modular import s_matrix
from .orbits import (
    dh_weyl_sum,
    kirillov_check,
    orbit_from_highest_weight,
    quantum_character_point,
    su2_orbit_quadrature,
    wilson_weight,
)
from .quasipoly import pairing_report
from .seifert import seifert_scan
from .verlinde import verlinde_dimension
from .ym2 import ym2_epsilon_profile, ym2_partition


class CheckResult(NamedTuple):
    name: str
    passed: bool
    residual: float
    threshold: float
    detail: str
    elapsed: float  # excluded from serialised reports, wall time is not reproducible


class SuiteReport(NamedTuple):
    mode: str
    seed: int
    checks: tuple[CheckResult, ...]
    passed: bool
    elapsed: float

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "mode": self.mode,
            "seed": self.seed,
            "passed": self.passed,
            "checks": [
                {"name": c.name, "passed": c.passed,
                 "residual": c.residual if math.isfinite(c.residual) else None,
                 "threshold": c.threshold if math.isfinite(c.threshold) else None,
                 "detail": c.detail}
                for c in self.checks
            ],
        }


def _small_point(rs: RootSystem, rng, scale: float = 0.4) -> CartanElement:
    coords = scale * (0.25 + rng.random(rs.rank))
    return CartanElement(tuple(complex(c) for c in coords))


def _check_sinh_sin_link(rng):
    worst = 0.0
    for series, rank in (("A", 1), ("A", 2), ("A", 3)):
        rs = build_root_system(series, rank)
        for g in (0, 2, 3):
            x = _small_point(rs, rng)
            rotated = CartanElement(tuple(1j * c for c in x.coords))
            lhs = a_hat_function(rs, x, g)
            rhs = j_function(rs, rotated) ** (1 - g)
            worst = max(worst, abs(lhs - rhs))
    return worst, "multiplicative genus at ix against squared sinc genus"


def _check_euler_product(rng):
    rs = build_root_system("A", 2)
    x = _small_point(rs, rng)
    exact = j_function(rs, x)
    coarse = abs(partial_euler_product(rs, x, 500) - exact)
    fine = abs(partial_euler_product(rs, x, 4000) - exact)
    if fine * 4 > coarse:
        return math.inf, "truncated product is not converging at rate 1/N"
    return fine, "truncated infinite product vs closed product at N=4000"


def _check_kirillov(rng):
    worst = 0.0
    cases = [("A", 1, (2,)), ("A", 1, (5,)), ("A", 2, (1, 2)), ("A", 2, (3, 1))]
    for series, rank, coords in cases:
        rs = build_root_system(series, rank)
        x = _small_point(rs, rng, scale=0.6)
        worst = max(worst, kirillov_check(rs, Weight(coords), x))
    return worst, "character times half-density vs orbit transform"


def _check_su2_quadrature(rng):
    worst = 0.0
    for j_label in (0.5, 1.0, 1.5, 3.0):
        t = 0.3 + 0.5 * rng.random()
        rs = build_root_system("A", 1)
        orbit = orbit_from_highest_weight(rs, Weight((int(round(2 * j_label)),)))
        closed, _ = dh_weyl_sum(orbit, CartanElement((complex(t),)))
        quad = su2_orbit_quadrature(j_label, t)
        worst = max(worst, abs(closed - quad))
    return worst, "alternating Weyl sum vs Gauss-Legendre sphere integral"


def _check_modular_certificates(rng):
    worst = 0.0
    residual_keys = ("unitarity", "symmetry", "row0_imag",
                     "conjugation_permutation", "st_cubed")
    for series, rank, level in (("A", 1, 3), ("A", 2, 2)):
        md = s_matrix(build_root_system(series, rank), level)
        worst = max(worst, max(md.certificate[k] for k in residual_keys))
        if md.certificate["row0_min"] <= 0 or not md.certificate["involution"]:
            return math.inf, "vacuum row or conjugation square failed"
    return worst, "unitarity, conjugation and (ST)^3 = S^2 residuals"


def _check_degree_zero_reduction(rng):
    worst = 0.0
    for series, rank, level, genus in (("A", 1, 4, 2), ("A", 2, 3, 1)):
        rs = build_root_system(series, rank)
        (z,) = seifert_scan(rs, [genus], [0], [level])
        v = verlinde_dimension(rs, level, genus)
        worst = max(worst, abs(z.value - v))
    return worst, "degree-zero fibration sum against fusion dimension"


def _check_sphere_anchor(rng):
    worst = 0.0
    rs = build_root_system("A", 1)
    for z in seifert_scan(rs, [0], [1], (1, 2, 3)):
        md = s_matrix(rs, z.level)
        worst = max(worst, abs(z.modulus - float(np.abs(md.s[0, 0]))))
    return worst, "degree-one sphere bundle modulus against S[0,0]"


def _check_orientation_conjugation(rng):
    rs = build_root_system("A", 1)
    z = {c.degree: c.value for c in seifert_scan(rs, [1], (-5, -2, -1, 1, 2, 5), [3])}
    worst = max(abs(z[p] - z[-p].conjugate()) for p in (1, 2, 5))
    return worst, "degree reversal conjugates the bare sum"


def _check_verlinde_integer_table(rng):
    rs = build_root_system("A", 2)
    frozen = {1: 9, 2: 45, 3: 166, 4: 504}
    worst = 0
    for level, expected in frozen.items():
        got = verlinde_dimension(rs, level, 2)
        worst = max(worst, abs(got - expected))
    return float(worst), "rank-2 genus-2 dimensions against frozen integers"


def _check_flat_zeta_anchors(rng):
    # zeta(2), zeta(4), zeta(6) for A1, and 4 T(2,2,2) (Mordell-Tornheim) for A2
    anchors = {(1, 2): math.pi ** 2 / 6, (1, 3): math.pi ** 4 / 90,
               (1, 4): math.pi ** 6 / 945, (2, 2): 4 * math.pi ** 6 / 2835}
    worst = 0.0
    for (rank, genus), target in anchors.items():
        res = ym2_partition(build_root_system("A", rank), genus, 0.0)
        worst = max(worst, abs(res.value - target))
    return worst, "flat-coupling heat kernel sums against zeta values"


def _check_quasipolynomial_extrapolation(rng):
    rs = build_root_system("A", 1)
    rep = pairing_report(rs, genus=2, k_min=1, k_max=12, max_period=3, horizon=5)
    if not rep.degree_matches:
        return math.inf, "fitted degree %d, moduli dimension %d" % (
            rep.degree, rep.expected_degree)
    return float(max(abs(e) for e in rep.prediction_errors)), \
        "exact window fit predicts five unseen levels"


def _check_verlinde_gluing(rng):
    rs = build_root_system("A", 2)
    level = 2
    md = s_matrix(rs, level)
    total = verlinde_dimension(rs, level, 2)
    glued = 0
    for i, lam in enumerate(md.weights):
        left = verlinde_dimension(rs, level, 1, (lam,))
        right = verlinde_dimension(rs, level, 1, (md.weights[md.conjugation[i]],))
        glued += left * right
    return float(abs(total - glued)), "factorisation over a separating curve"


def _check_epsilon_profile(rng):
    # Each row of the A1 genus-2 profile against a reference summed apart from
    # the box code: pi^2/6 at eps = 0, else theta(eps) = sum_{n<=1000} n^-2
    # exp(-eps (n^2-1)/4) (dim n, casimir (n^2-1)/2), whose terms past n = 1000
    # are below exp(-31000). pi^2/6 takes 5 roundings (pi twice through the
    # square, pow within one ulp, the division). A theta term takes 5 (pow and
    # exp within one ulp each, the product) and fsum one more, and the rounded
    # argument x moves exp by a factor of at most exp(x u). Rows have their own
    # bounds, so each gap is measured in units of its row's bound plus the
    # reference's rounding, against a threshold of 1.
    u = 2.0 ** -53
    g5, g6 = 5 * u / (1 - 5 * u), 6 * u / (1 - 6 * u)
    rs = build_root_system("A", 1)
    prof = ym2_epsilon_profile(rs, genus=2, epsilons=(0.0, 0.125, 0.25, 0.5, 1.0))
    worst = 0.0
    for eps, z, bound in prof.rows:
        if eps == 0:
            ref = math.pi ** 2 / 6
            slack = g5 * ref
        else:
            xs = [eps * (n * n - 1) / 4 for n in range(1, 1001)]
            terms = [n ** -2 * math.exp(-x) for n, x in enumerate(xs, 1)]
            ref = math.fsum(terms)
            slack = g6 * ref + (1 + g6) * math.fsum(
                t * math.expm1(x * u) for t, x in zip(terms, xs))
        worst = max(worst, abs(z - ref) / (bound + slack))
    return worst, "profile rows against pi^2/6 and theta(eps), in units of " \
        "each row's bound plus the reference's rounding"


def _check_wilson_character_point(rng):
    rs = build_root_system("A", 2)
    level = 2
    worst = 0.0
    for label in (Weight((1, 0)), Weight((1, 1)), Weight((0, 2))):
        for mu in (Weight((0, 0)), Weight((2, 0)), Weight((1, 1))):
            ratio = wilson_weight(rs, label, mu, level)
            x = quantum_character_point(rs, mu, level)
            chi, _ = weyl_character(rs, label, x)
            worst = max(worst, abs(ratio - chi))
    return worst, "matrix-element ratio against character at the shifted point"


def _check_witten_volume_identity(rng):
    # Witten's volume formula: the leading coefficient C_g of the Verlinde
    # polynomial V_g(k) is (r+1)^g V(rho)^-m (2 pi)^(-m |Delta+|) times the flat
    # sum Z = zeta_W(m), m = 2g - 2, with V(rho) = prod_{alpha>0} <rho, alpha>
    # = 1! 2! ... r!. C_g is fitted exactly on the levels 1 .. degree + 2, and
    # the reference for Z, taken at 40 digits, is rounded once. A3 is taken at
    # g3, where Z is summed over the cube: at g2, Z is read off the same
    # Verlinde integers as the fit, so the check would compare them with
    # themselves.
    import mpmath

    worst = 0.0
    for rank, genus in ((1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (3, 3)):
        rs, m = build_root_system("A", rank), 2 * genus - 2
        rep = pairing_report(rs, genus, 1, (genus - 1) * rs.dimension + 2)
        if any(rep.prediction_errors):
            return math.inf, "A%d g%d fit mispredicts: errors %s" % (
                rank, genus, list(rep.prediction_errors))
        v_rho = math.prod(map(math.factorial, range(1, rank + 1)))
        c = rep.leading_by_class[0] * v_rho ** m  # C_g V(rho)^m
        with mpmath.workdps(40):
            ref = float(mpmath.mpf(c.numerator) / c.denominator / (rank + 1) ** genus
                        * (2 * mpmath.pi) ** (m * rs.num_positive_roots))
        z = ym2_partition(rs, genus, 0.0)
        worst = max(worst, abs(z.value - ref) / (z.tail_bound + 2.0 ** -53 * ref))
    return worst, "exact Verlinde leading coefficients against the flat sum, in " \
        "units of its bound plus the reference's rounding"


_QUICK = (
    ("sinh-sin-link", _check_sinh_sin_link, 1e-10),
    ("euler-product-limit", _check_euler_product, 1e-2),
    ("kirillov-product-vs-sum", _check_kirillov, 1e-8),
    ("su2-orbit-quadrature", _check_su2_quadrature, 1e-10),
    ("modular-certificates", _check_modular_certificates, 1e-9),
    ("degree-zero-reduction", _check_degree_zero_reduction, 1e-9),
    ("sphere-anchor", _check_sphere_anchor, 1e-9),
    ("orientation-conjugation", _check_orientation_conjugation, 1e-9),
)

_FULL_EXTRA = (
    ("verlinde-integer-table", _check_verlinde_integer_table, 0.0),
    ("flat-zeta-anchors", _check_flat_zeta_anchors, 1e-9),
    ("quasipolynomial-extrapolation", _check_quasipolynomial_extrapolation, 0.0),
    ("verlinde-gluing", _check_verlinde_gluing, 0.0),
    ("epsilon-profile-monotone", _check_epsilon_profile, 1.0),
    ("wilson-character-point", _check_wilson_character_point, 1e-8),
    ("witten-volume-identity", _check_witten_volume_identity, 1.0),
)


def run_crosschecks(mode: str = "quick", seed: int = 0) -> SuiteReport:
    """Run the named suite; mode is "quick" or "full"."""
    from .errors import PreconditionError

    if mode not in ("quick", "full"):
        raise PreconditionError("mode must be quick or full, got %r" % (mode,))
    rng = np.random.default_rng(seed)
    plan = _QUICK + (_FULL_EXTRA if mode == "full" else ())
    results = []
    suite_start = time.perf_counter()
    for name, fn, threshold in plan:
        start = time.perf_counter()
        try:
            residual, detail = fn(rng)
            passed = residual <= threshold
        except Exception as exc:
            residual = math.inf
            detail = "%s: %s" % (type(exc).__name__, exc)
            passed = False
        results.append(CheckResult(name=name, passed=passed, residual=residual,
                                   threshold=threshold, detail=detail,
                                   elapsed=time.perf_counter() - start))
    return SuiteReport(mode=mode, seed=seed, checks=tuple(results),
                       passed=all(c.passed for c in results),
                       elapsed=time.perf_counter() - suite_start)
