"""Acceptance gate: nine binding criteria with stated tolerances.

Each test prints one ACCEPTANCE line; run with -s to watch them stream.
Criteria with runtime budgets assert the measured wall time as well.
"""

import itertools
import math
import time

import numpy as np

from seifertsum import cli
from seifertsum.crosscheck import run_crosschecks
from seifertsum.genera import j_function, partial_euler_product
from seifertsum.lie import CartanElement, Weight, build_root_system
from seifertsum.modular import integrable_weights, s_matrix
from seifertsum.orbits import (
    dh_weyl_sum,
    kirillov_check,
    orbit_from_highest_weight,
    su2_orbit_quadrature,
)
from seifertsum.quasipoly import pairing_report
from seifertsum.seifert import seifert_scan
from seifertsum.verlinde import verlinde_dimension
from seifertsum.ym2 import ym2_epsilon_profile, ym2_partition

A1 = build_root_system("A", 1)
A2 = build_root_system("A", 2)
A3 = build_root_system("A", 3)

ZETA = {2: math.pi**2 / 6, 4: math.pi**4 / 90, 6: math.pi**6 / 945}


def _z(rs, level, genus, degree, **kw):
    (cell,) = seifert_scan(rs, [genus], [degree], [level], **kw)
    return cell


def _report(num, name, passed, detail=""):
    line = "ACCEPTANCE %d (%s): %s" % (num, name, "PASS" if passed else "FAIL")
    if detail:
        line += "  [%s]" % detail
    print(line)
    assert passed, line


def _reduction_cells():
    label_sets_a1 = ((), (Weight((1,)),), (Weight((1,)), Weight((1,))))
    label_sets_a2 = ((), (Weight((1, 0)),), (Weight((1, 0)), Weight((1, 0))))
    for k, g, labels in itertools.product(range(1, 11), range(4), label_sets_a1):
        yield A1, k, g, labels
    for k, g, labels in itertools.product(range(1, 5), range(3), label_sets_a2):
        yield A2, k, g, labels


def test_criterion_1_degree_zero_reduction():
    t0 = time.perf_counter()
    worst = 0.0
    for rs, k, g, labels in _reduction_cells():
        z = _z(rs, k, g, 0, labels=labels).value
        worst = max(worst, abs(z - verlinde_dimension(rs, k, g, labels)))
    elapsed = time.perf_counter() - t0
    _report(1, "degree-zero reduction", worst < 1e-9 and elapsed < 60,
            "max gap %.2e, %.1fs" % (worst, elapsed))


def test_criterion_2_integrality():
    worst = 0.0
    ok = True
    for rs, k, g, labels in _reduction_cells():
        raw = _z(rs, k, g, 0, labels=labels).value
        dim = verlinde_dimension(rs, k, g, labels)
        worst = max(worst, abs(raw - dim))
        if dim < 0:
            ok = False
        if g == 1 and not labels and dim != len(integrable_weights(rs, k)):
            ok = False
    _report(2, "integrality", ok and worst < 1e-6,
            "max rounding gap %.2e" % worst)


def test_criterion_3_orbit_character_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    caps = {1: 6, 2: 4, 3: 3}
    worst = 0.0
    systems = (A1, A2, A3)
    for i in range(50):
        rs = systems[i % 3]
        cap = caps[rs.rank]
        weight = Weight(tuple(int(c) for c in rng.integers(0, cap + 1, rs.rank)))
        x = CartanElement(tuple(0.15 + 0.5 * rng.random(rs.rank)))
        worst = max(worst, kirillov_check(rs, weight, x))
    quad_worst = 0.0
    for m in range(7):
        orbit = orbit_from_highest_weight(A1, Weight((m,)))
        for t in np.linspace(0.1, 2.0, 20):
            q = su2_orbit_quadrature(m / 2.0, float(t))
            w, _ = dh_weyl_sum(orbit, CartanElement((float(t),)))
            quad_worst = max(quad_worst, abs(q - w))
    elapsed = time.perf_counter() - t0
    _report(3, "orbit character identity",
            worst < 1e-9 and quad_worst < 1e-10 and elapsed < 30,
            "residual %.2e, quadrature %.2e, %.1fs" % (worst, quad_worst, elapsed))


def test_criterion_4_euler_product():
    rng = np.random.default_rng(99)
    ok = True
    for rs in (A1, A2):
        for _ in range(10):
            x = CartanElement(tuple(0.2 + 0.6 * rng.random(rs.rank)))
            target = j_function(rs, x)
            errs = [abs(partial_euler_product(rs, x, n) - target)
                    for n in (100, 1000, 10000)]
            if not (errs[0] > errs[1] > errs[2]):
                ok = False
    _report(4, "euler product convergence", ok)


def test_criterion_5_modular_certification():
    worst = 0.0
    ok = True
    cases = [(A1, k) for k in range(1, 21)] + [(A2, k) for k in range(1, 7)]
    for rs, k in cases:
        md = s_matrix(rs, k, tol=1e-9)
        for key in ("unitarity", "symmetry", "conjugation_permutation",
                    "st_cubed"):
            worst = max(worst, md.certificate[key])
        if not md.certificate["involution"]:
            ok = False
    _report(5, "modular certification", ok and worst < 1e-9,
            "max residual %.2e" % worst)


def test_criterion_6_flat_anchors_and_coupling_profile():
    t0 = time.perf_counter()
    anchor_ok = True
    worst = 0.0
    for g in (2, 3, 4):
        res = ym2_partition(A1, g, 0.0, target_tol=1e-10)
        gap = abs(res.value - ZETA[2 * g - 2])
        worst = max(worst, gap)
        if res.tail_bound > 1e-10 or gap > 1e-10:
            anchor_ok = False
    grid = (0.0, 0.001, 0.01, 0.1, 1.0)
    shape_ok = True
    for g in (2, 3, 4):
        prof = ym2_epsilon_profile(A1, g, grid)
        zs = [z for _, z, _ in prof.rows]
        if not all(b < a for a, b in zip(zs, zs[1:])):
            shape_ok = False
        slopes = [(zs[i + 1] - zs[i]) / (grid[i + 1] - grid[i])
                  for i in range(len(grid) - 1)]
        if not all(s2 > s1 for s1, s2 in zip(slopes, slopes[1:])):
            shape_ok = False
    elapsed = time.perf_counter() - t0
    _report(6, "flat zeta anchors", anchor_ok and shape_ok and elapsed < 60,
            "max anchor gap %.2e, %.1fs" % (worst, elapsed))


def test_criterion_7_quasi_polynomial_extrapolation():
    rep2 = pairing_report(A1, genus=2, k_min=1, k_max=12, horizon=5)
    ok2 = (rep2.qp.period <= 4 and rep2.degree <= 3
           and all(e == 0 for e in rep2.prediction_errors)
           and [k for k, _ in rep2.predictions] == [13, 14, 15, 16, 17])
    rep3 = pairing_report(A1, genus=3, k_min=1, k_max=24, degree_bound=6,
                          max_period=4, horizon=6)
    ok3 = (rep3.qp.period <= 4 and rep3.degree <= 6
           and all(e == 0 for e in rep3.prediction_errors)
           and rep3.predictions[-1][0] == 30)
    _report(7, "quasi-polynomial extrapolation", ok2 and ok3,
            "g=2 degree %d, g=3 degree %d" % (rep2.degree, rep3.degree))


def test_criterion_8_seifert_anchors():
    sphere_worst = 0.0
    for k in (1, 2, 3):
        md = s_matrix(A1, k)
        z = _z(A1, k, 0, 1)
        sphere_worst = max(sphere_worst, abs(z.modulus - float(md.s[0, 0].real)))
    conj_worst = 0.0
    for k, g, p in itertools.product(range(1, 5), range(3), (1, 2, 3)):
        zp, zm = _z(A1, k, g, p), _z(A1, k, g, -p)
        conj_worst = max(conj_worst, abs(zp.value - zm.value.conjugate()))
    frame_worst = 0.0
    for k, g, p in itertools.product((1, 3), (0, 2), (-2, 1, 3)):
        bare, canon = _z(A1, k, g, p), _z(A1, k, g, p, framing="canonical")
        frame_worst = max(frame_worst, abs(bare.modulus - canon.modulus))
    _report(8, "fibration anchors",
            sphere_worst < 1e-9 and conj_worst < 1e-9 and frame_worst < 1e-10,
            "sphere %.2e, conjugation %.2e, framing %.2e"
            % (sphere_worst, conj_worst, frame_worst))


def test_criterion_9_full_suite_determinism(tmp_path):
    t0 = time.perf_counter()
    first = tmp_path / "run1.json"
    second = tmp_path / "run2.json"
    code1 = cli.main(["crosscheck", "--suite", "full",
                      "--output", str(first)])
    code2 = cli.main(["crosscheck", "--suite", "full",
                      "--output", str(second)])
    elapsed = time.perf_counter() - t0
    identical = first.read_bytes() == second.read_bytes()
    _report(9, "full suite determinism",
            code1 == 0 and code2 == 0 and identical and elapsed < 600,
            "%.1fs for both runs" % elapsed)


def test_full_suite_object_report_agrees():
    report = run_crosschecks("full", seed=0)
    assert report.passed
