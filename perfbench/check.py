"""Output checks for the benchmark's CLI calls.

    python3 perfbench/check.py MANIFEST

MANIFEST is a JSON list of {"call": {...}, "path": "report file"}. The
verdicts go to stdout as one JSON list of {"ok": bool, "reason": str},
in manifest order. The checks run in their own process so that parsing
a 57 MB report never raises the harness's resident set, which every
later child would inherit as its starting high-water mark.

Values are compared, not bytes: integers exactly, floats to the
tolerance the package certifies, and every certificate residual against
the requested tolerance. References are recomputed here by independent
formulas (oracles.py) or read from reference.json (refgen.py).
"""

from __future__ import annotations

import csv
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

import oracles
from refgen import REFERENCE, verlinde_key, ym2_key

MODULAR_TOL = 1e-9      # the CLI's default --tol for modular data
KIRILLOV_RESIDUAL = 1e-9
KIRILLOV_RTOL = 1e-9
# binary64 alternating sums lose digits to cancellation near walls: allow
# about 1e4 units of 2^-53 of the sum of |terms| on top of KIRILLOV_RTOL
BINARY64_SLACK = 1e-12
SEIFERT_RTOL = 1e-9     # relative to the sum of |terms|
YM2_TOL = 1e-10         # the CLI's default --tol for ym2
YM2_ROUNDING = 1e-12    # summation rounding allowed on top of the tail bound


class Mismatch(Exception):
    pass


def expect(cond: bool, message: str, *args) -> None:
    if not cond:
        raise Mismatch(message % args if args else message)


def rank_of(call: dict) -> int:
    return int(call["algebra"][1:])


def _complex_array(pairs) -> np.ndarray:
    arr = np.asarray(pairs, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def check_lie(call, rep, ref):
    r = rank_of(call)
    expect(rep["series"] == "A" and rep["rank"] == r, "wrong algebra")
    expect(rep["algebra_dimension"] == r * (r + 2), "algebra_dimension")
    expect(rep["positive_roots"] == r * (r + 1) // 2, "positive_roots")
    expect(rep["dual_coxeter"] == r + 1 and rep["centre_order"] == r + 1,
           "dual_coxeter or centre_order")
    expect(rep["weyl_order"] == oracles.weyl_order(r), "weyl_order %s", rep["weyl_order"])
    cartan = [[2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(r)]
              for i in range(r)]
    expect(rep["cartan_matrix"] == cartan, "cartan_matrix")


def check_modular(call, rep, ref):
    r, k = rank_of(call), call["level"]
    weights = oracles.integrable(r, k)
    expect(rep["rank"] == r and rep["level"] == k, "wrong algebra or level")
    expect(rep["kappa"] == k + r + 1, "kappa")
    expect([tuple(w) for w in rep["weights"]] == weights, "weights")
    expect(abs(rep["central_charge"] - oracles.central_charge(r, k)) <= 1e-12,
           "central_charge")
    expect(rep["precision_bits"] in (53, 113), "precision_bits %s", rep["precision_bits"])
    index = {w: i for i, w in enumerate(weights)}
    expect(rep["conjugation"] == [index[w[::-1]] for w in weights], "conjugation")
    cert = rep["certificate"]
    for key in ("unitarity", "symmetry", "row0_imag", "conjugation_permutation",
                "st_cubed"):
        expect(cert[key] < MODULAR_TOL, "certificate %s = %g", key, cert[key])
    expect(cert["row0_min"] > 0 and cert["involution"] is True,
           "certificate row0_min or involution")
    t_bare = oracles.t_bare(r, k)
    t_canon = t_bare * np.exp(-2j * np.pi * oracles.central_charge(r, k) / 24)
    err = np.abs(_complex_array(rep["t_bare"]) - t_bare).max()
    expect(err <= MODULAR_TOL, "t_bare off by %g", err)
    err = np.abs(_complex_array(rep["t_canonical"]) - t_canon).max()
    expect(err <= MODULAR_TOL, "t_canonical off by %g", err)
    s = _complex_array(rep["s"])
    expect(s.shape == (len(weights),) * 2, "s has shape %s", s.shape)
    err = np.abs(s - oracles.s_matrix(r, k)).max()
    expect(err <= MODULAR_TOL, "s off by %g", err)


def check_kirillov(call, rep, ref):
    r = rank_of(call)
    expect(rep["rank"] == r and rep["weight"] == list(call["weight"]), "wrong input")
    expect(rep["orbit_dimension"] == r * (r + 1), "orbit_dimension")
    expect(len(rep["table"]) == len(call["points"]), "row count")
    worst = 0.0
    for row, point in zip(rep["table"], call["points"]):
        expect(row["point"] == list(point), "point %s", row["point"])
        orbit, stationary = oracles.kirillov(call["weight"], point)
        for name, (want, scale) in (("orbit_fourier", orbit),
                                    ("stationary_phase_sum", stationary)):
            got = complex(*row[name])
            expect(abs(got - want) <= KIRILLOV_RTOL * abs(want) + BINARY64_SLACK * scale,
                   "%s at %s: %r, expected %r", name, point, got, want)
        expect(row["residual"] <= KIRILLOV_RESIDUAL, "residual %g", row["residual"])
        worst = max(worst, row["residual"])
    expect(rep["max_residual"] == worst, "max_residual")


def _verlinde_refs(call, ref, levels):
    table = ref["verlinde"][verlinde_key(call["algebra"], call["genus"],
                                         call.get("labels", ()))]
    return [table[str(k)] for k in levels]


def check_verlinde(call, rep, ref):
    levels = call["levels"]
    want = _verlinde_refs(call, ref, levels)
    got = [(row["k"], row["dimension"]) for row in rep["table"]]
    expect(got == list(zip(levels, want)), "table %s, expected %s", got, want)
    expect(rep["genus"] == call["genus"], "genus")
    labels = [list(lab) for lab in call.get("labels", ())]
    expect(rep["labels"] == labels, "labels")
    if not labels:
        monotone = all(b >= a for a, b in zip(want, want[1:]))
        expect(rep["monotone_nondecreasing"] is monotone, "monotone_nondecreasing")


def check_seifert(call, rep, ref):
    r = rank_of(call)
    framing = call.get("framing", "bare")
    expect(rep["conventions"] == {"framing": framing, "centre_factor": False},
           "conventions")
    grid = [(g, p, k) for g in call["genera"] for p in call["degrees"]
            for k in call["levels"]]
    cells = rep["cells"]
    expect([(c["genus"], c["degree"], c["level"]) for c in cells] == grid, "cell grid")
    by_level = {k: oracles.seifert_cells(r, k, call["genera"], call["degrees"], framing)
                for k in call["levels"]}
    terms = {k: len(oracles.integrable(r, k)) for k in call["levels"]}
    for c in cells:
        k = c["level"]
        want, scale = by_level[k][(c["genus"], c["degree"])]
        got = complex(c["value_re"], c["value_im"])
        expect(c["terms"] == terms[k], "terms at %s", k)
        expect(abs(got - want) <= SEIFERT_RTOL * scale,
               "cell g=%d p=%d k=%d: %r, expected %r", c["genus"], c["degree"], k,
               got, want)
        expect(abs(c["modulus"] - abs(got)) <= SEIFERT_RTOL * scale, "modulus")


def check_pairings(call, rep, ref):
    r, g, lo, hi = rank_of(call), call["genus"], call["kmin"], call["kmax"]
    levels = list(range(lo, hi + 1))
    horizon = list(range(hi + 1, hi + 6))
    values = _verlinde_refs(call, ref, levels)
    future = _verlinde_refs(call, ref, horizon)
    expect(rep["levels"] == levels and rep["values"] == values, "window values")
    expect(rep["predictions"] == [list(p) for p in zip(horizon, future)],
           "predictions %s, expected %s", rep["predictions"], future)
    expect(rep["prediction_errors"] == [0] * len(horizon),
           "prediction_errors %s", rep["prediction_errors"])
    expected_degree = r if g == 1 else (g - 1) * r * (r + 2)
    expect(rep["expected_degree"] == expected_degree and rep["degree"] == expected_degree
           and rep["degree_matches"] is True, "degree %s", rep["degree"])
    # the fitted quasi-polynomial must reproduce every exact value
    period = rep["period"]
    coeffs = [[Fraction(c) for c in cls] for cls in rep["coefficients"]]
    expect(len(coeffs) == period, "one coefficient list per residue class")
    for k, v in zip(levels + horizon, values + future):
        cls = coeffs[k % period]
        expect(sum(c * k ** i for i, c in enumerate(cls)) == v,
               "quasi-polynomial misses level %d", k)
    leading = [str(cls[expected_degree]) if expected_degree < len(cls) else "0"
               for cls in coeffs]
    expect([str(Fraction(q)) for q in rep["leading_by_class"]] == leading,
           "leading_by_class")
    expect(Fraction(rep["leading_pairing"]) == Fraction(leading[0]), "leading_pairing")


def check_crosscheck(call, rep, ref):
    expect(rep["mode"] == call["suite"] and rep["seed"] == call["seed"], "mode or seed")
    expect(rep["passed"] is True, "suite did not pass")
    for c in rep["checks"]:
        expect(c["passed"] is True and c["residual"] is not None
               and (c["threshold"] is None or c["residual"] <= c["threshold"]),
               "check %s failed: %s", c["name"], c["detail"])


def check_ym2(call, rep_text, ref):
    rows = list(csv.reader(rep_text.splitlines()))
    expect(rows[0] == ["epsilon", "Z", "tail_bound"], "header %s", rows[0])
    epsilons = sorted(set(float(e) for e in call["epsilons"]))
    expect([float(row[0]) for row in rows[1:]] == epsilons, "epsilon rows")
    tol = call.get("tol", YM2_TOL)
    for row in rows[1:]:
        eps, z, bound = (float(v) for v in row)
        want = ref["ym2"][ym2_key(call["algebra"], call["genus"], eps)]
        expect(0 <= bound <= tol, "eps=%g: tail bound %g above tol %g", eps, bound, tol)
        expect(abs(z - want) <= bound + YM2_ROUNDING * want,
               "eps=%g: Z = %r, reference %r, tail bound %g", eps, z, want, bound)


CHECKS = {
    "lie": check_lie, "modular": check_modular, "kirillov": check_kirillov,
    "verlinde": check_verlinde, "seifert": check_seifert,
    "pairings": check_pairings, "crosscheck": check_crosscheck, "ym2": check_ym2,
}


def check_report(call: dict, path: str, ref: dict) -> str | None:
    """None when the report at `path` is right for `call`, else the reason."""
    text = Path(path).read_text()
    try:
        report = text if call["cmd"] == "ym2" else json.loads(text)
        CHECKS[call["cmd"]](call, report, ref)
    except Mismatch as exc:
        return str(exc)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return "unparsable report: %s: %s" % (type(exc).__name__, exc)
    return None


def main(argv: list[str]) -> int:
    manifest = json.loads(Path(argv[0]).read_text())
    ref = json.loads(REFERENCE.read_text())
    verdicts = []
    for entry in manifest:
        reason = check_report(entry["call"], entry["path"], ref)
        verdicts.append({"ok": reason is None, "reason": reason or ""})
    json.dump(verdicts, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
