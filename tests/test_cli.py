"""End-to-end command line behaviour, exit codes, report formats."""

import contextlib
import csv
import errno
import functools
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from oracles import character_reference, sinc_product_reference, verlinde_exact
from seifertsum import cli, modular
from seifertsum.lie import CartanElement, Weight, build_root_system
from seifertsum.modular import central_charge, s_matrix
from seifertsum.orbits import dh_weyl_sum, orbit_fourier, orbit_from_highest_weight


README_CALLS = [line.split(None, 1)[1]
                for line in (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
                if line.startswith("seifertsum ")]


def run(argv, capsys):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_seifert_single_point(capsys):
    code, out, err = run(["seifert", "--algebra", "A1", "--level", "1",
                          "--genus", "2", "--degree", "0"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["value_re"] == pytest.approx(4.0, abs=1e-9)
    assert doc["value_im"] == pytest.approx(0.0, abs=1e-12)
    assert doc["modulus"] == pytest.approx(4.0, abs=1e-9)
    assert doc["terms"] == 2
    assert doc["conventions"] == {"framing": "bare", "centre_factor": False}


def test_verlinde_single_level(capsys):
    code, out, _ = run(["verlinde", "--algebra", "A1", "--genus", "1",
                        "--level", "5"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["table"] == [{"k": 5, "dimension": 6}]
    assert doc["monotone_nondecreasing"] is True


def test_verlinde_label_spellings_agree(capsys):
    base = ["verlinde", "--algebra", "A1", "--genus", "0", "--levels", "1,2,3"]
    code1, out1, _ = run(base + ["--label", "1", "--label", "1"], capsys)
    code2, out2, _ = run(base + ["--labels", "1;1"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert [row["dimension"] for row in doc["table"]] == [1, 1, 1]


def test_crosscheck_quick_is_deterministic(capsys):
    code1, out1, err1 = run(["crosscheck", "--suite", "quick"], capsys)
    code2, out2, err2 = run(["crosscheck", "--suite", "quick"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["schema"] == 1
    assert doc["mode"] == "quick"
    assert len(doc["checks"]) >= 6
    assert all(c["passed"] for c in doc["checks"])
    assert "PASS" in err1 and err1 == err2


def test_usage_errors_exit_64(capsys):
    assert run(["frobnicate"], capsys)[0] == 64
    assert run(["verlinde", "--algebra", "A1", "--genus", "1"], capsys)[0] == 64
    assert run(["seifert", "--algebra", "A1", "--level", "2"], capsys)[0] == 64
    assert run(["modular", "--algebra", "XY", "--level", "2"], capsys)[0] == 64
    # predictions are always re-derived; the switch that skipped them is gone
    assert run(["pairings", "--algebra", "A1", "--genus", "2", "--kmin", "1",
                "--kmax", "3", "--no-check"], capsys)[0] == 64
    # the ym2 term budget is a constant, ym2.MAX_TERMS
    assert run(["ym2", "--algebra", "A1", "--genus", "2", "--epsilons", "0",
                "--max-terms", "10"], capsys)[0] == 64


def test_refusals_exit_2(capsys):
    code, _, err = run(["modular", "--algebra", "A1", "--level", "0"], capsys)
    assert code == 2
    assert "refused" in err
    assert run(["lie", "--algebra", "A"], capsys)[0] == 2
    assert run(["verlinde", "--algebra", "A1", "--genus", "-1",
                "--level", "2"], capsys)[0] == 2
    # n = C(1004, 4) = 4.2e10 weights: priced and refused before any is built,
    # also after a level that fits, which a table prices with the largest
    for levels in ("1000", "60,1000"):
        t0 = time.perf_counter()
        code, out, err = run(["verlinde", "--algebra", "A4", "--genus", "2",
                              "--levels", levels], capsys)
        assert (code, out) == (2, "")
        assert time.perf_counter() - t0 < 1.0
        assert re.search(r"level 1000 of A4 \(42084793751 weights\) needs [0-9.e+]+ bytes and "
                         r"[0-9.e+]+ operations; the limits are 2e\+09 bytes and 1e\+10 "
                         r"operations", err)


def test_flat_a6_genus_two_is_refused_before_any_level(capsys, monkeypatch):
    # its Verlinde levels reach 49: C(55, 6) = 28,989,675 weights
    from seifertsum import verlinde

    def no_level(*args):
        raise AssertionError("a level was built before it was priced")

    monkeypatch.setattr(verlinde, "_Level", no_level)
    code, out, err = run(["ym2", "--algebra", "A6", "--genus", "2", "--epsilons", "0"], capsys)
    assert (code, out) == (2, "")
    assert "refused: level 49 of A6 (28989675 weights) needs" in err


def test_certification_failures_exit_3(capsys):
    # no binary64 S meets 1e-30; a tol of 0 is refused (exit 2)
    code, _, err = run(["modular", "--algebra", "A1", "--level", "3",
                        "--tol", "1e-30"], capsys)
    assert code == 3
    assert "certification failed" in err


def test_lie_report(capsys):
    code, out, _ = run(["lie", "--series", "A", "--rank", "2",
                        "--weight", "1,1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["cartan_matrix"] == [[2, -1], [-1, 2]]
    assert doc["weyl_order"] == 6
    assert doc["irrep_dimension"] == 8
    assert doc["casimir"] == "6/1"
    assert doc["level"] == 2


def test_genera_csv(capsys):
    code, out, _ = run(["genera", "--algebra", "A1", "--which", "j",
                        "--points", "0.5"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["x1", "re", "im"]
    assert float(rows[1][1]) == pytest.approx(0.9193953882637206, abs=1e-12)
    assert float(rows[1][2]) == 0.0


def test_ym2_csv(capsys):
    code, out, _ = run(["ym2", "--algebra", "A1", "--genus", "2",
                        "--epsilons", "0,0.1"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["epsilon", "Z", "tail_bound"]
    assert len(rows) == 3
    assert float(rows[1][1]) == pytest.approx(math.pi**2 / 6, abs=1e-9)
    assert float(rows[2][1]) < float(rows[1][1])


def test_ym2_profile_without_eps0_skips_the_flat_limit(capsys):
    # the eps = 0 flat limit is never summed when eps = 0 is not asked for;
    # Z is the sum over the 275 weights of the Casimir shell
    code, out, _ = run(["ym2", "--algebra", "A3", "--genus", "2",
                        "--epsilons", "0.5"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[1][:2] == ["0.5", "1.0603687675611781"]


@pytest.mark.parametrize("algebra", ["A6", "A7"])
def test_ym2_high_rank_at_unit_coupling(algebra, capsys):
    # refused before: the first box held 17^6 (17^7) weights, past the 2M
    # budget, where the Casimir shell holds 171 (158)
    code, out, _ = run(["ym2", "--algebra", algebra, "--genus", "2", "--epsilons", "1"], capsys)
    assert code == 0
    (_, z, bound), = list(csv.reader(io.StringIO(out)))[1:]
    assert float(bound) <= 1e-10 and float(z) > 1


def test_ym2_rank2_flat_limit_at_the_default_tol(capsys):
    # refused before: its box would have held 8193^2 weights; the reference
    # is taken at 40 digits, as the bound is below an ulp of Z
    code, out, _ = run(["ym2", "--algebra", "A2", "--genus", "2", "--epsilons", "0"], capsys)
    assert code == 0
    (_, z, bound), = list(csv.reader(io.StringIO(out)))[1:]
    assert float(bound) <= 1e-10
    with mp.workdps(40):
        assert abs(mp.mpf(z) - 4 * mp.pi ** 6 / 2835) <= float(bound)


def test_ym2_rank3_flat_limit_at_the_default_tol(capsys):
    # refused before even at tol 1e-4, whose box would have held 129^3 weights
    code, out, _ = run(["ym2", "--algebra", "A3", "--genus", "2", "--epsilons", "0"], capsys)
    assert code == 0
    (_, z, bound), = list(csv.reader(io.StringIO(out)))[1:]
    assert float(bound) <= 1e-10 and float(z) > 1


@pytest.mark.parametrize("algebra, genus", [("A3", 150), ("A3", 200), ("A3", 300),
                                            ("A4", 150)])
def test_ym2_flat_limit_past_binary64_takes_the_cube(algebra, genus, capsys):
    # these once ended in an OverflowError (the outer tail's float) or a
    # ValueError (fsum of inf - inf) with exit 1. 1 <= Z <= zeta(m)^r, as
    # dim >= prod (lambda_i + 1) and every term but the vacuum's is positive
    code, out, err = run(["ym2", "--algebra", algebra, "--genus", str(genus),
                          "--epsilons", "0"], capsys)
    assert code == 0 and err == ""
    (_, z, bound), = list(csv.reader(io.StringIO(out)))[1:]
    assert float(bound) <= 1e-10
    with mp.workdps(400):
        upper = mp.zeta(2 * genus - 2) ** int(algebra[1:])
        assert mp.mpf(z) - mp.mpf(bound) <= 1 and upper <= mp.mpf(z) + mp.mpf(bound)


def test_kirillov_report(capsys):
    code, out, _ = run(["kirillov", "--algebra", "A2", "--weight", "1,2",
                        "--point", "0.3,0.4"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["orbit_dimension"] == 6
    assert len(doc["table"]) == 1
    assert doc["max_residual"] < 1e-9
    row = doc["table"][0]
    assert row["orbit_fourier"] != row["stationary_phase_sum"]


def test_kirillov_at_a_wall_is_within_the_transform_bounds(capsys):
    # alpha_1 vanishes here: the Richardson wall limit printed
    # stationary_phase_sum 19.15092733512003 + 2.5e-12i, with no bound
    argv = ["kirillov", "--algebra", "A3", "--weight", "1,0,2", "--point", "0,0,0.7"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    row, = json.loads(out)["table"]
    rs, weight, point = build_root_system("A", 3), Weight((1, 0, 2)), (0j, 0j, 0.7 + 0j)
    orbit = orbit_from_highest_weight(rs, weight)
    sinc = sinc_product_reference(rs, point)
    with mp.workdps(40):
        stationary = character_reference(rs, weight, [1j * c for c in point]) * sinc
        transform = character_reference(rs, weight, point) * sinc
        assert abs(stationary - 19.15092733511322) < 1e-13 and abs(stationary.imag) < 1e-30
        got, bound = dh_weyl_sum(orbit, CartanElement(point))
        assert complex(*row["stationary_phase_sum"]) == got
        assert abs(got.real - stationary.real) <= bound and abs(got.imag) <= bound
        got, bound = orbit_fourier(orbit, CartanElement(point))
        assert complex(*row["orbit_fourier"]) == got
        assert abs(got - transform) <= bound
    assert row["residual"] <= 1e-9


def test_pairings_report(capsys):
    code, out, _ = run(["pairings", "--algebra", "A1", "--genus", "2",
                        "--kmin", "1", "--kmax", "12"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["period"] == 1
    assert doc["degree"] == 3
    assert doc["leading_pairing"] == "1/6"
    assert doc["coefficients"][0][-1] == "1/6"
    assert doc["prediction_errors"] == [0, 0, 0, 0, 0]
    assert [p[0] for p in doc["predictions"]] == [13, 14, 15, 16, 17]


def test_scan_grid(capsys):
    code, out, _ = run(["seifert", "--algebra", "A1", "--scan",
                        "--genera", "0,1", "--degrees", "0",
                        "--levels", "1,2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["cells"]) == 4
    for cell in doc["cells"]:
        assert set(cell) == {"genus", "degree", "level", "value_re",
                             "value_im", "modulus", "terms"}


@pytest.mark.parametrize("argv,missing", [
    (["seifert", "--algebra", "A1", "--scan"], "--genera, --degrees, --levels"),
    (["seifert", "--algebra", "A1", "--scan", "--genera", "0", "--levels", "1"],
     "--degrees"),
])
def test_scan_without_a_grid_is_a_usage_error(argv, missing, capsys):
    code, out, err = run(argv, capsys)
    assert code == 64
    assert out == ""
    assert err == "seifert: error: --scan needs %s\n" % missing


def test_genera_without_points_is_a_usage_error(capsys):
    code, out, err = run(["genera", "--algebra", "A1", "--which", "j",
                          "--points", ""], capsys)
    assert code == 64
    assert out == ""
    assert "--points" in err


def test_config_file_defaults_and_overrides(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"algebra": "A1", "genus": 1, "levels": [5]}))
    code, out, _ = run(["verlinde", "--config", str(cfg)], capsys)
    assert code == 0
    assert json.loads(out)["table"] == [{"k": 5, "dimension": 6}]
    code, out, _ = run(["verlinde", "--config", str(cfg), "--level", "3"],
                       capsys)
    assert code == 0
    assert json.loads(out)["table"] == [{"k": 3, "dimension": 4}]


def test_config_values_go_through_the_option_types(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for argv, config, flag in (
            (["genera", "--algebra", "A1", "--which", "j"], '{"points": [[NaN]]}', "--points"),
            (["kirillov", "--algebra", "A1", "--weight", "1"], '{"point": [NaN]}', "--point")):
        cfg.write_text(config)
        code, out, err = run(argv + ["--config", str(cfg)], capsys)
        assert (code, out) == (64, "")
        assert "argument %s: expected comma separated finite numbers" % flag in err
    cfg.write_text(json.dumps({"points": [[0.5]]}))
    genera = ["genera", "--algebra", "A1", "--which", "j"]
    code, out, _ = run(genera + ["--config", str(cfg)], capsys)
    assert code == 0 and out == run(genera + ["--points", "0.5"], capsys)[1]


def test_config_labels_go_through_the_weight_type(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    verlinde = ["verlinde", "--algebra", "A1", "--genus", "1", "--levels", "2"]
    for config, text in (('{"label": [[NaN]]}', "'nan'"), ('{"label": [[1.5]]}', "'1.5'")):
        cfg.write_text(config)
        code, out, err = run(verlinde + ["--config", str(cfg)], capsys)
        assert (code, out) == (64, "")
        assert err.endswith("argument --label: weight must be comma separated "
                            "integers, got %s\n" % text)
    cfg.write_text(json.dumps({"label": [[1, 0]]}))
    a2 = ["verlinde", "--algebra", "A2", "--genus", "1", "--levels", "2"]
    code, out, _ = run(a2 + ["--config", str(cfg)], capsys)
    assert code == 0 and out == run(a2 + ["--label", "1,0"], capsys)[1]
    assert json.loads(out)["labels"] == [[1, 0]]


def test_config_keys_that_name_no_option_are_refused(tmp_path, capsys):
    # a removed option and a misspelt one; neither names an option of any subcommand
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max_terms": 10, "tool": 1e-3}))
    ym2 = ["ym2", "--algebra", "A1", "--genus", "2", "--epsilons", "0"]
    code, out, err = run(ym2 + ["--config", str(cfg)], capsys)
    assert (code, out) == (64, "")
    assert err.endswith("error: config keys that name no option: max_terms, tool\n")
    # a key of another subcommand is accepted, so that one file serves every subcommand
    cfg.write_text(json.dumps({"levels": [5], "kmax": 8, "tol": 1e-3}))
    code, out, _ = run(ym2 + ["--config", str(cfg)], capsys)
    assert code == 0 and out == run(ym2 + ["--tol", "1e-3"], capsys)[1]


def test_config_file_errors(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert run(["verlinde", "--config", str(missing), "--algebra", "A1",
                "--genus", "1", "--level", "2"], capsys)[0] == 2
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    assert run(["verlinde", "--config", str(bad), "--algebra", "A1",
                "--genus", "1", "--level", "2"], capsys)[0] == 2


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(["seifert", "--algebra", "A1", "--level", "1",
                        "--genus", "2", "--degree", "0",
                        "--output", str(target)], capsys)
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["value_re"] == pytest.approx(4.0, abs=1e-9)


def test_modular_report_shape(capsys):
    code, out, _ = run(["modular", "--algebra", "A1", "--level", "2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["s"]) == 3 and len(doc["s"][0]) == 3
    assert len(doc["t_bare"]) == 3
    assert doc["conjugation"] == [0, 1, 2]
    assert doc["certificate"]["involution"] is True
    assert doc["certificate"]["unitarity"] < 1e-9
    # middle S column of the level 2 sine kernel: (1/2, 0, -1/2) twice
    assert doc["s"][1][1][0] == pytest.approx(0.0, abs=1e-12)


def test_scan_refuses_threads_flag(capsys):
    # scans run serially; a stale worker-count flag is a usage error
    code, out, _ = run(["seifert", "--algebra", "A2", "--scan",
                        "--genera", "0,2", "--degrees", "0,1",
                        "--levels", "1,2", "--threads", "2"], capsys)
    assert code == 64
    assert out == ""
    # nor is there a budget to set: every level is priced by one fixed rule
    code, out, _ = run(["seifert", "--algebra", "A2", "--scan", "--genera", "0",
                        "--degrees", "0", "--levels", "1", "--budget", "10"], capsys)
    assert code == 64
    assert out == ""


def test_point_and_points_merge(capsys):
    code, out, _ = run(["kirillov", "--algebra", "A1", "--weight", "2",
                        "--points", "0.3;0.6", "--point", "0.9"], capsys)
    assert code == 0
    assert len(json.loads(out)["table"]) == 3
    code, _, err = run(["kirillov", "--algebra", "A1", "--weight", "2"],
                       capsys)
    assert code == 64


def test_lie_reports_weyl_order_past_the_enumeration_range(capsys):
    code, out, _ = run(["lie", "--algebra", "A7"], capsys)
    assert code == 0
    assert json.loads(out)["weyl_order"] == 40320


def test_modular_rank7_is_certified(capsys):
    code, out, _ = run(["modular", "--algebra", "A7", "--level", "2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["weights"]) == 36
    cert = doc["certificate"]
    assert cert["involution"] is True
    assert cert["row0_min"] > 0
    for key in ("unitarity", "symmetry", "row0_imag", "conjugation_permutation",
                "st_cubed"):
        assert cert[key] < 1e-9


def to_lists(obj):
    """The payload with every complex array and number as [re, im] lists,
    ready for json.dumps."""
    if isinstance(obj, dict):
        return {k: to_lists(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_lists(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return to_lists(obj.tolist())
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    return obj


def json_oracle(payload: dict) -> str:
    return json.dumps(to_lists({**payload, "schema": 1}),
                      sort_keys=True, indent=2) + "\n"


def emitted(payload: dict) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli._emit_json(payload, SimpleNamespace(output=None))
    return buf.getvalue()


_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e300,
                     -1e300, math.nan, math.inf, -math.inf]))
_complexes = st.builds(complex, _floats, _floats)
_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), _floats, st.text(), _complexes,
    arrays(np.complex128, array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=4),
           elements=_complexes))
_payloads = st.dictionaries(st.text(), st.recursive(
    _leaves,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=3).map(tuple),
                            st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=12), max_size=5)


@settings(max_examples=300)
@given(_payloads)
def test_streamed_json_matches_json_dumps(payload):
    assert emitted(payload) == json_oracle(payload)


def test_streamed_json_covers_array_edge_cases():
    special = np.array([[-0.0 + 5e-324j, 1e300 - 1e-310j],
                        [complex(math.nan, 1.0), complex(-math.inf, math.inf)]])
    payload = {"2d": special, "row": special[0], "bad_row": special[1],
               "scalar": special[1, 1], "0d": np.array(1.5 - 0j),
               "empty": np.zeros((0, 3), complex), "empty_rows": np.zeros((2, 0), complex),
               "strided": special[:, 0], "single": np.array([0.1 + 0.2j], np.complex64),
               "text": "S\u00e9ifert \u2203", "nested": {"": [(), {}, []]}}
    assert emitted(payload) == json_oracle(payload)


class _Row(list):
    pass


def test_streamed_json_refuses_records():
    # a record is a tuple, which json.dumps would write as a bare list of its fields
    for record in (Weight((1, 2)), CartanElement((0.5,)), build_root_system("A", 1)):
        with pytest.raises(TypeError, match="not JSON serializable"):
            emitted({"nested": [{"w": record}]})
    payload = {"t": (1, (2.5, "x"), ()), "l": [[], [(0,)]], "sub": _Row([1, _Row()])}
    assert emitted(payload) == json_oracle(payload)


def test_streamed_json_keeps_repeated_and_signed_values_apart():
    # equal bits share one formatted text; -0.0/0.0 and +-5e-324 differ in bits
    # only, and a NaN row takes the json path between two table rows
    c = complex
    rows = np.array([[c(0.5, 0.25), c(-0.0, 0.0), c(5e-324, -5e-324)],
                     [c(math.nan, 0.5), c(0.5, 0.25), c(math.inf, -0.0)],
                     [c(0.5, 0.25), c(0.0, -0.0), c(-5e-324, 5e-324)],
                     [c(0.25, 0.5), c(0.5, 0.25), c(0.0, 0.0)]])
    payload = {"2d": rows, "finite_rows": rows[[0, 2, 3]],
               "row": np.array([c(0.1, 0.1), c(0.1, 0.1), c(-0.1, -0.1), c(0.1, 0.1)]),
               "single": np.array([[c(0.1, 0.2), c(0.1, 0.2)], [c(0.2, 0.1), c(-0.0, 3.0)]],
                                  np.complex64)}
    out = emitted(payload)
    assert out == json_oracle(payload)
    values = {line.strip().rstrip(",") for line in out.splitlines()}
    assert {"-0.0", "0.0", "5e-324", "-5e-324", "NaN", "Infinity",
            "0.10000000149011612"} <= values


_pooled_arrays = st.lists(_complexes, min_size=1, max_size=3).flatmap(
    lambda pool: arrays(np.complex128, array_shapes(min_dims=1, max_dims=3, max_side=5),
                        elements=st.sampled_from(pool)))


@settings(max_examples=200)
@given(st.dictionaries(st.text(max_size=3), _pooled_arrays, min_size=1, max_size=3))
def test_streamed_json_of_arrays_drawn_from_a_small_pool(payload):
    # a few distinct values per array, so nearly every float is a repeat
    assert emitted(payload) == json_oracle(payload)


@pytest.mark.parametrize("keys", [1, 2, 3, 5, 8, 13, 64])
def test_streamed_json_lookup_blocks_end_anywhere(keys, monkeypatch):
    # a few bit patterns per block, both where the table of magnitudes is
    # merged (and its buffer grown and settled) and where rows look their
    # texts up, so that blocks end next to NaN and infinite rows, signed
    # zeros, +-5e-324 and x/-x pairs, which share one magnitude, within a
    # block and across block ends
    monkeypatch.setattr(cli, "_LOOKUP_KEYS", keys)
    c, nan, inf = complex, math.nan, math.inf
    pool = [c(0.5, -0.0), c(-0.0, 0.0), c(5e-324, -5e-324), c(-5e-324, 0.25),
            c(0.0, 0.1), c(1e300, -1.5), c(0.1, -0.1), c(-0.5, 1.5),
            c(-1e300, -0.25), c(-0.0, -0.0)]
    rows = np.array([[pool[(3 * i + j) % len(pool)] for j in range(3)] for i in range(9)])
    rows[2, 1] = c(nan, 0.0)
    rows[3, 0] = c(0.0, inf)
    rows[6, 2] = c(-inf, nan)
    rows[8, 0] = c(nan, nan)
    payload = {"2d": rows, "wide": rows.reshape(3, 9), "tall": rows.reshape(27, 1),
               "row": rows[0], "long_row": rows[[0, 1, 4]].ravel(),
               "bad_row": rows[2], "finite": rows[[0, 1, 4, 5, 7]]}
    assert emitted(payload) == json_oracle(payload)


@pytest.mark.parametrize("tol", ["0", "nan", "-1", "inf"])
def test_modular_refuses_a_tolerance_no_matrix_can_meet(tol, capsys):
    code, out, err = run(["modular", "--algebra", "A2", "--level", "20", "--tol", tol],
                         capsys)
    assert code == 2
    assert out == ""
    assert err == "refused: tol must be a positive finite number, got %r\n" % float(tol)


def test_ym2_refuses_an_infinite_tolerance(capsys):
    # tol inf once exited 0 with Z(0) = 1.1594725347858112, not 4 pi^6/2835
    code, out, err = run(["ym2", "--algebra", "A2", "--genus", "2", "--epsilons", "0,0.5",
                          "--tol", "inf"], capsys)
    assert code == 2
    assert out == ""
    assert err == "refused: target_tol must be a positive finite number, got inf\n"


@pytest.mark.parametrize("algebra, level", [("A1", 30), ("A2", 12), ("A4", 3)])
def test_modular_report_matches_json_dumps_of_its_arrays(algebra, level, capsys):
    code, out, _ = run(["modular", "--algebra", algebra, "--level", str(level)], capsys)
    assert code == 0
    rs = build_root_system("A", int(algebra[1:]))
    md = s_matrix(rs, level, tol=1e-9)
    expected = json_oracle({
        "series": "A", "rank": rs.rank, "level": level, "kappa": md.kappa,
        "weights": [list(w.coords) for w in md.weights],
        "central_charge": central_charge(rs, level),
        "precision_bits": md.precision_bits,
        "s": md.s.tolist(), "t_canonical": md.t_canonical.tolist(),
        "t_bare": md.t_bare.tolist(), "conjugation": list(md.conjugation),
        "certificate": {k: (v if isinstance(v, bool) else float(v))
                        for k, v in md.certificate.items()},
    })
    assert out == expected


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_report_and_certificate_of_s_stay_within_a_few_copies_of_s():
    def emit(md):
        with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
            cli._emit_json({"s": md.s}, SimpleNamespace(output=None))

    md = s_matrix(build_root_system("A", 2), 20)
    assert _traced_peak(functools.partial(emit, md)) <= 1.5 * md.s.nbytes
    # n = 861: the table of 63,495 magnitudes, their texts and a block of
    # lookups, no copy of S
    large = s_matrix(build_root_system("A", 2), 40)
    assert _traced_peak(functools.partial(emit, large)) <= 0.4 * large.s.nbytes
    del large
    # n = 231 and n = 210: the certificate's row blocks stay below one S
    # also where S is small
    for md in (md, s_matrix(build_root_system("A", 4), 6)):
        certify = functools.partial(modular._certify, md.s, md.t_canonical,
                                    md._lv.conjugation(), 1e-9)
        assert _traced_peak(certify) <= 1.0 * md.s.nbytes


def _child_peak_kib(code: str) -> int:
    """VmHWM, in KiB, of a fresh interpreter after it runs code with stdout
    to /dev/null. The child reads it itself: ru_maxrss of a child counts
    the resident set of the pytest process it was forked from."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(cli.__file__).resolve().parents[1]), env.get("PYTHONPATH")) if p)
    probe = code + ("\nimport sys\nsys.stderr.write(next(line for line in open("
                    "'/proc/self/status') if line.startswith('VmHWM:')))\n")
    proc = subprocess.run([sys.executable, "-c", probe], env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stderr.split()[-2])


@pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="no /proc/self/status")
def test_modular_resident_peak_stays_near_one_s():
    # the whole call, assembly, certificate and report, over the imports:
    # the only check here that sees a heap cut up by temporaries, which
    # tracemalloc counts as freed. BLAS keeps a buffer per thread, so the
    # child runs one thread, as perfbench's children do, and the figure
    # does not grow with the core count
    base = _child_peak_kib("import numpy, seifertsum.cli")
    peak = _child_peak_kib("from seifertsum import cli\n"
                           "assert cli.main(['modular', '--algebra', 'A2', '--level', '40']) == 0")
    s_bytes = 861 * 861 * 16  # n = C(42, 2) weights, complex128
    assert (peak - base) * 1024 <= 1.75 * s_bytes


@pytest.mark.parametrize("argv", [
    ["modular", "--algebra", "A2", "--level", "4"],
    ["kirillov", "--algebra", "A2", "--weight", "1,2", "--point", "0.3,0.4"],
    ["ym2", "--algebra", "A1", "--genus", "2", "--epsilons", "0,0.1"],
])
def test_output_file_matches_stdout(argv, tmp_path, capsys):
    target = tmp_path / "report"
    code, out, _ = run(argv, capsys)
    assert code == 0
    code, to_file, _ = run(argv + ["--output", str(target)], capsys)
    assert code == 0 and to_file == ""
    assert target.read_bytes() == out.encode()


@pytest.mark.parametrize("argv", [
    ["seifert", "--algebra", "A1", "--level", "1", "--genus", "2", "--degree", "0"],
    ["ym2", "--algebra", "A1", "--genus", "2", "--epsilons", "0"],
])
def test_unwritable_output_exits_2(argv, tmp_path, capsys):
    target = tmp_path / "no" / "such" / "dir" / "r.json"
    code, out, err = run(argv + ["--output", str(target)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write report %s: " % target)
    assert "No such file or directory" in err
    assert "Traceback" not in err
    assert not (tmp_path / "no").exists()


def test_unwritable_output_is_refused_before_computing(capsys, monkeypatch):
    def no_compute(*args, **kwargs):
        raise AssertionError("s_matrix ran for an unwritable report")

    monkeypatch.setattr(modular, "s_matrix", no_compute)
    target = "/no/such/dir/r.json"
    code, out, err = run(["modular", "--algebra", "A2", "--level", "40",
                          "--output", target], capsys)
    assert code == 2
    assert out == ""
    assert err == ("error: cannot write report %s: [Errno 2] No such file or "
                   "directory: '%s'\n" % (target, target))


def test_output_naming_a_directory_is_refused_before_computing(tmp_path, capsys,
                                                               monkeypatch):
    def no_compute(*args, **kwargs):
        raise AssertionError("s_matrix ran for a report that names a directory")

    monkeypatch.setattr(modular, "s_matrix", no_compute)
    code, out, err = run(["modular", "--algebra", "A2", "--level", "20",
                          "--output", str(tmp_path)], capsys)
    assert code == 2
    assert out == ""
    assert err == ("error: cannot write report %s: [Errno 21] Is a directory: "
                   "'%s'\n" % (tmp_path, tmp_path))
    assert list(tmp_path.iterdir()) == []


def test_output_into_a_file_path_is_refused(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("kept")
    target = blocker / "r.json"
    code, out, err = run(["seifert", "--algebra", "A1", "--level", "1", "--genus", "2",
                          "--degree", "0", "--output", str(target)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write report %s: " % target)
    assert "Not a directory" in err
    assert blocker.read_text() == "kept"


def test_failed_report_write_leaves_no_file(tmp_path, capsys, monkeypatch):
    def disk_full(obj, depth):
        yield "{"
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(cli, "_json_chunks", disk_full)
    target = tmp_path / "r.json"
    code, _, err = run(["seifert", "--algebra", "A1", "--level", "1", "--genus", "2",
                        "--degree", "0", "--output", str(target)], capsys)
    assert code == 2
    assert "cannot write report" in err and "No space left" in err
    assert not target.exists()


def test_integrality_failure_names_primes_value_and_witness(capsys, monkeypatch):
    # one term of the first prime's residues is off by one, so the value the
    # Chinese remainder theorem rebuilds fails the witness prime
    true_residues = modular._Level.residues
    calls = []

    def off_by_one(lv, p, power, label_idx):
        terms = true_residues(lv, p, power, label_idx)
        calls.append(p)
        if len(calls) == 1:
            terms[0] = (terms[0] + 1) % p
        return terms

    monkeypatch.setattr(modular._Level, "residues", off_by_one)
    code, out, err = run(["verlinde", "--algebra", "A1", "--genus", "5",
                          "--levels", "10"], capsys)
    assert code == 3
    assert out == ""
    found = re.fullmatch(r"certification failed: Verlinde dimension (-?\d+) from primes "
                         r"(\[[\d, ]+\]) is not a nonnegative integer or fails witness "
                         r"prime (\d+): residue expected (\d+), got (\d+)\n", err)
    assert found, err
    value, primes, witness, expected, got = found.groups()
    assert primes == str(calls[:-1]) and int(witness) == calls[-1]
    assert int(expected) == int(value) % calls[-1] != int(got)
    assert int(got) == 129443600 % calls[-1]


def test_lattice_sums_build_no_full_s(capsys, monkeypatch):
    def full_s(*args, **kwargs):
        raise AssertionError("a lattice sum built the full S")

    monkeypatch.setattr(modular, "s_matrix", full_s)
    for argv in (["verlinde", "--algebra", "A2", "--genus", "2", "--levels", "2,3,4",
                  "--label", "1,1"],
                 ["seifert", "--algebra", "A2", "--scan", "--genera", "0,2",
                  "--degrees=-1,0,3", "--levels", "1,4"],
                 ["pairings", "--algebra", "A1", "--genus", "2", "--kmin", "1",
                  "--kmax", "8"]):
        assert run(argv, capsys)[0] == 0


@pytest.mark.parametrize("rank,level", [(2, 60), (3, 30)])
def test_verlinde_past_the_full_s_budget(rank, level, capsys):
    code, out, _ = run(["verlinde", "--algebra", "A%d" % rank, "--genus", "2",
                        "--levels", str(level)], capsys)
    assert code == 0
    assert json.loads(out)["table"] == [{"k": level,
                                         "dimension": verlinde_exact(rank, level, 2)}]


@pytest.mark.parametrize("argv", [
    ["kirillov", "--algebra", "A1", "--weight", "1", "--point", "nan"],
    ["kirillov", "--algebra", "A1", "--weight", "1", "--points", "0.5;inf"],
    ["genera", "--algebra", "A1", "--which", "j", "--points", "nan"],
    ["ym2", "--algebra", "A2", "--genus", "2", "--epsilons", "inf", "--tol", "1e-3"],
    ["ym2", "--algebra", "A2", "--genus", "2", "--epsilons", "0.5,-inf"],
    ["ym2", "--algebra", "A2", "--genus", "2", "--epsilons", "nan"],
])
def test_non_finite_numbers_are_malformed(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 64
    assert out == ""
    assert "expected comma separated finite numbers" in err


@pytest.mark.parametrize("horizon", ["0", "-1"])
def test_pairings_refuse_an_empty_horizon(horizon, capsys):
    code, out, err = run(["pairings", "--algebra", "A1", "--genus", "2", "--kmin", "1",
                          "--kmax", "8", "--horizon", horizon], capsys)
    assert (code, out) == (2, "")
    assert err == "refused: horizon must be >= 1, got %s\n" % horizon


@pytest.mark.parametrize("call", README_CALLS)
def test_readme_command_lines_run(call, tmp_path, capsys):
    # every example of README's command-line block, so the docs follow the CLI
    report = tmp_path / "report"
    code = cli.main(shlex.split(call) + ["--output", str(report)])
    assert code == 0, capsys.readouterr().err
    assert report.stat().st_size > 0
