"""Tests of the benchmark itself (not collected by the package's suite).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
import workloads

HERE = Path(__file__).resolve().parent


def _harness_python(code: str) -> str:
    """Run `code` in a fresh interpreter that imports the harness module,
    as the harness process itself would."""
    proc = subprocess.run([sys.executable, "-c", code], cwd=HERE, capture_output=True,
                          text=True, timeout=300, check=True)
    return proc.stdout


def test_child_rss_is_not_inflated_by_a_large_report(tmp_path):
    # A child's peak RSS starts from its parent's at exec; the harness
    # must stay lean while the 57 MB A2 k=40 report streams to disk.
    out = _harness_python(
        "import json, pathlib, run, workloads\n"
        "rec = run.Recorder(pathlib.Path(%r), run.child_env())\n"
        "big = rec.run(0, run.cli_args({'cmd': 'modular', 'algebra': 'A2', 'level': 40}),"
        " 300)\n"
        "small = rec.run(1, run.cli_args({'cmd': 'lie', 'algebra': 'A1'}), 60)\n"
        "print(json.dumps([big, small]))\n" % str(tmp_path))
    big, small = json.loads(out)
    assert big["rc"] == 0 and small["rc"] == 0
    assert big["rss_mb"] > 300 and big["bytes"] > 50e6
    assert 20 < small["rss_mb"] < 45  # the interpreter floor is about 35 MB


def _report(tmp_path, call) -> Path:
    path = tmp_path / "report.out"
    sample = run.run_child(run.cli_args(call), path, None, 120, run.child_env())
    assert sample["rc"] == 0
    return path


def test_checker_accepts_right_and_rejects_wrong_reports(tmp_path):
    import check

    ref = json.loads(check.REFERENCE.read_text())
    call = {"cmd": "verlinde", "algebra": "A2", "genus": 2, "levels": [1, 2, 3, 4]}
    path = _report(tmp_path, call)
    assert check.check_report(call, str(path), ref) is None
    report = json.loads(path.read_text())
    assert [row["dimension"] for row in report["table"]] == [9, 45, 166, 504]
    report["table"][3]["dimension"] = 505
    path.write_text(json.dumps(report))
    assert "table" in check.check_report(call, str(path), ref)
    path.write_text("{not json")
    assert check.check_report(call, str(path), ref).startswith("unparsable")

    call = {"cmd": "ym2", "algebra": "A1", "genus": 2, "epsilons": [0.0, 0.1]}
    path = _report(tmp_path, call)
    assert check.check_report(call, str(path), ref) is None
    rows = path.read_text().splitlines()
    eps, z, bound = rows[1].split(",")
    rows[1] = ",".join([eps, repr(float(z) + 10 * float(bound)), bound])
    path.write_text("\n".join(rows) + "\n")
    assert "Z =" in check.check_report(call, str(path), ref)


def test_checker_matches_modular_and_scan_reports(tmp_path):
    import check

    ref = json.loads(check.REFERENCE.read_text())
    for call in ({"cmd": "modular", "algebra": "A3", "level": 3},
                 {"cmd": "seifert", "algebra": "A2", "genera": [0, 2], "degrees": [-1, 0, 2],
                  "levels": [1, 4], "framing": "canonical"},
                 {"cmd": "kirillov", "algebra": "A3", "weight": [1, 0, 2],
                  "points": [[0.31, 0.52, 0.7]]}):
        path = _report(tmp_path, call)
        assert check.check_report(call, str(path), ref) is None, call


def test_traced_call_has_cli_main_root_and_work_counts(tmp_path):
    trace_path = tmp_path / "trace.json"
    call = {"cmd": "modular", "algebra": "A2", "level": 5}
    sample = run.run_child(run.traced_args(call, trace_path, "t/0"), tmp_path / "out",
                           None, 120, run.child_env())
    assert sample["rc"] == 0
    data = json.loads(trace_path.read_text())
    assert data["call_id"] == "t/0"
    assert data["spans"][0][0] == "cli.main" and data["spans"][0][3] is None
    assert all(parent is not None for _, _, _, parent, _ in data["spans"][1:])
    totals = tracer.summarize(data)
    assert totals["modular.weights"] == 21 and totals["modular.s_builds"] == 1
    assert totals["modular.weyl_terms"] == 6 * 21 ** 2
    assert totals["lie.norm_calls"] == 21  # one casimir per weight for T
    values = tracer.per_layer(tracer.combine([totals]))
    assert values["lie.weyl_order_max"] == 6 and values["modular.retry_share"] == 0.0
    assert values["modular.s_matrix_self_s"] > 0


def test_workload_inputs_come_from_the_seed_alone(monkeypatch):
    for name in workloads.WORKLOADS:
        assert workloads.calls(name, 5) == workloads.calls(name, 5)
        timed, frontier = workloads.calls(name, 5)
        assert timed and frontier
        for call in timed + frontier:
            args = workloads.argv(call)
            assert "--threads" not in " ".join(args)
    points = [workloads.calls("weyl-heavy", s)[0][3]["points"] for s in (1, 2)]
    assert points[0] != points[1]
    roots = workloads.positive_roots_fw(5)
    for x in points[0] + points[1]:
        assert min(abs(sum(a * c for a, c in zip(r, x))) for r in roots) >= 0.05
    monkeypatch.setenv("SEIFERTSUM_THREADS", "4")
    assert "SEIFERTSUM_THREADS" not in run.child_env()


def test_reference_values_hold_the_frozen_and_frontier_integers():
    ref = json.loads((HERE / "reference.json").read_text())["verlinde"]
    assert [ref["A2 g2 "][str(k)] for k in (1, 2, 3, 4)] == [9, 45, 166, 504]
    assert ref["A2 g2 "]["25"] == 19737081
    assert ref["A3 g2 "]["11"] == 22414432
    assert ref["A2 g3 "]["9"] == 113236555
    assert ref["A1 g5 "]["10"] == 129443600


def test_harness_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ym2-cone",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_has_the_contract_keys(tmp_path, trace):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "ym2-cone",
                           "--seed", "3", "--seconds", "1", "--trace", str(trace)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]
    assert list(result["metrics"]) == names
    if not trace:
        # only the two frontier calls may fail, each counted once of six
        assert result["attempted"] == 6
        assert result["failed"] <= 2
        assert result["metrics"]["error_rate"]["value"] == result["failed"] / 6
