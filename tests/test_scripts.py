"""The scripts under scripts/ run end to end on small arguments."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)


@pytest.mark.parametrize("name,args", [
    ("degree_phase_scan.py", ("--pmax", "2")),
    ("level_scaling.py", ("--kmin", "4", "--doublings", "4")),
])
def test_script_runs(name, args):
    proc = run_script(name, *args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_level_scaling_approaches_its_printed_limit():
    # for A1 at genus 2 the scaled value is (1 - 1/kappa^2)/pi^2 and the limit 1/pi^2
    proc = run_script("level_scaling.py", "--kmin", "4", "--doublings", "4")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    rows = [line.split() for line in lines if line.split()[0].isdigit()]
    assert [int(k) for k, _ in rows] == [4, 8, 16, 32]
    limit = float(lines[-1].rsplit("=", 1)[1])
    assert abs(limit - 1 / math.pi ** 2) < 1e-12
    assert abs(float(rows[-1][1]) - limit) < 1e-2


def test_degree_phase_scan_leaves_vanishing_phases_undefined():
    # A1 level 3 genus 0 vanishes at p = +-2; its phase there is rounding noise
    proc = run_script("degree_phase_scan.py", "--pmax", "2")
    assert proc.returncode == 0, proc.stderr
    rows = {}
    for line in proc.stdout.splitlines():
        fields = line.split()
        if fields and fields[0].lstrip("-").isdigit():
            rows[int(fields[0])] = fields[1:]
    assert sorted(rows) == [-2, -1, 0, 1, 2]
    for p in (-2, 2):
        assert rows[p][1:] == ["undef", "undef"]
    for p in (-1, 0, 1):
        assert "undef" not in rows[p]


def test_pairing_degrees_predicts_exactly():
    proc = run_script("pairing_degrees.py", "--gmax", "2")
    assert proc.returncode == 0, proc.stderr
    assert "errors [0, 0, 0, 0]" in proc.stdout
    assert "WARNING" not in proc.stdout
