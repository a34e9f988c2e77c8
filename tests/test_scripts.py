"""The scripts under scripts/ run end to end on small arguments."""

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


def test_pairing_degrees_predicts_exactly():
    proc = run_script("pairing_degrees.py", "--gmax", "2")
    assert proc.returncode == 0, proc.stderr
    assert "errors [0, 0, 0, 0]" in proc.stdout
    assert "WARNING" not in proc.stdout
