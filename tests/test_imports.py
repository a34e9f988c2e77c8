"""The import boundary: each CLI call loads only the modules it runs, and
the package root resolves its public names on first access."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import seifertsum

SRC = str(Path(seifertsum.__file__).resolve().parents[1])


# standard modules a call should load only for the work it does: json and
# fractions cost about 2 ms each to import, dataclasses and inspect about 8 ms
STDLIB = ("dataclasses", "fractions", "inspect", "json")


def loaded_after(code: str) -> set[str]:
    """The seifertsum modules, mpmath, numpy and the STDLIB modules loaded
    after `code` runs in a fresh interpreter."""
    report = ("import sys\nprint(*sorted(m for m in sys.modules "
              "if m in %r or m.startswith('seifertsum.')))" % (("mpmath", "numpy") + STDLIB,))
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code + "\n" + report], check=True,
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    return set(proc.stdout.splitlines()[-1].split())


def test_importing_the_cli_loads_no_subcommand_module():
    # nor numpy: the report writer only meets arrays once numpy is loaded;
    # nor json, which only a JSON report or a --config file loads
    assert loaded_after("import seifertsum.cli") == {"seifertsum.cli", "seifertsum.errors"}


# the flat sums compute their zeta values themselves: mpmath would cost ym2
# about 4 MB of RSS; only the flat genus-2 sum of rank >= 3 reads Verlinde
# levels, so only it may load verlinde, modular and numpy; the flat sum from
# genus 3 takes the dimension shell
@pytest.mark.parametrize("argv", [
    ["ym2", "--algebra", "A1", "--genus", "2", "--epsilons", "0"],
    ["ym2", "--algebra", "A2", "--genus", "2", "--epsilons", "0"],
    ["ym2", "--algebra", "A3", "--genus", "2", "--epsilons", "0"],
    ["ym2", "--algebra", "A3", "--genus", "3", "--epsilons", "0.5"],
    ["ym2", "--algebra", "A6", "--genus", "2", "--epsilons", "1"],
    ["ym2", "--algebra", "A4", "--genus", "3", "--epsilons", "0"],
], ids=["A1", "A2-flat", "A3-flat", "A3-shell", "A6-shell", "A4-g3-flat"])
def test_a_ym2_call_loads_only_lie_and_ym2(argv):
    code = "from seifertsum import cli\nassert cli.main(%r) == 0" % (argv,)
    loaded = loaded_after(code)
    verlinde = {"numpy", "seifertsum.modular", "seifertsum.verlinde"}
    # a CSV report loads no json, and no record loads dataclasses
    assert loaded - verlinde - {"inspect", "fractions"} == {
        "seifertsum.cli", "seifertsum.errors", "seifertsum.lie", "seifertsum.ym2"}
    assert not loaded & verlinde or argv[2] == "A3" and argv[-1] == "0"
    assert "inspect" not in loaded or "numpy" in loaded  # numpy imports inspect itself


@pytest.mark.parametrize("argv", [
    ["lie", "--algebra", "A2", "--weight", "1,1"],
    ["kirillov", "--algebra", "A2", "--weight", "1,1", "--point", "0.3,0.4"],
], ids=["lie", "kirillov"])
def test_lie_and_kirillov_calls_load_no_numpy(argv):
    code = "from seifertsum import cli\nassert cli.main(%r) == 0" % (argv,)
    assert not loaded_after(code) & {"numpy", "dataclasses", "inspect"}


# the exact Verlinde dimension reads the level object alone, not the binary64 Seifert sum
@pytest.mark.parametrize("argv", [
    ["verlinde", "--algebra", "A2", "--genus", "2", "--levels", "2,3", "--label", "1,1"],
    ["pairings", "--algebra", "A1", "--genus", "1", "--kmin", "2", "--kmax", "8", "--label", "2"],
], ids=["verlinde", "pairings"])
def test_verlinde_and_pairings_calls_do_not_load_seifert(argv):
    code = "from seifertsum import cli\nassert cli.main(%r) == 0" % (argv,)
    loaded = loaded_after(code)
    assert "seifertsum.verlinde" in loaded
    assert "seifertsum.seifert" not in loaded


def test_kirillov_loads_mpmath_for_its_residual():
    code = "from seifertsum import cli\nassert cli.main(%r) == 0" % (
        ["kirillov", "--algebra", "A1", "--weight", "1", "--point", "0.5"],)
    loaded = loaded_after(code)
    assert {"mpmath", "seifertsum.orbits"} <= loaded
    assert not loaded & {"seifertsum.modular", "seifertsum.verlinde", "seifertsum.crosscheck"}


def test_characters_and_transforms_at_a_wall_load_no_mpmath():
    # alpha_2 vanishes at (0.4, 0.2): the branching rule has no wall branch
    code = """
from seifertsum.lie import CartanElement, Weight, build_root_system, weyl_character
from seifertsum.orbits import dh_weyl_sum, orbit_fourier, orbit_from_highest_weight
rs, x = build_root_system("A", 2), CartanElement((0.4, 0.2))
orbit = orbit_from_highest_weight(rs, Weight((1, 2)))
weyl_character(rs, Weight((1, 2)), x), orbit_fourier(orbit, x), dh_weyl_sum(orbit, x)
"""
    loaded = loaded_after(code)
    assert "seifertsum.orbits" in loaded
    assert "mpmath" not in loaded


def test_a_refused_s_certificate_loads_no_mpmath():
    # S is assembled and certified in binary64 only; nothing retries at more digits
    code = "from seifertsum import cli\nassert cli.main(%r) == 3" % (
        ["modular", "--algebra", "A1", "--level", "3", "--tol", "1e-30"],)
    loaded = loaded_after(code)
    assert "seifertsum.modular" in loaded
    assert "mpmath" not in loaded


def test_every_exported_name_is_the_object_of_its_module():
    modules = {info.name for info in pkgutil.iter_modules(seifertsum.__path__)}
    for name in seifertsum.__all__:
        obj = getattr(seifertsum, name)
        if name in modules:
            assert obj is importlib.import_module("seifertsum." + name)
        else:
            assert obj.__module__.startswith("seifertsum.")
            assert getattr(importlib.import_module(obj.__module__), name) is obj
    assert set(seifertsum.__all__) <= set(dir(seifertsum))
    assert modules - set(seifertsum.__all__) == {"cli"}


def test_star_import_and_unknown_names():
    namespace = {}
    exec("from seifertsum import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(seifertsum.__all__)
    assert not hasattr(seifertsum, "no_such_name")
