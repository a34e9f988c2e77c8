"""The benchmark's workloads: which `seifertsum` CLI calls each one makes.

A call is a plain dict (`cmd` plus that subcommand's inputs). `argv`
turns it into command-line arguments; the output checker reads the same
dict, so the inputs are stated once. Timed calls must succeed at the
seed commit; frontier calls are known defects that are run once per run
and only count in `error_rate`.

No call passes `--threads` and the harness removes `SEIFERTSUM_THREADS`
from the child environment: both are slated for removal and must not
decide a measured number.
"""

from __future__ import annotations

import random

WORKLOADS = ("weyl-heavy", "lattice-heavy", "ym2-cone")

# A5 orbit through Lambda + rho; sample points come from the seed.
KIRILLOV_WEIGHT = (1, 0, 2, 0, 1)
KIRILLOV_POINTS = 3
# Every positive root must stay this far from 0 at a sample point.
WALL_MARGIN = 0.05


def _ks(lo: int, hi: int) -> list[int]:
    return list(range(lo, hi + 1))


def positive_roots_fw(rank: int) -> list[tuple[int, ...]]:
    """Positive roots of A_rank in the fundamental-weight basis.

    alpha_i + ... + alpha_j is the sum of Cartan-matrix rows i..j.
    """
    rows = [[2 if a == b else (-1 if abs(a - b) == 1 else 0)
             for b in range(rank)] for a in range(rank)]
    roots = []
    for i in range(rank):
        for j in range(i, rank):
            roots.append(tuple(sum(rows[t][c] for t in range(i, j + 1))
                               for c in range(rank)))
    return roots


def regular_points(rank: int, count: int, rng: random.Random) -> list[tuple[float, ...]]:
    """Points in coroot coordinates with every |alpha(x)| >= WALL_MARGIN.

    Coordinates lie in [0.2, 0.9], so |alpha(x)| < 2 pi as well and the
    points stay off the affine walls too.
    """
    roots = positive_roots_fw(rank)
    points = []
    while len(points) < count:
        x = tuple(round(rng.uniform(0.2, 0.9), 3) for _ in range(rank))
        if all(abs(sum(a * c for a, c in zip(root, x))) >= WALL_MARGIN
               for root in roots):
            points.append(x)
    return points


def calls(workload: str, seed: int) -> tuple[list[dict], list[dict]]:
    """(timed calls, frontier calls) of a workload for one seed."""
    rng = random.Random(seed)
    if workload == "weyl-heavy":
        timed = [
            {"cmd": "lie", "algebra": "A6"},
            {"cmd": "modular", "algebra": "A6", "level": 3},
            {"cmd": "modular", "algebra": "A4", "level": 6},
            {"cmd": "kirillov", "algebra": "A5", "weight": KIRILLOV_WEIGHT,
             "points": regular_points(5, KIRILLOV_POINTS, rng)},
            {"cmd": "verlinde", "algebra": "A4", "genus": 2, "levels": _ks(1, 6)},
            {"cmd": "verlinde", "algebra": "A5", "genus": 1, "levels": _ks(1, 4),
             "labels": [(1, 0, 0, 0, 0), (0, 0, 0, 0, 1)]},
        ]
        frontier = [
            # alpha_2(x) = 0 here: dh_weyl_sum divides by zero (exit 1)
            {"cmd": "kirillov", "algebra": "A3", "weight": (2, 1, 1),
             "points": [(0.3, 0.4, 0.5)]},
        ]
    elif workload == "lattice-heavy":
        grid = {"genera": _ks(0, 3), "degrees": _ks(-5, 5)}
        timed = [
            {"cmd": "modular", "algebra": "A2", "level": 40},
            {"cmd": "seifert", "algebra": "A1", "levels": _ks(1, 40), **grid},
            {"cmd": "seifert", "algebra": "A2", "levels": _ks(1, 20),
             "framing": "canonical", **grid},
            {"cmd": "verlinde", "algebra": "A2", "genus": 2, "levels": _ks(1, 24)},
            {"cmd": "pairings", "algebra": "A2", "genus": 2, "kmin": 1, "kmax": 19},
            {"cmd": "pairings", "algebra": "A1", "genus": 3, "kmin": 1, "kmax": 40},
            {"cmd": "crosscheck", "suite": "full", "seed": seed % 2**32},
        ]
        frontier = [
            # binary64 Verlinde sums past ~1e7 fail the integrality guard (exit 3)
            {"cmd": "verlinde", "algebra": "A2", "genus": 2, "levels": [25]},
            {"cmd": "verlinde", "algebra": "A3", "genus": 2, "levels": [11]},
            {"cmd": "verlinde", "algebra": "A2", "genus": 3, "levels": [9]},
            {"cmd": "verlinde", "algebra": "A1", "genus": 5, "levels": [10]},
            # the 5-level horizon reaches k = 25 (exit 3)
            {"cmd": "pairings", "algebra": "A2", "genus": 2, "kmin": 1, "kmax": 20},
        ]
    elif workload == "ym2-cone":
        timed = [
            {"cmd": "ym2", "algebra": "A2", "genus": 2, "epsilons": [0.0], "tol": 1e-6},
            {"cmd": "ym2", "algebra": "A3", "genus": 3, "epsilons": [0.5], "tol": 1e-8},
            {"cmd": "ym2", "algebra": "A2", "genus": 3, "epsilons": [0.05, 0.1, 0.2]},
            {"cmd": "ym2", "algebra": "A1", "genus": 2, "epsilons": [0.0, 0.01, 0.1, 1.0]},
        ]
        frontier = [
            # the default tol 1e-10 needs a box past the 2M-term budget (exit 2)
            {"cmd": "ym2", "algebra": "A2", "genus": 2, "epsilons": [0.0]},
            # the CLI sums eps = 0 first, which needs a 129^3 box (exit 2)
            {"cmd": "ym2", "algebra": "A3", "genus": 2, "epsilons": [0.5]},
        ]
    else:
        raise ValueError("unknown workload %r" % (workload,))
    return timed, frontier


def _join(values) -> str:
    return ",".join(repr(v) for v in values)


def argv(call: dict) -> list[str]:
    """Command-line arguments of `seifertsum` for one call."""
    cmd = call["cmd"]
    out = [cmd]
    if "algebra" in call:
        out += ["--algebra", call["algebra"]]
    if cmd == "modular":
        out += ["--level", str(call["level"])]
    elif cmd == "kirillov":
        out += ["--weight", _join(call["weight"]),
                "--points", ";".join(_join(p) for p in call["points"])]
    elif cmd == "verlinde":
        out += ["--genus", str(call["genus"]), "--levels", _join(call["levels"])]
        if call.get("labels"):
            out += ["--labels", ";".join(_join(lab) for lab in call["labels"])]
    elif cmd == "seifert":
        out += ["--scan", "--genera=" + _join(call["genera"]),
                "--degrees=" + _join(call["degrees"]),
                "--levels=" + _join(call["levels"])]
        if "framing" in call:
            out += ["--framing", call["framing"]]
    elif cmd == "pairings":
        out += ["--genus", str(call["genus"]),
                "--kmin", str(call["kmin"]), "--kmax", str(call["kmax"])]
    elif cmd == "crosscheck":
        out += ["--suite", call["suite"], "--seed", str(call["seed"])]
    elif cmd == "ym2":
        out += ["--genus", str(call["genus"]), "--epsilons", _join(call["epsilons"])]
        if "tol" in call:
            out += ["--tol", repr(call["tol"])]
    return out


def label(call: dict) -> str:
    """Short human-readable name of a call."""
    return " ".join(argv(call))[:100]
