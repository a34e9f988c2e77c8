"""Regenerate reference.json, the stored values the output checks use.

    python3 perfbench/refgen.py

Verlinde dimensions are summed in mpmath at 60 digits from the product
form of S row 0 (and a determinant for labelled rows), then rounded; a
sum farther than 1e-20 from an integer is an error. Heat-kernel values
at eps > 0 are box sums doubled until they stop changing in binary64;
the flat values have closed forms. Nothing here imports `seifertsum`.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import oracles

REFERENCE = Path(__file__).with_name("reference.json")

# (algebra, genus, labels, levels) covering every timed and frontier call
VERLINDE = [
    ("A1", 3, (), range(1, 46)),
    ("A1", 5, (), [10]),
    ("A2", 2, (), range(1, 26)),
    ("A2", 3, (), [9]),
    ("A3", 2, (), [11]),
    ("A4", 2, (), range(1, 7)),
    ("A5", 1, ((1, 0, 0, 0, 0), (0, 0, 0, 0, 1)), range(1, 5)),
]

# (algebra, genus, epsilon, starting box) for eps > 0
YM2 = [
    ("A1", 2, 0.01, 1000), ("A1", 2, 0.1, 1000), ("A1", 2, 1.0, 1000),
    ("A2", 3, 0.05, 100), ("A2", 3, 0.1, 100), ("A2", 3, 0.2, 100),
    ("A3", 3, 0.5, 20), ("A3", 2, 0.5, 20),
]

FLAT = {
    # zeta(2) and 4 T(2,2,2) (Mordell-Tornheim)
    ("A1", 2): math.pi ** 2 / 6,
    ("A2", 2): 4 * math.pi ** 6 / 2835,
}


def verlinde_key(algebra: str, genus: int, labels=()) -> str:
    return "%s g%d %s" % (algebra, genus,
                          ";".join(",".join(map(str, lab)) for lab in labels))


def ym2_key(algebra: str, genus: int, epsilon: float) -> str:
    return "%s g%d eps=%r" % (algebra, genus, float(epsilon))


def _converged_ym2(rank, genus, epsilon, box):
    value = oracles.ym2_sum(rank, genus, epsilon, box)
    while True:
        box *= 2
        bigger = oracles.ym2_sum(rank, genus, epsilon, box)
        if abs(bigger - value) <= 1e-15 * bigger:
            return bigger
        value = bigger


def generate() -> dict:
    verlinde = {}
    for algebra, genus, labels, levels in VERLINDE:
        rank = int(algebra[1:])
        verlinde[verlinde_key(algebra, genus, labels)] = {
            str(k): oracles.verlinde(rank, k, genus, labels) for k in levels}
    ym2 = {ym2_key(a, g, 0.0): v for (a, g), v in FLAT.items()}
    for algebra, genus, epsilon, box in YM2:
        ym2[ym2_key(algebra, genus, epsilon)] = _converged_ym2(
            int(algebra[1:]), genus, epsilon, box)
    return {"verlinde": verlinde, "ym2": ym2}


if __name__ == "__main__":
    REFERENCE.write_text(json.dumps(generate(), indent=1, sort_keys=True) + "\n")
    print("wrote", REFERENCE)
