#!/usr/bin/env python3
"""Phase and modulus of the weight-lattice sum across fibre degrees.

For fixed algebra, level and genus, sweep the degree p and print
|Z|, arg Z for bare and canonical framings side by side. The moduli
must agree; only the phase column moves, by exp(-2 pi i c sign(p)/8)
per unit of framing correction. Where |Z| < 1e-12 the sum vanishes to
rounding and both phases print as `undef`.
"""

import argparse
import cmath

from seifertsum.lie import build_root_system
from seifertsum.modular import central_charge
from seifertsum.seifert import seifert_scan

# below this modulus Z is zero to rounding and its phase is noise
ZERO_MODULUS = 1e-12


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--rank", type=int, default=1)
    ap.add_argument("--level", type=int, default=3)
    ap.add_argument("--genus", type=int, default=0)
    ap.add_argument("--pmax", type=int, default=6)
    args = ap.parse_args()

    rs = build_root_system("A", args.rank)
    c = central_charge(rs, args.level)
    print("# A%d level %d genus %d, c = %.6f"
          % (args.rank, args.level, args.genus, c))
    print("%5s  %14s  %10s  %10s" % ("p", "|Z|", "arg bare", "arg canon"))
    degrees = range(-args.pmax, args.pmax + 1)
    bare, canonical = (seifert_scan(rs, [args.genus], degrees, [args.level], framing=f)
                       for f in ("bare", "canonical"))
    for zb, zc in zip(bare, canonical):
        assert abs(zb.modulus - zc.modulus) < 1e-12 * max(1.0, zb.modulus)
        if zb.modulus < ZERO_MODULUS:
            phases = ("undef", "undef")
        else:
            phases = ("%.6f" % cmath.phase(zb.value), "%.6f" % cmath.phase(zc.value))
        print("%5d  %14.9f  %10s  %10s" % ((zb.degree, zb.modulus) + phases))


if __name__ == "__main__":
    main()
