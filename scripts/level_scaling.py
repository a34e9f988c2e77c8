#!/usr/bin/env python3
"""Growth of fusion dimensions against the flat heat-kernel sum.

Prints V_g(k) / kappa^((g-1) dim) / Z_g(0) over a doubling ladder of
levels. By Witten's volume formula the column tends to the exact limit

    (r+1)^g V(rho)^-m (2 pi)^(-m |Delta+|),  m = 2g - 2,

with V(rho) = prod over positive roots of <rho, alpha> = 1! 2! ... r!,
which is printed last; for su(2) at genus 2 it is 1/pi^2.
"""

import argparse
import math

from seifertsum.lie import build_root_system
from seifertsum.verlinde import verlinde_dimension
from seifertsum.ym2 import ym2_partition


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--rank", type=int, default=1)
    ap.add_argument("--genus", type=int, default=2)
    ap.add_argument("--kmin", type=int, default=20)
    ap.add_argument("--doublings", type=int, default=5)
    args = ap.parse_args()

    rs = build_root_system("A", args.rank)
    g, m = args.genus, 2 * args.genus - 2
    flat = ym2_partition(rs, g, 0.0).value
    print("# A%d genus %d, Z_flat = %.12f" % (args.rank, g, flat))
    print("%8s  %18s" % ("k", "scaled"))
    for k in (args.kmin * 2**i for i in range(args.doublings)):
        kappa = k + rs.dual_coxeter
        scaled = verlinde_dimension(rs, k, g) / kappa ** ((g - 1) * rs.dimension) / flat
        print("%8d  %18.12g" % (k, scaled))
    v_rho = math.prod(map(math.factorial, range(1, args.rank + 1)))
    limit = (args.rank + 1) ** g / v_rho ** m / (2 * math.pi) ** (m * rs.num_positive_roots)
    print("# limit (r+1)^g V(rho)^-m (2 pi)^(-m |Delta+|) = %.12g" % limit)


if __name__ == "__main__":
    main()
