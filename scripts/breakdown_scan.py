#!/usr/bin/env python3
"""Scan exponents below 6/5 for the empirical breakdown of the lower-bound route.

The closed-form route bounds the index from below by minimizing
max(F, G) / (||T||_1^(1/p) ||T||_inf^(1/q)) over the third constraint region;
that bound is proven to hold on [6/5, 3/2] and is known to fail at p = 1.16.
This script locates where the failure first appears as p decreases.  Each
row is verify_claim_region's float64 infimum of that region (exact up to its
stated tolerances, not a proof); only the p-step is a resolution, so the
largest violating p is known to within one step.

Usage:
    python scripts/breakdown_scan.py [--pmin 1.10] [--pmax 1.21] [--n 23]
"""

import argparse
import math
import sys

from lpindex import make_exponent, verify_claim_region


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pmin", type=float, default=1.10)
    ap.add_argument("--pmax", type=float, default=1.21)
    ap.add_argument("--n", type=int, default=23)
    args = ap.parse_args(argv)
    if not (1.0 < args.pmin <= args.pmax < math.inf) or args.n < 2:
        ap.error("need 1 < pmin <= pmax < inf and n >= 2")

    step = (args.pmax - args.pmin) / (args.n - 1)
    violating = []
    print(f"{'p':>10}  {'inf_found':>12}  {'target':>12}  {'gap':>12}  status")
    for i in range(args.n):
        p = args.pmin + i * step
        rep = verify_claim_region(3, make_exponent(p), force=True)
        gap = rep.infimum_found - rep.target
        status = "holds" if rep.holds else "VIOLATED"
        if not rep.holds:
            violating.append(p)
        print(f"{p:>10.6f}  {rep.infimum_found:>12.9f}  {rep.target:>12.9f}  {gap:>+12.3e}  {status}")
        if not rep.holds:
            w = rep.worst_point
            print(f"{'':>10}  witness (a,b,c,d) = ({w.a:.6f}, {w.b:.6f}, {w.c:.6f}, {w.d:.6f})")

    if not violating:
        print("no violation found at the scanned p")
    else:
        print(
            f"violations found for {len(violating)} scanned p, "
            f"largest violating p = {max(violating):.6f} (resolution {step:.4f}, not certified)"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
