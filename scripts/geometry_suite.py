#!/usr/bin/env python3
"""Cayley-ball geometry verification run.

Samples C'(1/8)-verified presentations, builds bounded balls, and runs
the exhaustive single-layer, digon-rigidity and distance-minimizer
scans.  Expected outcome: zero violations; any violation found would
falsify a structure claim at this scale and is printed in full.
"""

import argparse
import time
from fractions import Fraction

from randgroups.sampler import DensityParams, sample_presentation
from randgroups.cancellation import satisfies_cprime
from randgroups.cayley import build_ball, geometry_scan


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rank", type=int, default=3)
    ap.add_argument("--density", default="0")
    ap.add_argument("--lengths", default="9,10,11,12")
    ap.add_argument("--radius", type=int, default=5)
    ap.add_argument("--count", type=int, default=6, help="verified presentations to scan")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--checks", default="single-layer,digons,minimizers")
    args = ap.parse_args()

    lengths = [int(x) for x in args.lengths.split(",")]
    checks = tuple(c.strip() for c in args.checks.split(","))
    seed = args.seed
    found = 0
    i = 0
    while found < args.count:
        length = lengths[i % len(lengths)]
        i += 1
        while True:
            p = sample_presentation(DensityParams(args.rank, Fraction(args.density), length, seed))
            seed += 1
            if satisfies_cprime(p, Fraction(1, 8)):
                break
        found += 1
        t0 = time.time()
        ball = build_ball(p, args.radius)
        rep = geometry_scan(ball, checks)
        status = "ok" if not rep.violations else f"{len(rep.violations)} VIOLATIONS"
        print(
            f"l={length} seed={seed-1}: {ball.n_vertices} vertices, "
            f"{rep.pairs_checked} pairs ({rep.multi_geodesic_pairs} multi-geodesic), "
            f"{rep.triples_checked} triples, "
            f"{rep.digon_count} digons, max divisor {rep.max_divisor_len}, "
            f"{status} ({time.time()-t0:.1f}s)"
        )
        for v in rep.violations:
            print("  !!", v)


if __name__ == "__main__":
    main()
