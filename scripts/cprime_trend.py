#!/usr/bin/env python3
"""Small-cancellation trend experiment.

Estimates the fraction of one-relator presentations satisfying C'(1/8)
as the relator length grows, next to the first-moment oracle column.
"""

import argparse
from fractions import Fraction

from randgroups.harness import ExperimentConfig, run_experiment, emit


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rank", type=int, default=2)
    ap.add_argument("--density", default="0")
    ap.add_argument("--lengths", default="40,80,160")
    ap.add_argument("--trials", type=int, default=500)
    ap.add_argument("--lambda", dest="lam", default="1/8")
    ap.add_argument("--seed", type=int, default=2026)
    ap.add_argument("--out", default="cprime_trend.csv")
    args = ap.parse_args()

    cfg = ExperimentConfig(
        kind="cprime",
        rank=args.rank,
        density=Fraction(args.density),
        length_list=tuple(int(x) for x in args.lengths.split(",")),
        seed=args.seed,
        trials=args.trials,
        lam=Fraction(args.lam),
    )
    rows = run_experiment(cfg)
    emit(rows, "csv", args.out)
    for r in rows:
        print(
            f"l={r.ell}: success fraction {r.fraction:.4f} "
            f"(first-moment bound on failures: {r.oracle:.3g})"
        )
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
