#!/usr/bin/env python3
"""Desk-scale dichotomy experiment.

For a universal sentence, compares its bounded-refutation verdict in
sampled small cancellation groups with the free-group verdict.  The
output fraction is desk-scale evidence, never a verified almost-sure
claim.
"""

import argparse
from fractions import Fraction

from randgroups.harness import ExperimentConfig, run_experiment, emit


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sentence", default="x y ~x ~y = 1",
                    help="sentence text (all variables universal)")
    ap.add_argument("--rank", type=int, default=2)
    ap.add_argument("--density", default="0")
    ap.add_argument("--lengths", default="16,20")
    ap.add_argument("--trials", type=int, default=50)
    ap.add_argument("--ball", type=int, default=3, help="witness tuple length bound L")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="dichotomy.csv")
    args = ap.parse_args()

    cfg = ExperimentConfig(
        kind="sentence",
        rank=args.rank,
        density=Fraction(args.density),
        length_list=tuple(int(x) for x in args.lengths.split(",")),
        seed=args.seed,
        trials=args.trials,
        sentence_text=args.sentence,
        ball=args.ball,
    )
    rows = run_experiment(cfg)
    emit(rows, "csv", args.out)
    for r in rows:
        print(
            f"l={r.ell}: {r.success}/{r.trials} verdicts match the free group "
            f"({r.skips} non-C'(1/6) skips, {r.failures} mismatches or budget failures)"
        )
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
