#!/usr/bin/env python3
"""Sweep the SOS hypercontractivity certificate over marginal families.

Reproduces the completeness/soundness picture: structured families stay
far below the accept threshold C_hyper - 1 at the theory-sized samples,
heavy-tailed and spiked ones blow past it.  The accept rate is the
tester's, which stops at the first certified bound below the threshold; the
value columns are the relaxation values of full solves of the same samples.
Like the tester, both see the sample in units of gamma (x / gamma), so
threshold and values are in units of gamma^4.

    python scripts/hypercontractivity_sweep.py --out sweep.csv
"""

import argparse
import csv
import math
import sys

import numpy as np

from halftest.distributions import MarginalSpec, sample_marginal
from halftest.sos_hyper import empirical_fourth_moment_tensor, solve_relaxation
from halftest.testers import hypercontractivity_test

FAMILIES = ("standard_gaussian", "product_laplace", "uniform_cube",
            "uniform_ball", "student_t")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dims", type=int, nargs="+", default=[2, 3, 4, 5])
    ap.add_argument("--trials", type=int, default=20)
    ap.add_argument("--gamma", type=float, default=1.0)
    ap.add_argument("--c-hyper", type=float, default=10.0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    rows = []
    for kind in FAMILIES:
        for d in args.dims:
            n = min(int((2 * d * math.log(16 * d)) ** 4), 100_000)
            spec = MarginalSpec(kind, d, nu=3 if kind == "student_t" else None)
            values, accepts = [], 0
            for trial in range(args.trials):
                pts = sample_marginal(spec, n, seed=args.seed + trial)
                accepts += hypercontractivity_test(pts, args.gamma,
                                                   args.c_hyper).accepted
                values.append(solve_relaxation(
                    empirical_fourth_moment_tensor(pts / args.gamma))[0])
            rows.append([kind, d, n, accepts / args.trials,
                         f"{np.nanmedian(values):.3f}",
                         f"{np.nanmax(values):.3f}"])
            print(f"{kind:18s} d={d} n={n:6d} accept={accepts}/{args.trials} "
                  f"median value {np.nanmedian(values):.2f}")
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kind", "dim", "n", "accept_rate",
                         "median_value", "max_value"])
        writer.writerows(rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
