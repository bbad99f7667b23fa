#!/usr/bin/env python3
"""Report the resolved tester thresholds for a calibration choice.

Shows, for each tester, the thresholds implied by (lambda, gamma, c1,
c_hyper) next to the analytic standard-Gaussian values of the tested
statistics, so threshold margins are visible before running experiments.

    python scripts/tester_calibration_report.py --lambda 3 --c1 3 --sigma 0.0022
"""

import argparse
import math
import sys

from halftest.testers import TesterConfig

PHI0 = 1.0 / math.sqrt(2.0 * math.pi)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lambda", dest="lam", type=float, default=3.0)
    ap.add_argument("--gamma", type=float, default=1.0)
    ap.add_argument("--c1", type=float, default=3.0)
    ap.add_argument("--c-hyper", type=float, default=10.0)
    ap.add_argument("--sigma", type=float, default=0.0022)
    ap.add_argument("--theta", type=float, default=0.05)
    args = ap.parse_args()
    try:
        cfg = TesterConfig(lam=args.lam, gamma=args.gamma, c1=args.c1,
                           c_hyper=args.c_hyper)
    except ValueError as exc:
        ap.error(str(exc))

    k = cfg.strip_constant
    g4 = cfg.gamma**4
    print(f"strip constant c1*lambda^c1 = {k:.4g}")
    print(f"hypercontractivity accept threshold = {(cfg.c_hyper - 1) * g4:.4g}"
          f"   (gaussian value ~ 3)")
    print()
    sigma = args.sigma
    print(f"stationary tester at sigma = {sigma}:")
    print(f"  lower strip: gaussian {2 * (sigma / 6) * PHI0:.3e}"
          f"  must exceed {sigma / k:.3e}")
    print(f"  upper strip: gaussian {2 * (sigma / 2) * PHI0:.3e}"
          f"  must stay below {sigma * k:.3e}")
    print(f"  min eigenvalue: gaussian {2 * (sigma / 6) * PHI0:.3e}"
          f"  must exceed {sigma / k:.3e}")
    print(f"  max eigenvalue: gaussian {2 * (sigma / 2) * PHI0:.3e}"
          f"  must stay below {sigma * k:.3e}")
    print()
    theta = args.theta
    print(f"disagreement tester at theta = {theta}:")
    print(f"  strip: gaussian {2 * theta * PHI0:.3e}"
          f"  must stay below {k * theta:.3e}")
    print(f"  certified disagreement bound: {5 * k * theta:.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
