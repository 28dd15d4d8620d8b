#!/usr/bin/env python3
"""Sweep every catalog problem, print the certified enclosures against the
oracle, and fit the log-log rate of the certified relative remainder.

Usage: python scripts/convergence_study.py [--n-sweep 25,100,400,1600]
"""

import argparse
import math

import numpy as np

from certlap import catalog_names
from certlap.cli import run_checks
from certlap.config import RunConfig


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n-sweep", default="25,100,400,1600")
    ap.add_argument("--grid-res", type=int, default=64)
    ap.add_argument("--tol", type=float, default=1e-10)
    args = ap.parse_args()
    sweep = tuple(int(t) for t in args.n_sweep.split(","))

    print(f"{'problem':<12}{'N':>6}  {'leading':>13}  {'oracle':>13}  "
          f"{'|err|':>10}  {'remainder':>10}  ok")
    for name in catalog_names():
        cfg = RunConfig(problem=name, n_sweep=sweep, grid_res=args.grid_res, tol=args.tol,
                        checks=("laplace",))
        _, report = run_checks(cfg)
        rels = []
        for r in report["checks"]["laplace"]["rows"]:
            lead, orc, rem = r["leading"], r["oracle"], r["remainder_magnitude"]
            rels.append(rem / abs(lead) if lead else math.inf)
            print(f"{name:<12}{r['N']:>6}  {lead:>13.6e}  {orc:>13.6e}  "
                  f"{abs(orc - lead):>10.3e}  {rem:>10.3e}  "
                  f"{'yes' if r['bound_ok'] else 'NO'}")
        slope = float(np.polyfit(np.log(sweep), np.log(rels), 1)[0])
        print(f"{'':<12}certified relative remainder ~ N^{slope:+.2f}")
        print()


if __name__ == "__main__":
    main()
