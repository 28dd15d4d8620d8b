#!/usr/bin/env python3
"""Fluctuation-limit demo: draw exact Gibbs samples for one problem, compare
the rescaled marginals against the second-order law at x*(N), and sweep the
MGF residuals.

Usage: python scripts/fluctuation_demo.py [--problem exp1d] [--count 100000]
"""

import argparse

import numpy as np

from certlap import (
    BOUNDARY,
    empirical_limit_test,
    estimate_constants,
    fluctuation_sweep,
    get_problem,
    gibbs_measure,
    sample,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--problem", default="exp1d")
    ap.add_argument("--n", type=int, default=400)
    ap.add_argument("--count", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    spec = get_problem(args.problem)
    consts = estimate_constants(spec, grid_res=64, n_sweep=(args.n,))
    meas = gibbs_measure(spec, args.n)
    batch = sample(meas, args.count, seed=args.seed, consts=consts)
    print(f"{spec.name}: N={args.n}, {batch.count} draws, "
          f"acceptance {batch.acceptance_rate:.3f}")
    print(f"  empirical mean: {np.array2string(np.mean(batch.draws, axis=0), precision=5)}")

    ks = empirical_limit_test(batch)
    for marg in ks["marginals"]:
        print(f"  {marg['law']:<12} KS = {marg['ks']:.5f}  "
              f"sqrt(n) KS = {marg['sqrt_n_ks']:.3f}")

    xi = np.zeros(spec.dimension)
    xi[spec.maximum.boundary_axis or 0] = 0.5 if spec.maximum.kind == BOUNDARY else 1.0
    out = fluctuation_sweep(spec, (args.n // 16, args.n // 4, args.n), xi)
    print(f"  mgf residual sweep: {['%.3g' % r for r in out['residuals']]}"
          f"{'  [hypothesis-violation flag]' if out['flagged'] else ''}")


if __name__ == "__main__":
    main()
