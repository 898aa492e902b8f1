#!/usr/bin/env python3
"""Inspect the lower-bound construction on a single seed.

Prints three diagnostic blocks:

  walk      parent-rule widths at powers of two, the drift threshold,
            and the realized walk range
  machine   one full game against the state-machine delay: switch count
            vs the analytic budget, carry range, masked-baseline residual
  info      per-round censored-Gaussian KL between the two observation
            bands and the resulting total-variation budget

Useful when retuning gap/sigma or auditing a suspicious sweep row.
"""

import argparse
import sys

import numpy as np

from delaybandits import (
    CensoredGaussian,
    MultiScaleWalk,
    censored_kl,
    drift_threshold,
    gap_walk_defaults,
    gaussian_kl,
    observation_tv_bound,
    pinsker_tv,
    switch_bound,
    walk_parent,
    width,
)
from delaybandits.checks import masking_run


def walk_block(args):
    print("== walk ==")
    print(f"  {'T':>8}  {'width':>5}  {'log2(T)+1':>9}")
    for p in range(0, args.log2_T + 1, 2):
        t = 2 ** p
        print(f"  {t:>8}  {width(walk_parent, t):>5}  {p + 1:>9}")
    T = 2 ** args.log2_T
    gap, sigma = gap_walk_defaults(args.K, T)
    thr = drift_threshold(sigma, T, args.delta)
    walk = MultiScaleWalk(sigma, T, master_seed=args.seed)
    values = walk.values()
    print(f"  sigma={sigma:.6f}  drift threshold(delta={args.delta})={thr:.4f}")
    print(f"  realized range [{values.min():+.4f}, {values.max():+.4f}]"
          f"  max|W|={np.abs(values).max():.4f}")


def machine_block(args):
    print("== machine ==")
    T = 2 ** args.log2_T
    run = masking_run(T, args.K, args.seed)
    print(f"  T={T}  gap={run.gap:.3e}  hidden arm={run.best_arm}")
    if run.best_arm is None:
        print(f"  switches={run.switches} (no hidden arm: must be 0)")
    else:
        print(f"  hidden-arm pulls={run.pulls}")
        print(f"  switches={run.switches}  budget={run.budget:.2f}")
    print(f"  carry range [{run.carry_min:.6f}, {run.carry_max:.6f}] (cap 0.25)")
    print(f"  max |observed - masked baseline| = {run.residual:.3e}")


def info_block(args):
    print("== info ==")
    T = 2 ** args.log2_T
    gap, sigma = gap_walk_defaults(args.K, T)
    # both observation bands sit near 3/4, one shifted down by the gap
    p = CensoredGaussian(0.75, sigma)
    q = CensoredGaussian(0.75 - gap, sigma)
    kl = censored_kl(p, q)
    print(f"  per-round censored KL = {kl:.3e}  (gaussian (gap/sigma)^2/2 "
          f"= {gaussian_kl(0.75, 0.75 - gap, sigma):.3e})")
    print(f"  per-round Pinsker TV  = {pinsker_tv(kl):.3e}")
    w = width(walk_parent, T)
    tv = observation_tv_bound(gap, sigma, w, T / args.K)
    print(f"  stream TV budget at uniform play (width={w}) = {tv:.4f}")
    eps_T = switch_bound(gap, T / args.K)
    print(f"  switch budget at uniform play = {eps_T:.2f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--log2-T", type=int, default=12, dest="log2_T")
    ap.add_argument("--K", type=int, default=2)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--delta", type=float, default=0.1,
                    help="drift threshold tail probability")
    args = ap.parse_args(argv)
    if args.log2_T < 2:
        ap.error("--log2-T must be >= 2")
    if args.K < 2:
        ap.error("--K must be >= 2")
    if not 0.0 < args.delta < 1.0:
        ap.error("--delta must lie in (0, 1)")

    walk_block(args)
    machine_block(args)
    info_block(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
