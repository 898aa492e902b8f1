#!/usr/bin/env python3
"""Fit regret scaling exponents over a horizon sweep.

Two stock pairings:

  batched    mini-batch EXP3 against the drifting two-arm construction
             (gapwalk loss + state-machine delay), fit on policy regret
  unbatched  raw EXP3 against the alternating-delay trap, fit on
             pseudo-regret (its policy regret is identically zero)

Raw per-run rows are written as CSV so the fit can be redone offline
with `delaybandits analyze`.  The bootstrap interval resamples seeds
within each horizon.
"""

import argparse
import os
import sys
import time

from delaybandits import analysis, cli


PAIRINGS = {
    "batched": dict(adversary="gapwalk", delay="statemachine",
                    learner="wrapper-exp3", metric="policy_regret"),
    "unbatched": dict(adversary="paritytrap", delay="parity",
                      learner="exp3", memory_bound=1, metric="pseudo_regret"),
}


def run_pairing(name, args):
    conf = dict(PAIRINGS[name])
    metric = conf.pop("metric")
    spec = cli.ExperimentSpec(
        horizons=tuple(args.horizons),
        repetitions=args.seeds,
        seed_base=args.seed_base,
        workers=args.workers,
        **conf,
    )
    t0 = time.perf_counter()
    rows = cli.execute_spec(spec)
    elapsed = time.perf_counter() - t0

    out = os.path.join(args.out_dir, f"{name}.csv")
    cli.write_rows(out, rows)

    groups = analysis.horizon_groups(rows, metric)
    points = analysis.horizon_means(groups)
    fit = analysis.fit_exponent(points)

    print(f"pairing={name}  {conf['adversary']}+{conf['delay']}  "
          f"learner={conf['learner']}  metric={metric}")
    print(f"  {'T':>8}  {'mean ' + metric:>20}")
    for t, v in points:
        print(f"  {t:>8}  {v:>20.4f}")
    line = f"  alpha={fit.exponent:.4f}  r2={fit.r_squared:.4f}"
    if args.bootstrap > 0:
        ci = analysis.bootstrap_exponent_ci(groups, args.bootstrap)
        if ci is not None:
            line += f"  ci90=[{ci[0]:.4f}, {ci[1]:.4f}]"
    print(line)
    print(f"  rows -> {out}  ({elapsed:.1f}s)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pairing", choices=(*PAIRINGS, "both"), default="both")
    ap.add_argument("--horizons", type=int, nargs="+",
                    default=[2 ** k for k in range(10, 17)])
    ap.add_argument("--seeds", type=int, default=50)
    ap.add_argument("--seed-base", type=int, default=0, dest="seed_base")
    ap.add_argument("--bootstrap", type=int, default=200)
    ap.add_argument("--out-dir", default="results", dest="out_dir")
    ap.add_argument("--workers", type=int, default=1)
    args = ap.parse_args(argv)

    os.makedirs(args.out_dir, exist_ok=True)
    names = list(PAIRINGS) if args.pairing == "both" else [args.pairing]
    for name in names:
        run_pairing(name, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
