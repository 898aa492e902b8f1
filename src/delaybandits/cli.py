"""Command-line front end: seeded experiment runs, sweeps, verification
suites, and scaling analysis.

Exit codes: 0 success, 1 usage error, 2 verification failure, 3 I/O error.

Result CSVs are UTF-8 with a header row, '.' decimal separator, LF line
endings, and columns
seed,T,K,d,m,tau,learner,adversary,policy_regret,pseudo_regret,
realized_total,switch_count,wall_time_ms in that order, sorted by
(T, seed).  ``switch_count`` counts the rounds in which the played action
differs from the round before; it is not ``DelayStateMachine.switch_count``,
which counts masking-state switches and appears in no column.  Every run's
master seed is derived from (seed base, repetition index), so growing a
sweep never reshuffles existing rows, and wall_time_ms is the only column
that varies between identical invocations.

Each ``run``/``sweep`` flag sets the :class:`ExperimentSpec` field of the
same meaning; a flag left out takes that field's default, except that
``sweep`` defaults to the 2^10..2^16 horizon grid and 50 seeds.  A spec is
checked when it is built, from flags or from Python alike.  A gap-walk run
takes its gap and walk scale from ``gap_walk_defaults(K, T)``; no flag
overrides them.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import operator
import sys
import time
from dataclasses import dataclass, fields
from itertools import product, repeat

from . import adversaries as adv
from . import analysis
from . import core
from . import learners as lrn
from .seeding import LEARNER_STREAM, run_seed, substream

CSV_COLUMNS = (
    "seed", "T", "K", "d", "m", "tau", "learner", "adversary",
    "policy_regret", "pseudo_regret", "realized_total", "switch_count",
    "wall_time_ms",
)

ADVERSARIES = ("constant", "iid", "paritytrap", "gapwalk")
DELAYS = ("none", "parity", "statemachine", "lastslot")
LEARNERS = ("uniform", "exp3", "wrapper-exp3")

DEFAULT_SWEEP_HORIZONS = tuple(2 ** k for k in range(10, 17))

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_IO = 3


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# experiment specification


#: the spec's integer fields, each with the flag that sets it and its least
#: value (-inf: unbounded; ``run_seed`` masks a negative seed base)
_INT_FIELDS = (("arm_count", "--K", 2), ("delay_span", "--d", 0), ("memory_bound", "--m", 0),
               ("batch_size", "--tau", 0), ("repetitions", "--seeds", 1),
               ("seed_base", "--seed-base", -math.inf), ("workers", "--workers", 1))


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to reproduce a batch of runs; checked on
    construction, so an invalid spec raises :class:`UsageError`."""

    adversary: str = "gapwalk"
    delay: str = "statemachine"
    learner: str = "wrapper-exp3"
    horizons: tuple = (4096,)
    arm_count: int = 2
    delay_span: int = 0     # 0: implied by the delay kind
    memory_bound: int = 0
    batch_size: int = 0     # 0: automatic
    repetitions: int = 1
    seed_base: int = 0
    out: str = "results.csv"
    workers: int = 1

    def __post_init__(self) -> None:
        if self.adversary not in ADVERSARIES:
            raise UsageError(f"unknown adversary {self.adversary!r}; choose from {ADVERSARIES}")
        if self.delay not in DELAYS:
            raise UsageError(f"unknown delay {self.delay!r}; choose from {DELAYS}")
        if self.learner not in LEARNERS:
            raise UsageError(f"unknown learner {self.learner!r}; choose from {LEARNERS}")
        if not isinstance(self.horizons, tuple):
            raise UsageError(f"--T must be given as a tuple of horizons, got {self.horizons!r}")
        if not self.horizons:
            raise UsageError("need at least one horizon (--T)")
        # a frozen spec stores each checked value back as a plain int
        try:
            horizons = tuple(core.check_int("--T", t, 1) for t in self.horizons)
            object.__setattr__(self, "horizons", horizons)
            for name, flag, least in _INT_FIELDS:
                object.__setattr__(self, name, core.check_int(flag, getattr(self, name), least))
        except ValueError as e:
            raise UsageError(str(e)) from None
        if len(set(self.horizons)) != len(self.horizons):
            raise UsageError("horizons must be distinct")
        if self.adversary == "paritytrap" and self.arm_count != 2:
            raise UsageError("the parity trap is two-armed; use --K 2")
        if self.delay == "statemachine" and self.adversary != "gapwalk":
            raise UsageError("--delay statemachine requires --adversary gapwalk")
        if self.delay == "parity" and self.adversary != "paritytrap":
            raise UsageError("--delay parity requires --adversary paritytrap")
        if self.delay != "lastslot" and self.delay_span != 0:
            raise UsageError(f"--delay {self.delay} fixes its own span; "
                             "--d applies to --delay lastslot only")
        if self.learner != "wrapper-exp3" and self.batch_size != 0:
            raise UsageError("--tau applies to --learner wrapper-exp3 only")
        if self.delay == "lastslot" and self.delay_span == 1:
            raise UsageError("--delay lastslot needs --d >= 2 (0 = 2)")
        if self.adversary == "gapwalk" and any(t < 3 for t in self.horizons):
            raise UsageError("gapwalk default schedules need T >= 3")


def _build_run(spec: ExperimentSpec, horizon: int, master_seed: int):
    """Instantiate (config, learner, loss, delay, tau) for one run."""
    k = spec.arm_count
    if spec.adversary == "constant":
        loss = adv.ConstantLoss(0.5)
    elif spec.adversary == "iid":
        loss = adv.TableLoss.from_seed(k, horizon, master_seed)
    elif spec.adversary == "paritytrap":
        loss = adv.ParityTrapLoss.from_seed(master_seed)
    else:
        gap, sigma = adv.gap_walk_defaults(k, horizon)
        loss = adv.GapWalkLoss.from_seed(k, horizon, gap, sigma, master_seed)

    if spec.delay == "none":
        delay = adv.NoDelay()
    elif spec.delay == "parity":
        delay = adv.ParityDelay()
    elif spec.delay == "statemachine":
        delay = adv.DelayStateMachine(loss)
    else:
        delay = adv.LastSlotDelay(spec.delay_span or 2)

    rng = substream(master_seed, LEARNER_STREAM)
    if spec.learner == "uniform":
        tau = 1
        learner = lrn.UniformRandomLearner(k, rng)
    elif spec.learner == "exp3":
        tau = 1
        learner = lrn.Exp3Learner(k, horizon, rng)
    else:
        tau = spec.batch_size or lrn.choose_tau(horizon, k, 0, spec.memory_bound)
        inner = lrn.Exp3Learner(k, max(horizon // tau, 1), rng)
        learner = lrn.MiniBatchWrapper(inner, tau, horizon)

    config = core.GameConfig(horizon, core.Discrete(k), master_seed=master_seed)
    return config, learner, loss, delay, tau


def _count_switches(actions) -> int:
    return sum(map(operator.ne, actions, actions[1:]))


def run_one(spec: ExperimentSpec, horizon: int, repetition: int) -> dict:
    """Execute one seeded run and return its result row."""
    master = run_seed(spec.seed_base, repetition)
    config, learner, loss, delay, tau = _build_run(spec, horizon, master)
    t0 = time.perf_counter()
    transcript = core.run_game(config, learner, loss, delay)
    report = core.policy_regret(transcript, loss)
    wall_ms = (time.perf_counter() - t0) * 1e3
    return {
        "seed": master,
        "T": horizon,
        "K": spec.arm_count,
        "d": delay.delay_span,
        "m": spec.memory_bound,
        "tau": tau,
        "learner": spec.learner,
        "adversary": f"{spec.adversary}+{spec.delay}",
        "policy_regret": report.policy_regret,
        "pseudo_regret": report.pseudo_regret,
        "realized_total": report.realized_total,
        "switch_count": _count_switches(transcript.actions),
        "wall_time_ms": wall_ms,
    }


def execute_spec(spec: ExperimentSpec) -> list:
    """All runs of a spec, sorted by (T, seed); parallel when asked."""
    horizons, repetitions = zip(*product(spec.horizons, range(spec.repetitions)))
    if spec.workers > 1 and len(horizons) > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=spec.workers) as pool:
            rows = list(pool.map(run_one, repeat(spec), horizons, repetitions, chunksize=1))
    else:
        rows = list(map(run_one, repeat(spec), horizons, repetitions))
    rows.sort(key=lambda r: (r["T"], r["seed"]))
    return rows


def write_rows(path: str, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([row[c] for c in CSV_COLUMNS])


def read_rows(path: str) -> list:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# subcommands


def cmd_run(args) -> int:
    """``run`` and ``sweep``: execute the spec of the flags, write its CSV."""
    spec = _spec_from_args(args)
    rows = execute_spec(spec)
    write_rows(spec.out, rows)
    print(f"wrote {len(rows)} rows to {spec.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import checks  # checks builds its runs with this module
    names = args.suite or list(checks.SUITES)
    for name in names:
        if name not in checks.SUITES:
            raise UsageError(f"unknown suite {name!r}; choose from {tuple(checks.SUITES)}")
    all_ok = True
    for name in names:
        results = checks.SUITES[name]()
        ok = all(passed for passed, _ in results)
        all_ok &= ok
        print(f"suite {name}: {'ok' if ok else 'FAILED'}")
        for passed, label in results:
            print(f"  [{'pass' if passed else 'FAIL'}] {label}")
    return EXIT_OK if all_ok else EXIT_VERIFY


def cmd_analyze(args) -> int:
    try:
        resamples = core.check_int("--bootstrap", args.bootstrap, 0)
    except ValueError as e:
        raise UsageError(str(e)) from None
    rows = read_rows(args.csv)
    if not rows:
        raise UsageError(f"no data rows in {args.csv}")
    metric = args.metric
    for needed in ("T", metric):
        if needed not in rows[0]:
            raise UsageError(f"column {needed!r} missing from {args.csv}")
    try:
        groups = analysis.horizon_groups(rows, metric)
    except ValueError as e:
        raise UsageError(f"columns 'T' and {metric!r} of {args.csv} must be numeric: {e}")
    try:
        fit = analysis.fit_exponent(analysis.horizon_means(groups))
    except ValueError as e:
        raise UsageError(str(e))
    payload = {
        "metric": metric,
        "alpha": fit.exponent,
        "multiplier": fit.multiplier,
        "r_squared": fit.r_squared,
        "points": [[t, v] for t, v in fit.points],
    }
    if resamples > 0:
        ci = analysis.bootstrap_exponent_ci(groups, resamples)
        if ci is not None:
            payload["alpha_ci_90"] = list(ci)
    print(json.dumps(payload))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _add_run_flags(p) -> None:
    # dest is the ExperimentSpec field; a flag left out is absent from the
    # namespace (the parser's argument_default is SUPPRESS)
    p.add_argument("--adversary", choices=ADVERSARIES)
    p.add_argument("--delay", choices=DELAYS)
    p.add_argument("--learner", choices=LEARNERS)
    p.add_argument("--T", type=int, action="append", dest="horizons",
                   help="horizon; repeatable")
    p.add_argument("--K", type=int, dest="arm_count", help="number of arms")
    p.add_argument("--d", type=int, dest="delay_span", help="delay span (0 = implied)")
    p.add_argument("--m", type=int, dest="memory_bound", help="loss memory bound")
    p.add_argument("--tau", type=int, dest="batch_size", help="batch size (0 = automatic)")
    p.add_argument("--seeds", type=int, dest="repetitions", help="repetitions per horizon")
    p.add_argument("--seed-base", type=int, dest="seed_base")
    p.add_argument("--out", help="output CSV path")
    p.add_argument("--workers", type=int)


def _spec_from_args(args) -> ExperimentSpec:
    """The spec of the flags given to ``run`` or ``sweep``."""
    given = {f.name: getattr(args, f.name) for f in fields(ExperimentSpec)
             if hasattr(args, f.name)}
    if "horizons" in given:
        given["horizons"] = tuple(given["horizons"])
    if args.command == "sweep":
        given = {"horizons": DEFAULT_SWEEP_HORIZONS, "repetitions": 50, **given}
    spec = ExperimentSpec(**given)
    if args.command == "run" and len(spec.horizons) != 1:
        raise UsageError("run takes exactly one --T; use sweep for grids")
    return spec


def build_parser() -> _Parser:
    from . import checks
    parser = _Parser(prog="delaybandits", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_run = sub.add_parser("run", help="run one horizon and write a result CSV",
                           argument_default=argparse.SUPPRESS)
    _add_run_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a horizon grid and write a result CSV",
                             argument_default=argparse.SUPPRESS)
    _add_run_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_run)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("suite", nargs="*",
                          help=f"suites to run; default all of {tuple(checks.SUITES)}")
    p_verify.set_defaults(func=cmd_verify)

    p_an = sub.add_parser("analyze", help="fit a scaling exponent to a result CSV")
    p_an.add_argument("csv", help="result CSV produced by run or sweep")
    p_an.add_argument("--metric", default="policy_regret")
    p_an.add_argument("--bootstrap", type=int, default=0,
                      help="bootstrap resamples for a confidence interval (0 = none)")
    p_an.set_defaults(func=cmd_analyze)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
