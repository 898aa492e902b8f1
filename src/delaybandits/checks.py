"""Invariant checks of the two constructions and the mini-batch wrapper.

Each check runs at the scale and on the seeds it is given and returns what
it measured, together with the verdicts its thresholds give.  The
acceptance tests run the checks at full scale; ``delaybandits verify``
runs them small through :data:`SUITES`, which maps each suite name to a
function returning ``(passed, label)`` pairs.
"""

from __future__ import annotations

import itertools
import math
from operator import ne, sub
from typing import NamedTuple

import numpy as np

from . import adversaries as adv
from . import analysis
from . import core
from . import learners as lrn
from .seeding import LEARNER_STREAM, run_seed, substream

# ---------------------------------------------------------------------------
# parity trap


def forced_observations(transcript) -> bool:
    """Whether the observed stream is the forced 0, 1, 0, 1, ..."""
    n = transcript.horizon
    return transcript.observed == (0.0, 1.0) * (n // 2) + (0.0,) * (n % 2)


class TrapObservations(NamedTuple):
    """Runs with a forced observed stream, indexed by the hidden arm."""

    random_forced: tuple    # of 100 uniform policies at T = 10^4
    scripted_forced: tuple  # of all 2^n action sequences at T = n


def trap_observations(n: int, seed_base: int) -> TrapObservations:
    """The parity trap shows every policy the same stream 0, 1, 0, 1, ...

    For hidden arm z, uniform policy i plays on ``run_seed(seed_base + z,
    i)``.  Every deterministic learner realizes some fixed action sequence,
    so ranging over all 2^n sequences covers them all at T = n.
    """
    long = core.GameConfig(10_000, core.Discrete(2), 2)
    short = core.GameConfig(n, core.Discrete(2), 2)
    random_forced, scripted_forced = [], []
    for best in (0, 1):
        loss = adv.ParityTrapLoss(best)
        random_forced.append(sum(
            forced_observations(core.run_game(
                long,
                lrn.UniformRandomLearner(
                    2, substream(run_seed(seed_base + best, rep), LEARNER_STREAM)),
                loss, adv.ParityDelay(),
            ))
            for rep in range(100)
        ))
        scripted_forced.append(sum(
            forced_observations(
                core.run_game(short, lrn.ScriptedLearner(seq), loss, adv.ParityDelay()))
            for seq in itertools.product((0, 1), repeat=n)
        ))
    return TrapObservations(tuple(random_forced), tuple(scripted_forced))


# ---------------------------------------------------------------------------
# masking state machine over the gap walk


class MaskingRun(NamedTuple):
    """What one run against the gap walk and its masking delay measured."""

    gap: float
    best_arm: object     # the hidden arm, or None
    pulls: int           # plays of the hidden arm; 0 without one
    switches: int        # masking-state switches, counted from the recorded states
    budget: float        # switch budget for those pulls; 0 without a hidden arm
    carry_min: float
    carry_max: float
    residual: float      # largest |observed - masked baseline| over the rounds
    split_ok: bool       # components in [0, loss], summing to the loss


def masking_run(horizon: int, arm_count: int, seed: int) -> MaskingRun:
    """Uniform play on master seed ``seed`` against the gap walk with the
    default gap and sigma, delayed by its masking state machine.

    The machine starts high, so a first round in the low state counts as
    a switch.
    """
    gap, sigma = adv.gap_walk_defaults(arm_count, horizon)
    loss = adv.GapWalkLoss.from_seed(arm_count, horizon, gap, sigma, seed)
    machine = adv.DelayStateMachine(loss)
    learner = lrn.UniformRandomLearner(arm_count, substream(seed, LEARNER_STREAM))
    config = core.GameConfig(horizon, core.Discrete(arm_count), 2, seed)
    tr = core.run_game(config, learner, loss, machine)

    lows, carries = machine.lows, machine.carries
    baseline = map(loss.masked_baseline, range(1, horizon + 1), lows)
    residual = max(map(abs, map(sub, tr.observed, baseline)))
    components = np.array(tr.components)
    losses = np.array(tr.true_losses)
    split_ok = bool(
        (components >= -1e-12).all()
        and (components <= losses[:, None] + 1e-12).all()
        and float(np.max(np.abs(components.sum(axis=1) - losses))) <= 1e-12
    )
    switches = int(lows[0]) + sum(map(ne, lows, lows[1:]))
    pulls, budget = 0, 0.0
    if loss.best_arm is not None:
        pulls = tr.actions.count(loss.best_arm)
        budget = adv.switch_bound(gap, pulls)
    return MaskingRun(gap, loss.best_arm, pulls, switches, budget,
                      min(carries), max(carries), residual, split_ok)


class ConstructionInvariants(NamedTuple):
    """Per invariant, the number of runs that held it."""

    runs: int
    carry_ok: int      # carry stayed in [0, 1/4]
    masked_ok: int     # observed loss equals the masked baseline every round
    split_ok: int      # components in [0, loss], summing to the loss
    budget_ok: int     # switches within budget; none without a hidden arm
    hidden: int        # runs that drew a hidden arm
    both_cases: bool   # runs with and without a hidden arm both occurred
    worst_residual: float


def construction_invariants(horizon: int, seeds: int, seed_base: int) -> ConstructionInvariants:
    """:func:`masking_run` with K = 2 on ``run_seed(seed_base, i)`` for
    i < ``seeds``."""
    runs = [masking_run(horizon, 2, run_seed(seed_base, rep)) for rep in range(seeds)]
    hidden = sum(r.best_arm is not None for r in runs)
    return ConstructionInvariants(
        seeds,
        sum(r.carry_min >= 0.0 and r.carry_max <= 0.25 for r in runs),
        sum(r.residual <= 1e-12 for r in runs),
        sum(r.split_ok for r in runs),
        sum(r.switches <= r.budget for r in runs),
        hidden,
        0 < hidden < seeds,
        max((r.residual for r in runs), default=0.0),
    )


# ---------------------------------------------------------------------------
# multi-scale walk


def brute_force_width(rule, horizon: int) -> int:
    """Width of a parent rule by literal enumeration of every cut."""
    best = 0
    for t in range(1, horizon + 1):
        cut = sum(1 for s in range(1, horizon + 1) if rule(s) <= t < s)
        best = max(best, cut)
    return best


class WalkCertificates(NamedTuple):
    enumerated_ok: bool  # width equals brute force for every T <= n
    widths: dict         # width of the walk's parent rule at each bound horizon
    bound_ok: bool       # each of those is <= floor(log2 T) + 1
    exceedance: float    # share of 1000 walks beyond the drift threshold
    drift_budget: float
    drift_ok: bool


def walk_certificates(n: int, bound_horizons, drift_seed: int) -> WalkCertificates:
    """Width and drift certificates of the multi-scale walk.

    Width is matched against enumeration for T = 1..n and bounded at each
    of ``bound_horizons``.  The drift threshold at delta = 0.1 may be
    exceeded by at most delta + 0.03 of 1000 walks with sigma = 0.05 and
    T = 2^12, drawn from ``drift_seed``.
    """
    enumerated_ok = all(
        adv.width(adv.walk_parent, t) == brute_force_width(adv.walk_parent, t)
        for t in range(1, n + 1)
    )
    widths = {t: adv.width(adv.walk_parent, t) for t in bound_horizons}
    bound_ok = all(w <= t.bit_length() for t, w in widths.items())
    sigma, horizon, delta = 0.05, 2 ** 12, 0.1
    walks = adv.walk_value_matrix(sigma, horizon, 1000, master_seed=drift_seed)
    threshold = adv.drift_threshold(sigma, horizon, delta)
    exceedance = float((np.abs(walks[:, 1:]).max(axis=1) > threshold).mean())
    budget = delta + 0.03
    return WalkCertificates(
        enumerated_ok, widths, bound_ok, exceedance, budget, exceedance <= budget)


# ---------------------------------------------------------------------------
# censored KL


class KlBound(NamedTuple):
    combos: int
    below: int           # grid points where censored KL <= Gaussian KL
    max_excess: float    # largest censored minus Gaussian KL on the grid
    window_error: float  # |censored - Gaussian KL| in a +-10 sigma window
    mass_error: float    # |total mass - 1| of one censored measure
    grid_ok: bool
    window_ok: bool
    mass_ok: bool


def censored_kl_bound(mu_p: float, mu_q: float) -> KlBound:
    """Censoring only shrinks the Gaussian KL.

    Checked on the grid of means 0.6..0.9 and sigmas 0.01..0.5.  A window
    of +-10 sigma around ``mu_p`` at sigma = 0.02 censors nothing
    measurable, so there the divergence of ``mu_p`` from ``mu_q`` must
    reproduce the closed-form Gaussian value.
    """
    means = (0.6, 0.7, 0.8, 0.9)
    combos = below = 0
    worst = -math.inf
    for mp, mq, s in itertools.product(means, means, (0.01, 0.05, 0.1, 0.5)):
        ck = analysis.censored_kl(analysis.CensoredGaussian(mp, s),
                                  analysis.CensoredGaussian(mq, s))
        gk = analysis.gaussian_kl(mp, mq, s)
        combos += 1
        below += ck <= gk + 1e-9
        worst = max(worst, ck - gk)
    s = 0.02
    lo, hi = mu_p - 10 * s, mu_p + 10 * s
    window_error = abs(
        analysis.censored_kl(analysis.CensoredGaussian(mu_p, s, lo, hi),
                             analysis.CensoredGaussian(mu_q, s, lo, hi))
        - analysis.gaussian_kl(mu_p, mu_q, s)
    )
    mass_error = abs(analysis.CensoredGaussian(0.7, 0.05).total_mass() - 1.0)
    return KlBound(combos, below, worst, window_error, mass_error,
                   below == combos, window_error <= 1e-6, mass_error < 1e-9)


# ---------------------------------------------------------------------------
# mini-batch wrapper


class UnitBatch(NamedTuple):
    runs: int
    identical: int       # runs with equal actions, observations and losses
    regret_gap: float    # largest policy-regret difference
    ok: bool


def unit_batch_reduction(horizon: int, seeds: int, seed_base: int) -> UnitBatch:
    """A batch-size-1 wrapper around EXP3 replays bare EXP3 exactly.

    Three arms, an iid loss table, no delay; run i plays on
    ``run_seed(seed_base, i)``.
    """
    k = 3
    config = core.GameConfig(horizon, core.Discrete(k), 1)
    identical = 0
    regret_gap = 0.0
    for rep in range(seeds):
        seed = run_seed(seed_base, rep)
        loss = adv.TableLoss.from_seed(k, horizon, seed)
        bare = core.run_game(
            config, lrn.Exp3Learner(k, horizon, substream(seed, LEARNER_STREAM)),
            loss, adv.NoDelay(),
        )
        wrapped = core.run_game(
            config,
            lrn.MiniBatchWrapper(
                lrn.Exp3Learner(k, horizon, substream(seed, LEARNER_STREAM)), 1, horizon),
            loss, adv.NoDelay(),
        )
        identical += (wrapped.actions == bare.actions
                      and wrapped.observed == bare.observed
                      and wrapped.true_losses == bare.true_losses)
        regret_gap = max(regret_gap,
                         abs(core.policy_regret(wrapped, loss).policy_regret
                             - core.policy_regret(bare, loss).policy_regret))
    return UnitBatch(seeds, identical, regret_gap, identical == seeds and regret_gap == 0.0)


# ---------------------------------------------------------------------------
# verify suites: each returns (passed, label) pairs


def _verify_splits() -> list:
    """Split validity and conservation of delayed mass on randomized runs."""
    lines = []
    horizon = 512
    for d in (1, 2, 4):
        spec_seed = 1000 + d
        loss = adv.TableLoss.from_seed(3, horizon, spec_seed)
        delay = adv.SeededSplitDelay(d, horizon, spec_seed)
        config = core.GameConfig(horizon, core.Discrete(3), d, spec_seed)
        learner = lrn.UniformRandomLearner(3, substream(spec_seed, LEARNER_STREAM))
        tr = core.run_game(config, learner, loss, delay)
        recon_ok = all(
            abs(math.fsum(tr.components[t - 1 - s][s] for s in range(min(d, t))) - obs) <= 1e-9
            for t, obs in enumerate(tr.observed, start=1)
        )
        lines.append((recon_ok, f"d={d}: observed losses reconstruct from scheduled components"))
        gap = math.fsum(tr.true_losses) - math.fsum(tr.observed)
        lines.append((-1e-9 <= gap <= d - 1 + 1e-9,
                      f"d={d}: unobserved mass {gap:.6f} within [0, {d - 1}]"))
    try:
        core.validate_split(core.LossSplit(1, (0.4, 0.4), 0.5), 2)
        rejected = False
    except core.SplitError:
        rejected = True
    lines.append((rejected, "overfull split rejected"))
    return lines


def _verify_thm1() -> list:
    r = trap_observations(8, seed_base=77)
    return [
        *((r.random_forced[z] == 100,
           f"hidden arm {z}: 100 random policies observe 0,1,0,1,... at T=10000")
          for z in (0, 1)),
        (sum(r.scripted_forced) == 2 * 2 ** 8,
         "all 256 deterministic action sequences at T=8 observe the same stream"),
    ]


def _verify_lowerbound() -> list:
    r = construction_invariants(2 ** 14, seeds=10, seed_base=31)
    return [
        (r.carry_ok == r.runs, "carry stays within [0, 1/4]"),
        (r.masked_ok == r.split_ok == r.runs,
         "observed loss equals the masked walk baseline, every round"),
        (r.budget_ok == r.runs and r.both_cases,
         "switch counts within budget (hidden arm) and zero (no hidden arm)"),
    ]


def _verify_walk() -> list:
    r = walk_certificates(64, [2 ** p for p in range(4, 17)], drift_seed=99)
    return [
        (r.enumerated_ok, "width matches exhaustive enumeration for T <= 64"),
        (r.bound_ok, "width <= floor(log2 T) + 1 for T = 2^4 .. 2^16"),
        (r.drift_ok, f"drift threshold exceeded by {r.exceedance:.3f} of 1000 walks "
                     f"(budget {r.drift_budget:.2f})"),
    ]


def _verify_kl() -> list:
    r = censored_kl_bound(0.6, 0.64)
    return [
        (r.grid_ok, f"censored KL <= Gaussian KL across {r.combos} combinations"),
        (r.window_ok, f"window at +-10 sigma reproduces Gaussian KL (err {r.window_error:.2e})"),
        (r.mass_ok, f"censored measure has unit mass (err {r.mass_error:.2e})"),
    ]


def _verify_wrapper() -> list:
    """Wrapper reduction identity and batch accounting."""
    lines = [(unit_batch_reduction(2048, seeds=1, seed_base=13).ok,
              "batch size 1 wrapper reproduces the raw learner exactly")]
    horizon, k = 2048, 3
    audits_ok = True
    for d, tau in ((2, 8), (4, 8), (3, 16)):
        seed = run_seed(13, d * 100 + tau)
        loss = adv.TableLoss.from_seed(k, horizon, seed)
        delay = adv.LastSlotDelay(d)
        config = core.GameConfig(horizon, core.Discrete(k), d, seed)
        inner = lrn.Exp3Learner(k, horizon // tau, substream(seed, LEARNER_STREAM))
        tr = core.run_game(config, lrn.MiniBatchWrapper(inner, tau, horizon), loss, delay)
        if not analysis.audit_delay_accounting(tr, tau).passed:
            audits_ok = False
    lines.append((audits_ok, "batch accounting holds under worst-case full delay"))
    lines.append((lrn.choose_tau(10 ** 6, 8) == 50 and lrn.choose_tau(8, 8, 5) == 6,
                  "automatic batch size honors its floors"))
    return lines


SUITES = {
    "splits": _verify_splits,
    "thm1": _verify_thm1,
    "lowerbound": _verify_lowerbound,
    "walk": _verify_walk,
    "kl": _verify_kl,
    "wrapper": _verify_wrapper,
}
