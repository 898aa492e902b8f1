"""Adversary constructions for delayed-feedback bandit games.

Two families live here, plus small utility adversaries for tests and
baselines.

``ParityTrapLoss`` with ``ParityDelay`` is a two-armed, one-round-memory
pair that forces the observed sequence 0, 1, 0, 1, ... no matter what the
learner does: odd rounds hide the round's whole loss for one round, even
rounds reveal immediately, and the even-round loss repays whatever the
previous action saved.  Observations carry zero information about the good
arm while one-step deviations still cost T/4 in expectation.

``GapWalkLoss`` with ``DelayStateMachine`` builds losses on a multi-scale
Gaussian random walk: every arm pays a truncated walk value, one hidden arm
pays a small gap below it.  The delay machine alternates between a high and
a low masking state and carries one round of loss forward so that the
observed aggregate each round equals the truncated walk baseline of the
current state, identically for every arm.  Any information about the
hidden arm must leak through state switches, whose number is budgeted by
the carry dynamics.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import getitem
from typing import Sequence

import numpy as np

from .core import check_int, check_real
from .seeding import (
    BEST_ARM_STREAM,
    LOSS_TABLE_STREAM,
    SPLIT_STREAM,
    WALK_STREAM,
    substream,
)

#: truncation window for walk-based losses
LOSS_FLOOR = 0.5
LOSS_CEIL = 1.0


# ---------------------------------------------------------------------------
# multi-scale random walk


def walk_parent(t: int) -> int:
    """Parent round of t: t minus the largest power of two dividing it."""
    if t < 1:
        raise ValueError("t must be >= 1")
    return t - (t & -t)


def width(rule, horizon: int) -> int:
    """Maximum cut size of a parent rule t -> rho(t) over rounds 1..horizon.

    The cut at round t is {s in [T] : rho(s) <= t < s}, the set of rounds
    whose parent link straddles t.  Conditional observation arguments pay
    once per cut element, so this is the multiplier on per-round
    information leakage.
    """
    horizon = check_int("horizon", horizon, 1)
    s = np.arange(1, horizon + 1, dtype=np.int64)
    if rule is walk_parent:
        parents = s - (s & -s)
    else:
        parents = np.fromiter((rule(int(v)) for v in s), dtype=np.int64, count=horizon)
        if np.any(parents < 0) or np.any(parents >= s):
            raise ValueError("parent rule must satisfy 0 <= rho(s) < s")
    # s covers t in [rho(s), s-1]; restrict to t >= 1 and sweep
    cover = np.zeros(horizon + 2, dtype=np.int64)
    lo = np.maximum(parents, 1)
    keep = lo <= s - 1
    np.add.at(cover, lo[keep], 1)
    np.add.at(cover, s[keep], -1)
    cuts = np.cumsum(cover[: horizon + 1])
    return int(cuts[1:].max(initial=0))


def drift_threshold(sigma: float, horizon: int, delta_prob: float) -> float:
    """High-probability bound on max_t |W_t| for the multi-scale walk.

    With probability at least 1 - delta_prob no walk value over 1..horizon
    exceeds this in absolute value.  Natural logarithms throughout.
    """
    sigma = check_real("sigma", sigma, 0.0, math.inf, open_low=True, open_high=True)
    t = float(check_int("horizon", horizon, 1))
    delta_prob = check_real("delta_prob", delta_prob, 0.0, 1.0, open_low=True, open_high=True)
    return sigma * math.sqrt(2.0 * (math.log(t) + 1.0) * math.log(t / delta_prob))


def _fill_walk(sigma, xi: np.ndarray) -> np.ndarray:
    """Walk values W_0..W_T driven by increments ``xi`` of shape (..., T):
    W_0 = 0 and W_t = W_{t - (t & -t)} + xi[..., t - 1].

    Works one dyadic level at a time, coarsest first.  Level j holds the
    rounds t = 2^j * odd; their parents t - 2^j are multiples of 2^(j+1),
    so they lie on a coarser level or are 0 and are already final.  Each
    level is one strided add of the same two operands the round-by-round
    recurrence adds, so the values agree bit for bit.  A value that
    overflows raises ValueError naming ``sigma``, without numpy's warning.
    """
    horizon = xi.shape[-1]
    w = np.empty(xi.shape[:-1] + (horizon + 1,))
    w[..., 0] = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for j in reversed(range(horizon.bit_length())):
            lo, step = 1 << j, 2 << j
            w[..., lo::step] = w[..., : horizon + 1 - lo : step] + xi[..., lo - 1 :: step]
    if not np.isfinite(w).all():
        raise ValueError(f"sigma {sigma} overflows the walk to non-finite values")
    return w


def walk_value_matrix(sigma, horizon, n_walks, master_seed=0) -> np.ndarray:
    """Values of ``n_walks`` independent walks, shape (n_walks, horizon + 1).

    Row i is the walk driven by the i-th row of one block draw of
    N(0, sigma^2) increments from the walk stream of the master seed; row 0
    of a one-walk matrix is :class:`MultiScaleWalk`'s walk.  sigma must be
    finite, >= 0 and small enough that no value overflows.
    """
    sigma = check_real("sigma", sigma, 0.0, math.inf, open_high=True)
    horizon = check_int("horizon", horizon, 1)
    n_walks = check_int("n_walks", n_walks, 1)
    xi = substream(master_seed, WALK_STREAM).normal(0.0, sigma, (n_walks, horizon))
    return _fill_walk(sigma, xi)


class MultiScaleWalk:
    """Gaussian walk indexed by the dyadic parent rule.

    W_0 = 0 and W_t = W_{rho(t)} + xi_t with xi_t ~ N(0, sigma^2).  The
    walk is row 0 of ``walk_value_matrix(sigma, horizon, 1, master_seed)``,
    computed in full on construction, so any query order yields identical
    values.

    Parameters
    ----------
    sigma : float, finite and >= 0, and small enough that no value overflows
    horizon : int
    master_seed : int
    increments : optional array-like overriding the Gaussian draws (tests)
    """

    def __init__(self, sigma, horizon, master_seed=0, increments=None):
        sigma = check_real("sigma", sigma, 0.0, math.inf, open_high=True)
        self.horizon = horizon = check_int("horizon", horizon, 1)
        if increments is None:
            w = walk_value_matrix(sigma, horizon, 1, master_seed)[0]
        else:
            xi = np.asarray(increments, dtype=float)
            if xi.shape != (horizon,):
                raise ValueError(f"need {horizon} increments, got shape {xi.shape}")
            w = _fill_walk(sigma, xi)
        w.flags.writeable = False
        self._values = w

    def values(self) -> np.ndarray:
        """Read-only array of W_0..W_horizon."""
        return self._values


# ---------------------------------------------------------------------------
# oblivious losses tabulated per arm


class _ArmTable:
    """Oblivious loss with one list per arm: arm y pays ``_columns[y][t - 1]``
    in round t = 1..``horizon``, for arms 0..``arm_count`` - 1.

    ``loss`` reads one entry.  ``arm_totals`` reads the played losses off
    the same lists, and each comparator's constant and one-swap totals are
    the same ``math.fsum`` of its arm's list, the correctly rounded sum of
    the floats the replay would add.  It makes one ``fsum`` per distinct
    list, so comparators whose arms share one list (every arm of a
    :class:`GapWalkLoss` but the hidden one) are priced once, and sums the
    list itself, with no copy, when the run covers the whole table.  A
    round or an arm outside the table, a negative arm included, raises the
    same text on either path.
    """

    def loss(self, t: int, actions: Sequence) -> float:
        # two compares: a chained 1 <= t <= horizon is slower in CPython
        if t < 1 or t > self.horizon:
            raise ValueError(f"t={t} outside 1..{self.horizon}")
        y = actions[t - 1]
        if y < 0 or y >= self.arm_count:
            raise ValueError(f"arm {y!r} outside 0..{self.arm_count - 1}")
        return self._columns[y][t - 1]

    def arm_totals(self, actions: Sequence, comparators: Sequence) -> tuple:
        """Prices for :func:`~delaybandits.core.policy_regret`, off the table."""
        horizon = len(actions)
        if horizon > self.horizon:
            raise ValueError(f"t={self.horizon + 1} outside 1..{self.horizon}")
        arms = range(self.arm_count)
        # one set scan clears the played arms; the loop names the first stray
        for y in comparators if set(actions).issubset(arms) else [*actions, *comparators]:
            if y < 0 or y >= self.arm_count:
                raise ValueError(f"arm {y!r} outside 0..{self.arm_count - 1}")
        columns = self._columns
        # zip(*columns) yields round t's loss for every arm; the action picks one
        replayed = tuple(map(getitem, zip(*columns), actions))
        # one fsum per distinct list, over the list itself when the run
        # covers the whole table
        whole = horizon == self.horizon
        sums: dict = {}
        totals = []
        for y in comparators:
            column = columns[y]
            total = sums.get(id(column))
            if total is None:
                total = sums[id(column)] = math.fsum(column if whole else column[:horizon])
            totals.append(total)
        return replayed, totals, totals


# ---------------------------------------------------------------------------
# hidden-gap walk loss and its masking delay machine


def gap_walk_defaults(arm_count: int, horizon: int) -> tuple:
    """Default (gap, sigma) for the walk construction at a given size.

    gap = min(1/8, K^(1/3) / (64 T^(1/3) ln T)) and
    sigma = 1 / (16 sqrt(2) ln T), natural log.  Requires horizon >= 3 so
    ln T > 1.
    """
    arm_count = check_int("arm_count", arm_count, 2)
    horizon = check_int("horizon", horizon, 3)
    log_t = math.log(horizon)
    gap = min(0.125, arm_count ** (1.0 / 3.0) / (64.0 * horizon ** (1.0 / 3.0) * log_t))
    sigma = 1.0 / (16.0 * math.sqrt(2.0) * log_t)
    return gap, sigma


class GapWalkLoss(_ArmTable):
    """Oblivious loss: every arm pays the truncated walk baseline, the
    hidden best arm pays ``gap`` less (before truncation).

    best_arm may be None, meaning no arm is favored and all losses
    coincide.  gap must lie in (0, 1/8].

    Both truncated baselines are tabulated on construction for rounds
    1..T; the hidden arm's list is the low one, and every other arm shares
    the high one.  numpy adds, subtracts and clips elementwise with the
    same IEEE rounding as scalar Python, so the tables equal the formula in
    :meth:`masked_baseline` bit for bit.
    """

    def __init__(self, walk: MultiScaleWalk, arm_count: int, best_arm, gap: float):
        self.arm_count = check_int("arm_count", arm_count, 2)
        if best_arm is not None:
            best_arm = check_int("best_arm", best_arm, 0)
            if best_arm >= self.arm_count:
                raise ValueError(f"best_arm {best_arm} outside 0..{self.arm_count - 1}")
        self.gap = check_real("gap", gap, 0.0, 0.125, open_low=True)
        self.walk = walk
        self.horizon = walk.horizon
        self.best_arm = best_arm
        base = walk.values()[1:] + 0.75
        self._high = np.clip(base, LOSS_FLOOR, LOSS_CEIL).tolist()
        self._low = np.clip(base - self.gap, LOSS_FLOOR, LOSS_CEIL).tolist()
        self._columns = [self._low if y == best_arm else self._high
                         for y in range(self.arm_count)]

    @classmethod
    def from_seed(cls, arm_count, horizon, gap, sigma, master_seed) -> "GapWalkLoss":
        """Draw the hidden arm uniformly from {none} + arms, walk from the
        walk stream, both keyed by the master seed."""
        z = int(substream(master_seed, BEST_ARM_STREAM).integers(0, arm_count + 1))
        best = None if z == 0 else z - 1
        walk = MultiScaleWalk(sigma, horizon, master_seed)
        return cls(walk, arm_count, best, gap)

    def masked_baseline(self, t: int, low: bool) -> float:
        """Truncated walk value, less the gap when ``low``:
        clip(W_t + 0.75, 0.5, 1) when high, clip((W_t + 0.75) - gap, 0.5, 1)
        when low.

        This is the baseline the masking delay exposes in each state, and
        also every arm's loss: the hidden arm's is the low one.
        :class:`DelayStateMachine` reads the same two lists itself, with
        this range check, so this method is the formula that the machine
        equals and that the checks and the tests hold it to.
        """
        if t < 1 or t > self.horizon:
            raise ValueError(f"t={t} outside 1..{self.horizon}")
        return (self._low if low else self._high)[t - 1]


def switch_bound(gap: float, best_arm_pulls) -> float:
    """Budget on masking-state switches given pulls of the hidden arm:
    2 + 8 * gap * pulls / (1 - 8 gap), for gap < 1/8.

    The first high -> low switch is free: the machine starts high with
    carry 0 < gap.  Every low -> high switch follows a high -> low one.
    Each later high -> low switch needs the carry to fall from above
    1/4 - gap to below gap, and only a hidden-arm pull in the high state
    lowers it, by at most gap; so it takes (1 - 8 gap) / (4 gap) of them.
    """
    gap = check_real("gap", gap, 0.0, 0.125, open_low=True, open_high=True)
    best_arm_pulls = check_real("best_arm_pulls", best_arm_pulls, 0.0, math.inf, open_high=True)
    return 2.0 + 8.0 * gap * best_arm_pulls / (1.0 - 8.0 * gap)


class DelayStateMachine:
    """Two-state masking delay over a :class:`GapWalkLoss`.

    Keeps a carry in [0, 1/4]: each round the immediate component is the
    current state's baseline minus the carry, identical for every arm, and
    the chosen arm's remainder becomes the next carry.  The observed
    aggregate therefore equals the state baseline no matter which arm was
    played.

    Transition check runs before the split, with strict inequalities
    (boundary keeps the state): carry < gap in the high state drops to low,
    carry > 1/4 - gap in the low state lifts to high.  The machine starts
    high with carry 0, so with a hidden arm present the very first round
    switches low; that initial flip is counted in ``switch_count``.

    With no hidden arm there is nothing to mask: the machine stays high,
    delays nothing, and the carry stays 0.

    Each split returns the tuple (immediate, held), appends the round's
    state to ``lows`` (True when low) and the carry leaving the round to
    ``carries``, as computed: before the engine's validation snaps rounding
    noise in the held component.  Every split first makes the range check
    of :meth:`GapWalkLoss.masked_baseline` on t, with its ``ValueError``
    text, so a refused round changes no state.  The baseline is read
    straight off the loss's two tabulated lists, so a round makes no call
    for it; it is the entry that method returns.
    """

    delay_span = 2

    def __init__(self, loss: GapWalkLoss):
        self.loss_adversary = loss
        self._low = False
        self.carry = 0.0
        self.switch_count = 0
        self.lows: list = []
        self.carries: list = []

    def split(self, t: int, actions: Sequence, loss_value: float) -> tuple:
        loss = self.loss_adversary
        # masked_baseline's range check, before any state moves
        if t < 1 or t > loss.horizon:
            raise ValueError(f"t={t} outside 1..{loss.horizon}")
        gap = loss.gap
        if loss.best_arm is None:
            self.lows.append(False)
            self.carries.append(0.0)
            return (loss_value, 0.0)

        carry = self.carry
        low = self._low
        if low:
            if carry > 0.25 - gap:
                self._low = low = False
                self.switch_count += 1
        elif carry < gap:
            self._low = low = True
            self.switch_count += 1

        # masked_baseline(t, low), read off its lists
        immediate = (loss._low if low else loss._high)[t - 1] - carry
        held = loss_value - immediate
        self.carry = held
        self.lows.append(low)
        self.carries.append(held)
        return (immediate, held)


# ---------------------------------------------------------------------------
# parity trap


class ParityTrapLoss:
    """Two-armed loss with one round of memory that pairs every odd round
    with the following even round.

    Odd t: the hidden arm costs 0, the other costs 1.  Even t: both arms
    cost 1 exactly when the previous action hit the hidden arm, else 0.
    Every odd-even pair thus contributes exactly 1 whatever the learner
    does, so constant comparators tie and policy regret vanishes on even
    horizons, while one-step deviations at odd rounds each cost 1.
    """

    def __init__(self, best_arm: int):
        self.best_arm = check_int("best_arm", best_arm, 0)
        if self.best_arm > 1:
            raise ValueError("parity trap is two-armed; best_arm must be 0 or 1")

    @classmethod
    def from_seed(cls, master_seed) -> "ParityTrapLoss":
        z = int(substream(master_seed, BEST_ARM_STREAM).integers(0, 2))
        return cls(z)

    def loss(self, t: int, actions: Sequence) -> float:
        if t < 1:
            raise ValueError(f"t={t} outside 1..T")
        if t & 1:
            return 0.0 if actions[t - 1] == self.best_arm else 1.0
        return 1.0 if actions[t - 2] == self.best_arm else 0.0

    def arm_totals(self, actions: Sequence, comparators: Sequence) -> tuple:
        """Prices for :func:`~delaybandits.core.policy_regret`, by counting.

        Every loss is 0.0 or 1.0, so each total is an exact count, equal to
        the ``math.fsum`` of the losses it counts.  On a constant history
        every odd-even pair costs 1 and an unpaired last round costs 1 off
        the hidden arm.  With round t swapped, an odd round costs 1 off the
        hidden arm and an even round repays the realized hit before it.  An
        arm past the second is priced like the arm that is not hidden.
        """
        horizon = len(actions)
        paired = horizon // 2
        best = self.best_arm
        odd_actions = actions[::2]
        replayed = [0.0] * horizon
        replayed[::2] = map({best: 0.0}.get, odd_actions, repeat(1.0))
        hits = list(map({best: 1.0}.get, odd_actions[:paired], repeat(0.0)))
        replayed[1::2] = hits
        repaid = hits.count(1.0)
        odd = horizon - paired
        constant = [float(paired + (horizon & 1) * (y != best)) for y in comparators]
        swapped = [float(odd * (y != best) + repaid) for y in comparators]
        return tuple(replayed), constant, swapped


class ParityDelay:
    """Delay half of :class:`ParityTrapLoss`: odd rounds hold everything
    back one round, even rounds reveal immediately."""

    delay_span = 2

    def split(self, t: int, actions: Sequence, loss_value: float) -> tuple:
        if t & 1:
            return (0.0, loss_value)
        return (loss_value, 0.0)


# ---------------------------------------------------------------------------
# utility adversaries


class ConstantLoss:
    """Every action costs the same fixed value; the dullest oblivious loss."""

    def __init__(self, value: float = 0.5):
        self.value = check_real("value", value, 0.0, 1.0)

    def loss(self, t: int, actions: Sequence) -> float:
        if t < 1:
            raise ValueError(f"t={t} outside 1..T")
        return self.value

    def arm_totals(self, actions: Sequence, comparators: Sequence) -> tuple:
        """Prices for :func:`~delaybandits.core.policy_regret`: every action,
        a point of a ball included, pays ``value`` every round."""
        played = (self.value,) * len(actions)
        totals = [math.fsum(played)] * len(comparators)
        return played, totals, totals


class TableLoss(_ArmTable):
    """Oblivious i.i.d. loss table: independent uniform [0, 1) per round
    and arm, materialized up front from a seed stream."""

    def __init__(self, table: np.ndarray):
        table = np.asarray(table, dtype=float)
        if table.ndim != 2:
            raise ValueError("table must be (horizon, arms)")
        self.horizon, self.arm_count = table.shape
        self._columns = table.T.tolist()

    @classmethod
    def from_seed(cls, arm_count, horizon, master_seed):
        shape = (check_int("horizon", horizon, 1), check_int("arm_count", arm_count, 2))
        return cls(substream(master_seed, LOSS_TABLE_STREAM).random(shape))


class NoDelay:
    """Trivial delay: everything surfaces immediately (span 1)."""

    delay_span = 1

    def split(self, t: int, actions: Sequence, loss_value: float) -> tuple:
        return (loss_value,)


class LastSlotDelay:
    """Worst-case full delay: the whole loss surfaces span - 1 rounds late."""

    def __init__(self, delay_span: int):
        self.delay_span = check_int("delay_span", delay_span, 2)
        self._zeros = (0.0,) * (self.delay_span - 1)

    def split(self, t: int, actions: Sequence, loss_value: float) -> tuple:
        return self._zeros + (loss_value,)


class SeededSplitDelay:
    """Random valid splits with proportions drawn per round from a seed
    stream; exercises the buffer plumbing without any adversarial intent."""

    def __init__(self, delay_span: int, horizon: int, master_seed=0):
        self.delay_span = check_int("delay_span", delay_span, 1)
        self.horizon = check_int("horizon", horizon, 1)
        raw = substream(master_seed, SPLIT_STREAM).random((self.horizon, self.delay_span)) + 1e-3
        self._fractions = (raw / raw.sum(axis=1, keepdims=True)).tolist()

    def split(self, t: int, actions: Sequence, loss_value: float) -> tuple:
        if not 1 <= t <= self.horizon:
            raise ValueError(f"t={t} outside 1..{self.horizon}")
        return tuple(loss_value * f for f in self._fractions[t - 1])
