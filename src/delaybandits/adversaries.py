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
from typing import Sequence

import numpy as np

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
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
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
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if not 0 < delta_prob < 1:
        raise ValueError("delta_prob must lie in (0, 1)")
    t = float(horizon)
    return sigma * math.sqrt(2.0 * (math.log(t) + 1.0) * math.log(t / delta_prob))


def _fill_walk(w: np.ndarray, xi: np.ndarray) -> None:
    """Set w[..., t] = w[..., t - (t & -t)] + xi[..., t - 1] for t = 1..T.

    Works one dyadic level at a time, coarsest first.  Level j holds the
    rounds t = 2^j * odd; their parents t - 2^j are multiples of 2^(j+1),
    so they lie on a coarser level or are 0 and are already final.  Each
    level is one strided add of the same two operands the round-by-round
    recurrence adds, so the values agree bit for bit.  ``w[..., 0]`` must
    already hold W_0.
    """
    horizon = xi.shape[-1]
    for j in reversed(range(horizon.bit_length())):
        lo, step = 1 << j, 2 << j
        w[..., lo::step] = w[..., : horizon + 1 - lo : step] + xi[..., lo - 1 :: step]


class MultiScaleWalk:
    """Gaussian walk indexed by the dyadic parent rule.

    W_0 = 0 and W_t = W_{rho(t)} + xi_t with xi_t ~ N(0, sigma^2).  The
    increments are drawn from the walk stream of the master seed as one
    block keyed by index, and every value is computed on construction, so
    any query order yields identical values.

    Parameters
    ----------
    sigma : float, finite and >= 0
    horizon : int
    master_seed : int
    increments : optional array-like overriding the Gaussian draws (tests)
    """

    def __init__(self, sigma, horizon, master_seed=0, increments=None):
        if not 0 <= sigma < math.inf:
            raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        self.horizon = int(horizon)
        if increments is None:
            xi = substream(master_seed, WALK_STREAM).normal(0.0, float(sigma), self.horizon)
        else:
            xi = np.asarray(increments, dtype=float)
            if xi.shape != (self.horizon,):
                raise ValueError(f"need {self.horizon} increments, got shape {xi.shape}")
        w = np.empty(self.horizon + 1)
        w[0] = 0.0
        _fill_walk(w, xi)
        w.flags.writeable = False
        self._values = w

    def value(self, t: int) -> float:
        """W_t for 0 <= t <= horizon."""
        if not 0 <= t <= self.horizon:
            raise ValueError(f"t={t} outside 0..{self.horizon}")
        return float(self._values[t])

    def values(self) -> np.ndarray:
        """Read-only array of W_0..W_horizon."""
        return self._values


def walk_value_matrix(sigma, horizon, n_walks, master_seed=0) -> np.ndarray:
    """Values of ``n_walks`` independent walks, shape (n_walks, horizon + 1).

    Row-vectorized version of :class:`MultiScaleWalk` for Monte Carlo use;
    row i equals a walk driven by the i-th row of one block draw.
    """
    if n_walks < 1:
        raise ValueError("n_walks must be >= 1")
    xi = substream(master_seed, WALK_STREAM).normal(0.0, sigma, (n_walks, horizon))
    w = np.zeros((n_walks, horizon + 1))
    _fill_walk(w, xi)
    return w


# ---------------------------------------------------------------------------
# hidden-gap walk loss and its masking delay machine


def gap_walk_defaults(arm_count: int, horizon: int) -> tuple:
    """Default (gap, sigma) for the walk construction at a given size.

    gap = min(1/8, K^(1/3) / (64 T^(1/3) ln T)) and
    sigma = 1 / (16 sqrt(2) ln T), natural log.  Requires horizon >= 3 so
    ln T > 1.
    """
    if arm_count < 2:
        raise ValueError("arm_count must be >= 2")
    if horizon < 3:
        raise ValueError("horizon must be >= 3")
    log_t = math.log(horizon)
    gap = min(0.125, arm_count ** (1.0 / 3.0) / (64.0 * horizon ** (1.0 / 3.0) * log_t))
    sigma = 1.0 / (16.0 * math.sqrt(2.0) * log_t)
    return gap, sigma


class GapWalkLoss:
    """Oblivious loss: every arm pays the truncated walk baseline, the
    hidden best arm pays ``gap`` less (before truncation).

    best_arm may be None, meaning no arm is favored and all losses
    coincide.  gap must lie in (0, 1/8].

    Both truncated baselines are tabulated for t = 0..T on construction,
    so a loss is one range check and one list read.  numpy adds, subtracts
    and clips elementwise with the same IEEE rounding as scalar Python, so
    the tables equal the formula in :meth:`masked_baseline` bit for bit.
    """

    def __init__(self, walk: MultiScaleWalk, arm_count: int, best_arm, gap: float):
        if arm_count < 2:
            raise ValueError("arm_count must be >= 2")
        if best_arm is not None and not 0 <= best_arm < arm_count:
            raise ValueError(f"best_arm {best_arm} outside 0..{arm_count - 1}")
        if not 0.0 < gap <= 0.125:
            raise ValueError(f"gap must lie in (0, 1/8], got {gap}")
        self.walk = walk
        self.horizon = walk.horizon
        self.arm_count = int(arm_count)
        self.best_arm = None if best_arm is None else int(best_arm)
        self.gap = float(gap)
        base = walk.values() + 0.75
        self._high = np.clip(base, LOSS_FLOOR, LOSS_CEIL).tolist()
        self._low = np.clip(base - self.gap, LOSS_FLOOR, LOSS_CEIL).tolist()

    @classmethod
    def from_seed(cls, arm_count, horizon, gap, sigma, master_seed) -> "GapWalkLoss":
        """Draw the hidden arm uniformly from {none} + arms, walk from the
        walk stream, both keyed by the master seed."""
        z = int(substream(master_seed, BEST_ARM_STREAM).integers(0, arm_count + 1))
        best = None if z == 0 else z - 1
        walk = MultiScaleWalk(sigma, horizon, master_seed)
        return cls(walk, arm_count, best, gap)

    def arm_loss(self, t: int, arm) -> float:
        return self.masked_baseline(t, arm == self.best_arm)

    def loss(self, t: int, actions: Sequence) -> float:
        if not 0 <= t <= self.horizon:
            raise ValueError(f"t={t} outside 0..{self.horizon}")
        return self._low[t] if actions[t - 1] == self.best_arm else self._high[t]

    def masked_baseline(self, t: int, low: bool) -> float:
        """Truncated walk value, less the gap when ``low``:
        clip(W_t + 0.75, 0.5, 1) when high, clip((W_t + 0.75) - gap, 0.5, 1)
        when low.

        This is the baseline the masking delay exposes in each state, and
        also every arm's loss: the hidden arm's is the low one.
        """
        if not 0 <= t <= self.horizon:
            raise ValueError(f"t={t} outside 0..{self.horizon}")
        return self._low[t] if low else self._high[t]


def switch_bound(gap: float, best_arm_pulls) -> float:
    """Budget on masking-state switches given pulls of the hidden arm.

    Valid for gap < 1/8; the carry needs roughly 1/(4 gap) pulls of the
    funding arm per direction, giving 8 * gap * pulls / (1 - 8 gap).
    """
    if not 0.0 < gap < 0.125:
        raise ValueError(f"gap must lie in (0, 1/8), got {gap}")
    if best_arm_pulls < 0:
        raise ValueError("best_arm_pulls must be >= 0")
    return 8.0 * gap * best_arm_pulls / (1.0 - 8.0 * gap)


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
    noise in the held component.
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
        gap = loss.gap
        if loss.best_arm is None:
            self.lows.append(False)
            self.carries.append(0.0)
            return (loss_value, 0.0)

        carry = self.carry
        if self._low:
            if carry > 0.25 - gap:
                self._low = False
                self.switch_count += 1
        elif carry < gap:
            self._low = True
            self.switch_count += 1

        immediate = loss.masked_baseline(t, self._low) - carry
        held = loss_value - immediate
        self.carry = held
        self.lows.append(self._low)
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
        if best_arm not in (0, 1):
            raise ValueError("parity trap is two-armed; best_arm must be 0 or 1")
        self.best_arm = int(best_arm)
        self.arm_count = 2

    @classmethod
    def from_seed(cls, master_seed) -> "ParityTrapLoss":
        z = int(substream(master_seed, BEST_ARM_STREAM).integers(0, 2))
        return cls(z)

    def loss(self, t: int, actions: Sequence) -> float:
        if t & 1:
            return 0.0 if actions[t - 1] == self.best_arm else 1.0
        return 1.0 if actions[t - 2] == self.best_arm else 0.0


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
        if not 0.0 <= value <= 1.0:
            raise ValueError("value must lie in [0, 1]")
        self.value = float(value)

    def loss(self, t: int, actions: Sequence) -> float:
        return self.value


class TableLoss:
    """Oblivious i.i.d. loss table: independent uniform [0, 1) per round
    and arm, materialized up front from a seed stream."""

    def __init__(self, table: np.ndarray):
        table = np.asarray(table, dtype=float)
        if table.ndim != 2:
            raise ValueError("table must be (horizon, arms)")
        self.table = table
        self.horizon, self.arm_count = table.shape
        self._rows = table.tolist()

    @classmethod
    def from_seed(cls, arm_count, horizon, master_seed):
        rng = substream(master_seed, LOSS_TABLE_STREAM)
        return cls(rng.random((horizon, arm_count)))

    def loss(self, t: int, actions: Sequence) -> float:
        return self._rows[t - 1][actions[t - 1]]


class LaggedLoss:
    """Loss that reads the action ``lag`` rounds back; bounded-memory probes
    with a window narrower than ``lag`` must flag it."""

    def __init__(self, lag: int = 2):
        if lag < 1:
            raise ValueError("lag must be >= 1")
        self.lag = int(lag)

    def loss(self, t: int, actions: Sequence) -> float:
        if t <= self.lag:
            return 0.5
        return 0.25 if actions[t - 1 - self.lag] == 0 else 0.75


class NoDelay:
    """Trivial delay: everything surfaces immediately (span 1)."""

    delay_span = 1

    def split(self, t: int, actions: Sequence, loss_value: float) -> tuple:
        return (loss_value,)


class LastSlotDelay:
    """Worst-case full delay: the whole loss surfaces span - 1 rounds late."""

    def __init__(self, delay_span: int):
        if delay_span < 2:
            raise ValueError("delay_span must be >= 2 for a real delay")
        self.delay_span = int(delay_span)
        self._zeros = (0.0,) * (self.delay_span - 1)

    def split(self, t: int, actions: Sequence, loss_value: float) -> tuple:
        return self._zeros + (loss_value,)


class SeededSplitDelay:
    """Random valid splits with proportions drawn per round from a seed
    stream; exercises the buffer plumbing without any adversarial intent."""

    def __init__(self, delay_span: int, horizon: int, master_seed=0):
        if delay_span < 1:
            raise ValueError("delay_span must be >= 1")
        self.delay_span = int(delay_span)
        raw = substream(master_seed, SPLIT_STREAM).random((horizon, self.delay_span)) + 1e-3
        self._fractions = (raw / raw.sum(axis=1, keepdims=True)).tolist()

    def split(self, t: int, actions: Sequence, loss_value: float) -> tuple:
        fr = self._fractions[t - 1]
        return tuple(loss_value * f for f in fr)
