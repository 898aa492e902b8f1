"""Learners: exponential weights, the mini-batch wrapper, and a
one-point-gradient learner for convex action balls.

The wrapper is the piece that makes delayed anonymous feedback tractable:
it holds each inner action for a block of rounds, feeds the inner learner
the clipped block average of the observations, and thereby turns a
d-round delay into at most one contaminated unit per block.  Everything
here speaks the same two-method protocol the game loop uses: ``act(t)``
and ``observe(t, action, observed)``.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .core import check_int, check_real

#: uniforms or arms a randomized learner draws from its generator at a time
_DRAW_BLOCK = 8192


# ---------------------------------------------------------------------------
# exponential weights over arms


class Exp3Learner:
    """Exponential weights over ``arm_count`` arms with importance-weighted
    loss estimates (EXP3).

    ``rounds`` is the number of feedback rounds the learner will see: the
    horizon when playing raw, the number of batches when wrapped.  It sets
    learning_rate = sqrt(2 ln K / (rounds * K)).

    Composite feedback sums components of up to d rounds, so an observation
    may exceed 1; ``observe`` clips it to 1, as :class:`MiniBatchWrapper`
    clips its batch averages, to keep EXP3's loss range [0, 1].

    The learner owns its generator, so ``act`` draws its uniforms in blocks
    of min(rounds, ``_DRAW_BLOCK``) and reads one per round;
    ``Generator.random(n)`` yields the same floats as n scalar calls, so the
    actions are those of one draw per round.  A clipped loss of 0 adds 0.0
    to an estimate that is never -0.0, which leaves the estimates, and so
    the distribution, exactly as they were: ``observe`` returns early then.

    Two arms take a short branch in ``act`` and ``observe`` with the same
    outputs, bit for bit, as the general K-arm body: one compare draws the
    arm, because the inverse-CDF loop's first sum is ``0.0 + p0 == p0``; and
    one ``exp`` updates, because the smaller estimate's weight is
    ``exp(-0.0) == 1.0`` and the ``fsum`` of two floats is their one
    correctly rounded add, so z = 1 + exp(-eta * (hi - lo)).  Ties count
    arm 0 as the smaller.
    """

    __slots__ = ("arm_count", "learning_rate", "cum_loss_est", "probs", "rng", "pending_prob",
                 "_block", "_draws", "_next_draw")

    def __init__(self, arm_count: int, rounds: int, rng: np.random.Generator):
        self.arm_count = arm_count = check_int("arm_count", arm_count, 2)
        rounds = check_int("rounds", rounds, 1)
        self.learning_rate = math.sqrt(2.0 * math.log(arm_count) / (rounds * arm_count))
        self.cum_loss_est = [0.0] * arm_count
        self.probs = [1.0 / arm_count] * arm_count
        self.rng = rng
        self.pending_prob: Optional[float] = None
        self._block = min(rounds, _DRAW_BLOCK)
        self._draws: list = []
        self._next_draw = 0

    def act(self, t: int) -> int:
        """Sample an arm from the current distribution by inverse CDF."""
        i = self._next_draw
        if i == len(self._draws):
            self._draws = self.rng.random(self._block).tolist()
            i = 0
        u = self._draws[i]
        self._next_draw = i + 1
        probs = self.probs
        if self.arm_count == 2:
            p0 = probs[0]
            if u < p0:
                self.pending_prob = p0
                return 0
            self.pending_prob = probs[1]
            return 1
        acc = 0.0
        last = self.arm_count - 1
        for arm in range(last):
            acc += probs[arm]
            if u < acc:
                self.pending_prob = probs[arm]
                return arm
        self.pending_prob = probs[last]
        return last

    def observe(self, t: int, action, observed: float) -> None:
        """Credit ``loss / probability`` to the played arm and refresh the
        distribution.

        The softmax is computed against the running minimum estimate, so the
        best arm's weight is exactly 1 and the distribution stays strictly
        positive and normalized for any realistic estimate spread.
        """
        prob = self.pending_prob
        if prob is None:
            raise RuntimeError("observe() before act()")
        loss = 1.0 if observed > 1.0 else observed
        if not 0.0 <= loss <= 1.0:
            raise ValueError(f"loss {loss!r} outside [0, 1]")
        if not 0 <= action < self.arm_count:
            raise ValueError(f"arm {action} out of range")
        self.pending_prob = None
        if loss == 0.0:
            return
        cum = self.cum_loss_est
        cum[action] += loss / prob
        eta = self.learning_rate
        if self.arm_count == 2:
            c0, c1 = cum
            if c0 <= c1:
                w = math.exp(-eta * (c1 - c0))
                z = 1.0 + w
                self.probs = [1.0 / z, w / z]
            else:
                w = math.exp(-eta * (c0 - c1))
                z = 1.0 + w
                self.probs = [w / z, 1.0 / z]
            return
        m = min(cum)
        weights = [math.exp(-eta * (c - m)) for c in cum]
        z = math.fsum(weights)
        self.probs = [w / z for w in weights]


# ---------------------------------------------------------------------------
# mini-batch wrapper


def _min_cube_root(numerator: int, denominator: int) -> int:
    """Smallest positive integer c with c^3 * denominator >= numerator."""
    c = max(1, int(round((numerator / denominator) ** (1.0 / 3.0))))
    while c > 1 and (c - 1) ** 3 * denominator >= numerator:
        c -= 1
    while c ** 3 * denominator < numerator:
        c += 1
    return c


def _tau(horizon, arm_count, min_arms, arm_power, delay_guess, memory_bound) -> int:
    """ceil((T / K^arm_power)^(1/3)) in exact integer arithmetic, floored
    at delay_guess + 1 and memory_bound + 1."""
    base = _min_cube_root(check_int("horizon", horizon, 1),
                          check_int("arm_count", arm_count, min_arms) ** arm_power)
    return max(base, check_int("delay_guess", delay_guess, 0) + 1,
               check_int("memory_bound", memory_bound, 0) + 1)


def choose_tau(horizon: int, arm_count: int, delay_guess: int = 0, memory_bound: int = 0) -> int:
    """Batch size balancing inner regret against per-batch contamination.

    ceil((T / K)^(1/3)), floored at delay_guess + 1 and memory_bound + 1 so
    one batch always outlasts both the feedback spread and the loss memory.
    Computed in exact integer arithmetic.
    """
    return _tau(horizon, arm_count, 2, 1, delay_guess, memory_bound)


def choose_tau_bco(horizon: int, arm_count: int, delay_guess: int = 0, memory_bound: int = 0) -> int:
    """Batch size for the convex-ball variant: ceil(T^(1/3) / n^(19/3)) for
    dimension n = ``arm_count``, with the same floors as :func:`choose_tau`.

    The n^(19/3) divisor balances an inner learner with O~(n^9.5 sqrt(T))
    regret (the kernel method of Bubeck, Lee & Eldan, STOC 2017), which
    this package does not have.  With :class:`FkmLearner` inside, whose own
    regret is T^(3/4), batching at this size bounds policy regret by
    T^(5/6), not T^(2/3).
    """
    return _tau(horizon, arm_count, 1, 19, delay_guess, memory_bound)


class MiniBatchWrapper:
    """Play each inner action for ``batch_size`` consecutive rounds and
    feed the inner learner the clipped block average of the observations.

    Batch j covers rounds (j - 1) * batch_size + 1 .. j * batch_size, so the
    round alone says where a batch starts and ends.  Rounds after the last
    complete batch are leftovers: the final batch action is repeated and
    their observations are dropped, so the inner learner only ever hears
    about complete batches.  When the whole horizon is shorter than one
    batch, the inner learner is queried once for the action to repeat and
    never receives feedback.

    With batch_size 1 the wrapper is the identity: the inner learner sees
    the exact round sequence it would have seen alone.
    """

    def __init__(self, inner, batch_size: int, horizon: int):
        self.batch_size = check_int("batch_size", batch_size, 1)
        horizon = check_int("horizon", horizon, 1)
        self.inner = inner
        self.completed_batches = 0
        self.current_action = None
        self.accumulator = 0.0
        # last round of the batch being played, and of the last complete
        # batch; rounds past the latter are leftovers
        self._batch_end = 0
        self._batched_rounds = horizon - horizon % self.batch_size

    def act(self, t: int):
        if t > self._batch_end:
            if t <= self._batched_rounds:
                self.current_action = self.inner.act(self.completed_batches + 1)
                self.accumulator = 0.0
                self._batch_end = t + self.batch_size - 1
            elif self.current_action is None:
                self.current_action = self.inner.act(1)
        return self.current_action

    def observe(self, t: int, action, observed: float) -> None:
        if t > self._batched_rounds:
            return
        self.accumulator += observed
        if t == self._batch_end:
            estimate = self.accumulator / self.batch_size
            if estimate > 1.0:
                estimate = 1.0
            self.inner.observe(self.completed_batches + 1, self.current_action, estimate)
            self.completed_batches += 1


# ---------------------------------------------------------------------------
# one-point gradient learner on a ball


class FkmLearner:
    """Spherical-smoothing gradient descent on a ball (one-point gradient
    estimates).

    Starts at the center with rounds^(-1/4) exploration (the offset of the
    probe point from the iterate, at most half the radius) and
    rounds^(-3/4) step size.  Observations above 1 are clipped to 1, as in
    :class:`Exp3Learner`.
    """

    __slots__ = ("dimension", "radius", "exploration", "step_size", "point",
                 "pending_direction", "rng")

    def __init__(self, dimension: int, radius: float, rounds: int, rng: np.random.Generator):
        self.dimension = dimension = check_int("dimension", dimension, 1)
        self.radius = check_real("radius", radius, 0.0, math.inf, open_low=True, open_high=True)
        rounds = check_int("rounds", rounds, 1)
        self.exploration = min(0.5 * self.radius, self.radius * rounds ** -0.25)
        self.step_size = (self.radius * self.radius / dimension) * rounds ** -0.75
        self.point = np.zeros(dimension)
        self.pending_direction: Optional[np.ndarray] = None
        self.rng = rng

    def act(self, t: int) -> np.ndarray:
        """Probe point: the iterate plus a uniform sphere direction scaled by
        the exploration radius.  Stays inside the ball because the iterate is
        kept in the shrunken ball of radius (radius - exploration)."""
        v = self.rng.normal(size=self.dimension)
        n = float(np.linalg.norm(v))
        while n == 0.0:  # measure-zero; regenerate rather than divide by zero
            v = self.rng.normal(size=self.dimension)
            n = float(np.linalg.norm(v))
        u = v / n
        self.pending_direction = u
        return self.point + self.exploration * u

    def observe(self, t: int, action, observed: float) -> None:
        """Descend along the one-point gradient estimate
        (dimension / exploration) * loss * direction, then project back onto
        the shrunken ball."""
        if self.pending_direction is None:
            raise RuntimeError("observe() before act()")
        loss = min(observed, 1.0)
        if not 0.0 <= loss <= 1.0:
            raise ValueError(f"loss {loss!r} outside [0, 1]")
        grad = (self.dimension / self.exploration) * loss * self.pending_direction
        x = self.point - self.step_size * grad
        limit = self.radius - self.exploration
        n = float(np.linalg.norm(x))
        if n > limit:
            x = x * (limit / n)
        self.point = x
        self.pending_direction = None


# ---------------------------------------------------------------------------
# baseline learners


class UniformRandomLearner:
    """Plays arms uniformly at random; draws come in blocks for speed."""

    def __init__(self, arm_count: int, rng: np.random.Generator):
        self.arm_count = check_int("arm_count", arm_count, 2)
        self.rng = rng
        self._buf: list = []
        self._i = 0

    def act(self, t: int) -> int:
        if self._i == len(self._buf):
            self._buf = self.rng.integers(0, self.arm_count, size=_DRAW_BLOCK).tolist()
            self._i = 0
        a = self._buf[self._i]
        self._i += 1
        return a

    def observe(self, t: int, action, observed: float) -> None:
        pass


class ScriptedLearner:
    """Replays a fixed action sequence; handy for exhaustive enumeration."""

    def __init__(self, actions):
        self.actions = list(actions)

    def act(self, t: int):
        if not 1 <= t <= len(self.actions):
            raise ValueError(f"t={t} outside the script's rounds 1..{len(self.actions)}")
        return self.actions[t - 1]

    def observe(self, t: int, action, observed: float) -> None:
        pass
