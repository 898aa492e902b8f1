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
    """

    __slots__ = ("arm_count", "learning_rate", "cum_loss_est", "probs", "rng", "pending_prob")

    def __init__(self, arm_count: int, rounds: int, rng: np.random.Generator):
        if arm_count < 2:
            raise ValueError("arm_count must be >= 2")
        if rounds < 1:
            raise ValueError("rounds must be >= 1")
        self.arm_count = arm_count
        self.learning_rate = math.sqrt(2.0 * math.log(arm_count) / (rounds * arm_count))
        self.cum_loss_est = [0.0] * arm_count
        self.probs = [1.0 / arm_count] * arm_count
        self.rng = rng
        self.pending_prob: Optional[float] = None

    def act(self, t: int) -> int:
        """Sample an arm from the current distribution by inverse CDF."""
        u = self.rng.random()
        acc = 0.0
        probs = self.probs
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
        loss = min(observed, 1.0)
        if not 0.0 <= loss <= 1.0:
            raise ValueError(f"loss {loss!r} outside [0, 1]")
        if not 0 <= action < self.arm_count:
            raise ValueError(f"arm {action} out of range")
        cum = self.cum_loss_est
        cum[action] += loss / prob
        eta = self.learning_rate
        m = min(cum)
        weights = [math.exp(-eta * (c - m)) for c in cum]
        z = math.fsum(weights)
        self.probs = [w / z for w in weights]
        self.pending_prob = None


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


def choose_tau(horizon: int, arm_count: int, delay_guess: int = 0, memory_bound: int = 0) -> int:
    """Batch size balancing inner regret against per-batch contamination.

    ceil((T / K)^(1/3)), floored at delay_guess + 1 and memory_bound + 1 so
    one batch always outlasts both the feedback spread and the loss memory.
    Computed in exact integer arithmetic.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if arm_count < 2:
        raise ValueError("arm_count must be >= 2")
    if delay_guess < 0 or memory_bound < 0:
        raise ValueError("delay_guess and memory_bound must be >= 0")
    base = _min_cube_root(horizon, arm_count)
    return max(base, delay_guess + 1, memory_bound + 1, 1)


def choose_tau_bco(horizon: int, arm_count: int, delay_guess: int = 0, memory_bound: int = 0) -> int:
    """Batch size for the convex-ball variant: ceil(T^(1/3) / K^(19/3)),
    clamped to at least 1 and the same delay/memory floors."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if arm_count < 1:
        raise ValueError("arm_count must be >= 1")
    if delay_guess < 0 or memory_bound < 0:
        raise ValueError("delay_guess and memory_bound must be >= 0")
    base = _min_cube_root(horizon, arm_count ** 19)
    return max(base, delay_guess + 1, memory_bound + 1, 1)


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
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        self.inner = inner
        self.batch_size = int(batch_size)
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
    rounds^(-3/4) step size unless overridden.  Observations above 1 are
    clipped to 1, as in :class:`Exp3Learner`.
    """

    __slots__ = ("dimension", "radius", "exploration", "step_size", "point",
                 "pending_direction", "rng")

    def __init__(
        self,
        dimension: int,
        radius: float,
        rounds: int,
        rng: np.random.Generator,
        exploration: Optional[float] = None,
        step_size: Optional[float] = None,
    ):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        if not radius > 0:
            raise ValueError("radius must be positive")
        if rounds < 1:
            raise ValueError("rounds must be >= 1")
        if exploration is None:
            exploration = min(0.5 * radius, radius * rounds ** -0.25)
        if step_size is None:
            step_size = (radius * radius / dimension) * rounds ** -0.75
        if not 0.0 < exploration < radius:
            raise ValueError(f"exploration must lie in (0, radius), got {exploration}")
        if not step_size > 0:
            raise ValueError("step_size must be positive")
        self.dimension = dimension
        self.radius = float(radius)
        self.exploration = float(exploration)
        self.step_size = float(step_size)
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

    _BLOCK = 8192

    def __init__(self, arm_count: int, rng: np.random.Generator):
        if arm_count < 2:
            raise ValueError("arm_count must be >= 2")
        self.arm_count = arm_count
        self.rng = rng
        self._buf: list = []
        self._i = 0

    def act(self, t: int) -> int:
        if self._i == len(self._buf):
            self._buf = self.rng.integers(0, self.arm_count, size=self._BLOCK).tolist()
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
        return self.actions[t - 1]

    def observe(self, t: int, action, observed: float) -> None:
        pass
