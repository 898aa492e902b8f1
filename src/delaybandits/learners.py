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
from dataclasses import dataclass
from typing import Optional

import numpy as np


# ---------------------------------------------------------------------------
# exponential weights over arms


@dataclass
class Exp3State:
    """Exponential-weights state: cumulative importance-weighted loss
    estimates and the distribution they induce."""

    arm_count: int
    learning_rate: float
    cum_loss_est: list
    probs: list


def exp3_init(arm_count: int, rounds: int) -> Exp3State:
    """Fresh uniform state tuned for a known number of update rounds.

    learning_rate = sqrt(2 ln K / (rounds * K)).
    """
    if arm_count < 2:
        raise ValueError("arm_count must be >= 2")
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    eta = math.sqrt(2.0 * math.log(arm_count) / (rounds * arm_count))
    return Exp3State(
        arm_count=arm_count,
        learning_rate=eta,
        cum_loss_est=[0.0] * arm_count,
        probs=[1.0 / arm_count] * arm_count,
    )


def exp3_act(state: Exp3State, rng: np.random.Generator) -> tuple:
    """Sample an arm from the current distribution; returns (arm, prob)."""
    u = rng.random()
    acc = 0.0
    probs = state.probs
    last = state.arm_count - 1
    for arm in range(last):
        acc += probs[arm]
        if u < acc:
            return arm, probs[arm]
    return last, probs[last]


def exp3_update(state: Exp3State, arm: int, loss: float, probability: float) -> Exp3State:
    """Credit ``loss / probability`` to the chosen arm and refresh the
    distribution.

    The softmax is computed against the running minimum estimate, so the
    best arm's weight is exactly 1 and the distribution stays strictly
    positive and normalized for any realistic estimate spread.
    """
    if not 0.0 <= loss <= 1.0:
        raise ValueError(f"loss {loss!r} outside [0, 1]")
    if not 0.0 < probability <= 1.0:
        raise ValueError(f"probability {probability!r} outside (0, 1]")
    if not 0 <= arm < state.arm_count:
        raise ValueError(f"arm {arm} out of range")
    cum = state.cum_loss_est
    cum[arm] += loss / probability
    eta = state.learning_rate
    m = min(cum)
    weights = [math.exp(-eta * (c - m)) for c in cum]
    z = math.fsum(weights)
    state.probs = [w / z for w in weights]
    return state


class Exp3Learner:
    """Game-protocol adapter around the exponential-weights state.

    ``rounds`` is the number of feedback rounds the learner will see: the
    horizon when playing raw, the number of batches when wrapped.

    Composite feedback sums components of up to d rounds, so an observation
    may exceed 1; ``observe`` clips it to 1, as :class:`MiniBatchWrapper`
    clips its batch averages, to keep EXP3's loss range [0, 1].
    """

    def __init__(self, arm_count: int, rounds: int, rng: np.random.Generator):
        self.state = exp3_init(arm_count, rounds)
        self.rng = rng
        self._pending_prob: Optional[float] = None

    def act(self, t: int) -> int:
        arm, prob = exp3_act(self.state, self.rng)
        self._pending_prob = prob
        return arm

    def observe(self, t: int, action, observed: float) -> None:
        if self._pending_prob is None:
            raise RuntimeError("observe() before act()")
        exp3_update(self.state, action, min(observed, 1.0), self._pending_prob)
        self._pending_prob = None


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

    If fewer than ``batch_size`` rounds remain, the final batch action is
    repeated for the leftover rounds and their observations are dropped:
    the inner learner only ever hears about complete batches.  When the
    whole horizon is shorter than one batch, the inner learner is queried
    once for the action to repeat and never receives feedback.

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
        self.horizon = int(horizon)
        self.completed_batches = 0
        self.current_action = None
        self.rounds_into_batch = 0
        self.accumulator = 0.0
        self._in_batch = False
        self._leftover = False

    def act(self, t: int):
        if self._in_batch or self._leftover:
            return self.current_action
        if self.horizon - t + 1 >= self.batch_size:
            self.current_action = self.inner.act(self.completed_batches + 1)
            self._in_batch = True
            self.rounds_into_batch = 0
            self.accumulator = 0.0
        else:
            self._leftover = True
            if self.current_action is None:
                self.current_action = self.inner.act(1)
        return self.current_action

    def observe(self, t: int, action, observed: float) -> None:
        if not self._in_batch:
            return
        self.accumulator += observed
        self.rounds_into_batch += 1
        if self.rounds_into_batch == self.batch_size:
            estimate = self.accumulator / self.batch_size
            if estimate > 1.0:
                estimate = 1.0
            self.inner.observe(self.completed_batches + 1, self.current_action, estimate)
            self.completed_batches += 1
            self._in_batch = False


# ---------------------------------------------------------------------------
# one-point gradient learner on a ball


@dataclass
class FkmState:
    """State of the spherical-smoothing gradient learner."""

    dimension: int
    radius: float
    exploration: float  # offset of the probe point from the iterate
    step_size: float
    point: np.ndarray
    pending_direction: Optional[np.ndarray] = None


def fkm_init(
    dimension: int,
    radius: float,
    rounds: int,
    exploration: Optional[float] = None,
    step_size: Optional[float] = None,
) -> FkmState:
    """Fresh state at the center with rounds^(-1/4) exploration and
    rounds^(-3/4) step size unless overridden."""
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
    return FkmState(
        dimension=dimension,
        radius=float(radius),
        exploration=float(exploration),
        step_size=float(step_size),
        point=np.zeros(dimension),
    )


def fkm_act(state: FkmState, rng: np.random.Generator) -> np.ndarray:
    """Probe point: the iterate plus a uniform sphere direction scaled by
    the exploration radius.  Stays inside the ball because the iterate is
    kept in the shrunken ball of radius (radius - exploration)."""
    v = rng.normal(size=state.dimension)
    n = float(np.linalg.norm(v))
    while n == 0.0:  # measure-zero; regenerate rather than divide by zero
        v = rng.normal(size=state.dimension)
        n = float(np.linalg.norm(v))
    u = v / n
    state.pending_direction = u
    return state.point + state.exploration * u


def fkm_update(state: FkmState, observed_loss: float) -> FkmState:
    """Descend along the one-point gradient estimate
    (dimension / exploration) * loss * direction, then project back onto
    the shrunken ball."""
    if state.pending_direction is None:
        raise RuntimeError("fkm_update() before fkm_act()")
    if not 0.0 <= observed_loss <= 1.0:
        raise ValueError(f"observed_loss {observed_loss!r} outside [0, 1]")
    grad = (state.dimension / state.exploration) * observed_loss * state.pending_direction
    x = state.point - state.step_size * grad
    limit = state.radius - state.exploration
    n = float(np.linalg.norm(x))
    if n > limit:
        x = x * (limit / n)
    state.point = x
    state.pending_direction = None
    return state


class FkmLearner:
    """Game-protocol adapter for the one-point gradient learner."""

    def __init__(
        self,
        dimension: int,
        radius: float,
        rounds: int,
        rng: np.random.Generator,
        exploration: Optional[float] = None,
        step_size: Optional[float] = None,
    ):
        self.state = fkm_init(dimension, radius, rounds, exploration, step_size)
        self.rng = rng

    def act(self, t: int) -> np.ndarray:
        return fkm_act(self.state, self.rng)

    def observe(self, t: int, action, observed: float) -> None:
        fkm_update(self.state, observed)


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
