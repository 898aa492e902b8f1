"""Round-based bandit game with composite anonymous delayed feedback.

Protocol per round t = 1..T:

1. the learner picks an action from past observations only,
2. the loss adversary fixes a loss in [0, 1] that may depend on the whole
   action history,
3. the delay adversary splits that loss into d nonnegative components, the
   s-th of which surfaces s rounds later,
4. the learner observes one aggregate number: the sum of every component
   due this round, with no attribution to the rounds that produced it.

The learner never sees per-round losses, only the anonymous aggregates.
Regret is accounted against the true losses by counterfactual replay, which
is why adversaries must realize all randomness from counter-style seed
streams (see :mod:`delaybandits.seeding`): a replayed history re-reads the
same random values the live run used.

Loss adversaries are called as ``loss(t, actions)`` where ``actions`` is a
sequence with at least t entries whose first t entries are the history
a_1..a_t.  Implementations must read only those t entries, indexing
``actions[t-1]``, ``actions[t-2]``, ... rather than relying on
``len(actions)``; the replay routines exploit this by overwriting single
entries of a shared buffer instead of copying prefixes.
"""

from __future__ import annotations

import gc
import math
from dataclasses import dataclass
from itertools import repeat
from typing import Optional

import numpy as np

#: absolute tolerance for split bookkeeping: components summing to the loss,
#: negative rounding noise, observed-loss reconstruction
SPLIT_ATOL = 1e-12


class SimulationError(Exception):
    """Base class for violations of the game protocol."""


class ActionError(SimulationError):
    """Learner produced an action outside the action space."""


class SplitError(SimulationError):
    """Delay adversary produced an invalid loss split."""


class LossRangeError(SimulationError):
    """Loss adversary produced something other than a real number in [0, 1]."""


class ReplayError(SimulationError):
    """Counterfactual replay did not reproduce the realized run."""


# ---------------------------------------------------------------------------
# action spaces


@dataclass(frozen=True)
class Discrete:
    """Finite action set {0, ..., arm_count - 1}."""

    arm_count: int

    def __post_init__(self):
        if self.arm_count < 2:
            raise ValueError(f"need at least 2 arms, got {self.arm_count}")

    def contains(self, action) -> bool:
        return (isinstance(action, (int, np.integer)) and type(action) is not bool
                and 0 <= action < self.arm_count)

    def comparators(self) -> list:
        return list(range(self.arm_count))

    def sample(self, rng: np.random.Generator):
        return int(rng.integers(self.arm_count))


@dataclass(frozen=True)
class ConvexBall:
    """Euclidean ball of given radius; regret is measured against a finite
    grid of comparator points inside the ball."""

    dimension: int
    radius: float
    comparator_grid: tuple = ()

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be positive")
        if not self.radius > 0:
            raise ValueError("radius must be positive")
        if not self.comparator_grid:
            raise ValueError("comparator_grid must not be empty")
        grid = tuple(tuple(float(x) for x in p) for p in self.comparator_grid)
        for p in grid:
            if len(p) != self.dimension:
                raise ValueError(f"comparator point {p} has wrong dimension")
            if math.sqrt(sum(x * x for x in p)) > self.radius + 1e-9:
                raise ValueError(f"comparator point {p} lies outside the ball")
        object.__setattr__(self, "comparator_grid", grid)

    def contains(self, action) -> bool:
        try:
            v = np.asarray(action, dtype=float)
        except (TypeError, ValueError):
            return False
        if v.shape != (self.dimension,):
            return False
        return float(np.linalg.norm(v)) <= self.radius + 1e-9

    def comparators(self) -> list:
        return list(self.comparator_grid)

    def sample(self, rng: np.random.Generator):
        # uniform direction, radius scaled for uniform volume
        v = rng.normal(size=self.dimension)
        n = np.linalg.norm(v)
        if n == 0.0:
            return np.zeros(self.dimension)
        r = self.radius * rng.random() ** (1.0 / self.dimension)
        return v * (r / n)


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class GameConfig:
    """Immutable description of one simulated game."""

    horizon: int
    action_space: object
    delay_span: int = 1
    master_seed: int = 0

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.delay_span < 1:
            raise ValueError("delay_span must be >= 1")


# ---------------------------------------------------------------------------
# loss splits and pending feedback


@dataclass(slots=True)
class LossSplit:
    """Decomposition of one round's loss into delayed components.

    ``components[s]`` surfaces at round ``t + s``.  :func:`run_game` builds
    one per round from the round, the realized loss and the tuple the
    delay adversary returned.
    """

    t: int
    components: tuple
    loss_value: float


def validate_split(split: LossSplit, delay_span: int) -> LossSplit:
    """Check a split against the declared loss and clamp rounding noise.

    Components in [-SPLIT_ATOL, 0) are snapped to 0.0; anything more
    negative, any component exceeding the loss or not comparable with a
    float, a wrong component count, or a sum off by more than SPLIT_ATOL
    (or NaN) raises :class:`SplitError`.
    """
    comps = split.components
    if len(comps) != delay_span:
        raise SplitError(
            f"round {split.t}: expected {delay_span} components, got {len(comps)}"
        )
    lv = split.loss_value
    # Fast accept: a nonnegative component is at most the correctly rounded
    # sum, so the per-component cap follows from the cap on the sum.  A NaN
    # fails the comparisons; it, infinities that make fsum raise, and
    # components that are not numbers fall through to the loop below.
    try:
        total = comps[0] if delay_span == 1 else math.fsum(comps)
        if min(comps) >= 0.0 and total <= lv + SPLIT_ATOL and abs(total - lv) <= SPLIT_ATOL:
            return split
    except (OverflowError, TypeError, ValueError):
        pass
    clamped = None
    for i, c in enumerate(comps):
        try:
            negative = c < 0.0
        except TypeError:
            raise SplitError(f"round {split.t}: component {i} ({c!r}) is not a number") from None
        if negative:
            if c < -SPLIT_ATOL:
                raise SplitError(f"round {split.t}: component {i} is negative ({c!r})")
            if clamped is None:
                clamped = list(comps)
            clamped[i] = 0.0
        elif c > lv + SPLIT_ATOL:
            raise SplitError(
                f"round {split.t}: component {i} ({c!r}) exceeds loss {lv!r}"
            )
    if clamped is not None:
        split.components = comps = tuple(clamped)
    total = comps[0] if len(comps) == 1 else math.fsum(comps)
    if not abs(total - lv) <= SPLIT_ATOL:
        raise SplitError(
            f"round {split.t}: components sum to {total!r}, loss is {lv!r}"
        )
    return split


def observe_aggregate(pending: list, split: LossSplit) -> float:
    """Observed loss for the round whose split is ``split``.

    ``pending[k]`` is the delayed mass that surfaces k rounds from now; the
    immediate component surfaces on top of ``pending[0]``.  Reads
    ``pending``; does not advance it.
    """
    return split.components[0] + (pending[0] if pending else 0.0)


def push_split(pending: list, split: LossSplit) -> None:
    """Schedule the delayed components of ``split`` and advance one round.

    ``pending`` has length d - 1 for delay span d and is advanced in place.
    """
    comps = split.components
    d = len(pending) + 1
    if len(comps) != d:
        raise SplitError(f"round {split.t}: split width {len(comps)} != delay span {d}")
    if d == 1:
        return
    # drop the slot consumed this round, shift, add the new schedule; the
    # last slot is 0.0 + c, not c, so a -0.0 component is stored as 0.0
    for k in range(d - 2):
        pending[k] = pending[k + 1] + comps[k + 1]
    pending[d - 2] = 0.0 + comps[d - 1]


# ---------------------------------------------------------------------------
# transcripts


@dataclass(frozen=True)
class Transcript:
    """Complete record of one run; immutable once the run finishes.

    Round t is ``actions[t-1]``, ``true_losses[t-1]``, the validated split
    ``components[t-1]`` (a tuple of d floats, clamped as
    :func:`validate_split` left it) and ``observed[t-1]``.
    """

    config: GameConfig
    actions: tuple
    true_losses: tuple
    components: tuple
    observed: tuple

    @property
    def horizon(self) -> int:
        return self.config.horizon

    @property
    def realized_total(self) -> float:
        return math.fsum(self.true_losses)


# ---------------------------------------------------------------------------
# the game loop


def run_game(config: GameConfig, learner, loss_adversary, delay_adversary) -> Transcript:
    """Play the full game and return its transcript.

    Enforces per round: the action lies in the action space, the loss is a
    real number in [0, 1] and neither a bool nor a numpy array, the delay
    adversary returns a tuple, that tuple is a valid split of the loss for
    the configured delay span (:func:`validate_split` on the engine's own
    ``LossSplit(t, components, loss)``), and the learner only hears about
    round t after acting in round t.  A :class:`SimulationError` raised in
    a round is re-raised as the same type with
    ``(seed <master_seed>, <LossClass>+<DelayClass>)`` appended.

    The cyclic garbage collector is paused while the rounds are played and
    restored afterwards.  Each round keeps a new component tuple alive, so
    allocations keep triggering collections that scan the young tuples;
    at T = 2^16 those collections took 1-4 % of a run, the most at d = 32
    where the tuples are widest.  Cyclic garbage that a component makes is
    collected after the run.

    Parameters
    ----------
    config : GameConfig
    learner : object with ``act(t)`` and ``observe(t, action, observed)``
    loss_adversary : object with ``loss(t, actions)``
    delay_adversary : object with ``split(t, actions, loss_value)`` returning
        a tuple of ``delay_span`` components, the s-th surfacing at t + s

    Returns
    -------
    Transcript
    """
    space = config.action_space
    d = config.delay_span
    if getattr(delay_adversary, "delay_span", d) != d:
        raise SplitError(
            f"delay adversary span {delay_adversary.delay_span} != config {d}"
        )
    contains = space.contains
    loss_fn = loss_adversary.loss
    split_fn = delay_adversary.split
    act = learner.act
    observe = learner.observe

    actions: list = []
    true_losses: list = []
    components: list = []
    observed_seq: list = []
    append_action = actions.append
    pending = [0.0] * (d - 1)
    # types that compare like a number in [0, 1] but are not one
    rejected = frozenset((bool, np.bool_, np.ndarray))

    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for t in range(1, config.horizon + 1):
            a = act(t)
            if not contains(a):
                raise ActionError(f"round {t}: action {a!r} outside the action space")
            append_action(a)
            lv = loss_fn(t, actions)
            try:
                in_range = 0.0 <= lv <= 1.0 and type(lv) not in rejected
            except (TypeError, ValueError):
                in_range = False
            if not in_range:
                raise LossRangeError(f"round {t}: loss {lv!r} is not a real number in [0, 1]")
            comps = split_fn(t, actions, lv)
            if type(comps) is not tuple:
                raise SplitError(f"round {t}: delay adversary returned {comps!r}, not a tuple")
            split = validate_split(LossSplit(t, comps, lv), d)
            obs = observe_aggregate(pending, split)
            push_split(pending, split)
            observe(t, a, obs)
            true_losses.append(lv)
            components.append(split.components)
            observed_seq.append(obs)
    except SimulationError as e:
        raise type(e)(
            f"{e} (seed {config.master_seed}, "
            f"{type(loss_adversary).__name__}+{type(delay_adversary).__name__})"
        ) from e
    finally:
        if gc_was_enabled:
            gc.enable()

    return Transcript(
        config=config,
        actions=tuple(actions),
        true_losses=tuple(true_losses),
        components=tuple(components),
        observed=tuple(observed_seq),
    )


# ---------------------------------------------------------------------------
# regret accounting


@dataclass(frozen=True)
class RegretReport:
    """Regret of one transcript against a comparator set.

    ``policy_regret`` replays each comparator as a constant action sequence
    through the loss adversary.  ``pseudo_regret`` replays one-step
    deviations that keep the realized prefix.
    """

    realized_total: float
    policy_regret: float
    pseudo_regret: float
    best_comparator: object


def _replay_realized(transcript: Transcript, loss_adversary) -> None:
    """Re-evaluate the realized history; any drift means the adversary is
    not replay-deterministic and every counterfactual would be garbage."""
    actions = list(transcript.actions)
    losses = transcript.true_losses
    T = len(actions)
    replayed = tuple(map(loss_adversary.loss, range(1, T + 1), repeat(actions, T)))
    if replayed == losses:
        return
    for t, (again, recorded) in enumerate(zip(replayed, losses), 1):
        if again != recorded:
            raise ReplayError(
                f"round {t}: replayed loss {again!r} != recorded "
                f"{recorded!r}; adversary randomness is not replay-stable"
            )


def policy_regret(transcript: Transcript, loss_adversary, comparators=None) -> RegretReport:
    """Regret against constant action sequences, replayed through the
    adversary.

    For each comparator y the entire game is re-run on the history
    (y, y, ..., y), loss by loss.  Requires a replay-deterministic
    adversary; the realized history is replayed first and must reproduce
    the recorded losses exactly.
    """
    if comparators is None:
        comparators = transcript.config.action_space.comparators()
    comparators = list(comparators)
    if not comparators:
        raise ValueError("need at least one comparator")
    _replay_realized(transcript, loss_adversary)

    T = transcript.horizon
    loss_fn = loss_adversary.loss
    rounds = range(1, T + 1)
    totals = [math.fsum(map(loss_fn, rounds, repeat([y] * T, T))) for y in comparators]
    realized = transcript.realized_total
    b = min(range(len(totals)), key=totals.__getitem__)  # ties: lowest index
    return RegretReport(
        realized_total=realized,
        policy_regret=realized - totals[b],
        pseudo_regret=pseudo_regret(transcript, loss_adversary, comparators),
        best_comparator=comparators[b],
    )


def pseudo_regret(transcript: Transcript, loss_adversary, comparators=None) -> float:
    """Regret against one-step deviations from the realized history.

    The comparator total for y sums l_t over histories that keep the
    realized prefix a_1..a_{t-1} and swap only the round-t action for y.
    For oblivious (memoryless) adversaries this equals standard external
    regret.  Ties in the minimum go to the lowest comparator index.
    """
    if comparators is None:
        comparators = transcript.config.action_space.comparators()
    comparators = list(comparators)
    if not comparators:
        raise ValueError("need at least one comparator")

    T = transcript.horizon
    loss_fn = loss_adversary.loss
    totals = []
    for y in comparators:
        # walk t downwards: rounds after t already hold y, and loss(t, .)
        # reads rounds 1..t only, so nothing needs restoring; fsum is
        # correctly rounded, so the order of the terms does not matter
        hist = list(transcript.actions)
        vals = []
        append = vals.append
        for t in range(T, 0, -1):
            hist[t - 1] = y
            append(loss_fn(t, hist))
        totals.append(math.fsum(vals))
    return transcript.realized_total - min(totals)


# ---------------------------------------------------------------------------
# bounded-memory probe


@dataclass(frozen=True)
class MemoryCheckResult:
    """Outcome of a randomized bounded-memory probe.

    ``witness`` is None on success, otherwise a tuple
    (t, history, perturbed_history, loss, perturbed_loss) exhibiting a
    dependence on actions older than the claimed window.
    """

    passed: bool
    trials: int
    witness: Optional[tuple] = None


def check_bounded_memory(
    loss_adversary,
    memory_bound: int,
    *,
    action_space,
    horizon: int,
    trials: int = 200,
    rng: Optional[np.random.Generator] = None,
) -> MemoryCheckResult:
    """Probe whether l_t depends only on the last ``memory_bound`` + 1 actions.

    Samples random histories, rewrites entries strictly older than the
    claimed window, and compares losses.  A probe can only ever disprove
    the bound; passing means no witness was found in ``trials`` attempts.
    memory_bound = 0 probes obliviousness.
    """
    if memory_bound < 0:
        raise ValueError("memory_bound must be >= 0")
    if rng is None:
        rng = np.random.default_rng()
    window = memory_bound + 1
    if horizon <= window:
        # nothing older than the window can exist; trivially consistent
        return MemoryCheckResult(passed=True, trials=0)

    loss_fn = loss_adversary.loss
    done = 0
    while done < trials:
        t = int(rng.integers(window + 1, horizon + 1))
        hist = [action_space.sample(rng) for _ in range(t)]
        base = loss_fn(t, hist)
        perturbed = list(hist)
        cut = t - window  # indices 0..cut-1 are outside the window
        changed = False
        for i in range(cut):
            if rng.random() < 0.5:
                a = action_space.sample(rng)
                if not _same_action(a, perturbed[i]):
                    perturbed[i] = a
                    changed = True
        if not changed:
            i = int(rng.integers(cut))
            perturbed[i] = _resample_different(action_space, perturbed[i], rng)
        other = loss_fn(t, perturbed)
        if other != base:
            return MemoryCheckResult(
                passed=False,
                trials=done + 1,
                witness=(t, tuple(hist), tuple(perturbed), base, other),
            )
        done += 1
    return MemoryCheckResult(passed=True, trials=done)


def _same_action(a, b) -> bool:
    if isinstance(a, (int, np.integer)):
        return a == b
    return bool(np.array_equal(np.asarray(a), np.asarray(b)))


def _resample_different(space, current, rng):
    for _ in range(64):
        a = space.sample(rng)
        if not _same_action(a, current):
            return a
    raise ValueError("could not sample a distinct action; space too small?")
