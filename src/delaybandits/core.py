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
Regret is accounted against the true losses by counterfactual replay: one
call, :func:`policy_regret`, returns both the policy and the pseudo regret
of a transcript.  That is why adversaries must realize all randomness from
counter-style seed streams (see :mod:`delaybandits.seeding`): a replayed
history re-reads the same random values the live run used.  A loss may
price the comparators it is given itself, with ``arm_totals(actions,
comparators)``; every other loss is replayed call by call.

Loss adversaries are called as ``loss(t, actions)`` where ``actions`` is a
sequence with at least t entries whose first t entries are the history
a_1..a_t.  Implementations must read only those t entries, indexing
``actions[t-1]``, ``actions[t-2]``, ... rather than relying on
``len(actions)``; the regret replay exploits this by overwriting single
entries of a shared buffer instead of copying prefixes.
"""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, dataclass
from functools import cached_property, partial
from itertools import compress, count, repeat
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


#: types that compare like 0 and 1 but are not numbers
_BOOLS = frozenset((bool, np.bool_))
#: array types: they compare and convert elementwise, not as one number
_ARRAYS = frozenset((np.ndarray,))
#: loss types that compare like a number in [0, 1] but are not one (and,
#: at d <= 2, split components that are not numbers)
_NOT_LOSSES = _BOOLS | _ARRAYS


def check_int(name: str, value, least: int) -> int:
    """``value`` as an ``int``, if it is an ``int`` or ``numpy.integer``, not
    a bool, and at least ``least``; otherwise ``ValueError`` names ``name``."""
    if type(value) in _BOOLS or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value!r}")
    return int(value)


def check_real(name: str, value, low: float, high: float, *,
               open_low: bool = False, open_high: bool = False) -> float:
    """``value`` as a ``float``, if it is an ``int``, ``float``, numpy
    integer or numpy float, not a bool, and lies between ``low`` and
    ``high``; each end is closed unless its flag opens it.  NaN is never in
    range, and an infinity only at a closed infinite end.  Otherwise
    ``ValueError`` names ``name``."""
    if type(value) in _BOOLS or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an int beyond every float
        x = math.nan
    if not ((low < x if open_low else low <= x) and (x < high if open_high else x <= high)):
        left, right = "(" if open_low else "[", ")" if open_high else "]"
        raise ValueError(f"{name} must lie in {left}{float(low)!r}, {float(high)!r}{right}, "
                         f"got {value!r}")
    return x


# ---------------------------------------------------------------------------
# action spaces


@dataclass(frozen=True)
class Discrete:
    """Finite action set {0, ..., arm_count - 1}."""

    arm_count: int

    def __post_init__(self):
        object.__setattr__(self, "arm_count", check_int("arm_count", self.arm_count, 2))

    def contains(self, action) -> bool:
        if type(action) is int:
            return 0 <= action < self.arm_count
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
        object.__setattr__(self, "dimension", check_int("dimension", self.dimension, 1))
        object.__setattr__(self, "radius", check_real("radius", self.radius, 0.0, math.inf,
                                                      open_low=True, open_high=True))
        if not self.comparator_grid:
            raise ValueError("comparator_grid must not be empty")
        grid = tuple(tuple(float(x) for x in p) for p in self.comparator_grid)
        for p in grid:
            if len(p) != self.dimension:
                raise ValueError(f"comparator point {p} has wrong dimension")
            if not self.contains(p):
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
    """Immutable description of one simulated game.  The horizon is an
    integer >= 1, the keyword-only seed any integer (see :func:`check_int`);
    the delay span is the delay adversary's own (see :func:`run_game`)."""

    horizon: int
    action_space: object
    _: KW_ONLY
    master_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "horizon", check_int("horizon", self.horizon, 1))
        object.__setattr__(self, "master_seed",
                           check_int("master_seed", self.master_seed, -math.inf))


# ---------------------------------------------------------------------------
# loss splits and pending feedback


@dataclass(slots=True)
class LossSplit:
    """Decomposition of one round's loss into delayed components.

    ``components[s]`` surfaces at round ``t + s``.  :func:`run_game` builds
    one per run and refills it every round with the round, the realized
    loss and the tuple the delay adversary returned; the transcript keeps
    the components, never the record.  ``nonzero`` lists the slots of the
    nonzero components, ascending: every successful return of
    :func:`validate_split` at d >= 3 sets it from the components it
    returns, and :func:`push_split` reads it instead of scanning again.
    ``None`` (the default) tells :func:`push_split` to find them itself.
    """

    t: int
    components: tuple
    loss_value: float
    nonzero: Optional[list] = None


def validate_split(split: LossSplit, delay_span: int) -> LossSplit:
    """Check a split against the declared loss and clamp rounding noise.

    Components in [-SPLIT_ATOL, 0) are snapped to 0.0; anything more
    negative, any component exceeding the loss or not comparable with a
    float (a ``Decimal`` NaN, whose comparisons raise ``ArithmeticError``,
    included), a wrong component count, or a sum off by more than SPLIT_ATOL
    (or NaN) raises :class:`SplitError`.  A ``numpy.ndarray`` component is
    not a number at any d; at d <= 2 neither is a ``bool`` or
    ``numpy.bool_``.

    At d >= 3 the fast accept reads the split twice: the ``fsum`` total
    over every component, which sends a NaN, an infinity or a non-number
    (a falsy ``None`` included) to the component loop, and one ``compress``
    scan for the slots of the nonzero components, whose sign test reads
    those components only.  A skipped component is falsy, and every falsy
    number ``fsum`` accepts (``-0.0``, ``0``, ``Decimal(0)``, numpy zeros)
    is >= 0.0.  Every successful return at d >= 3, the fast accept's or the
    loop's (from the clamped components), stores those slots in
    ``split.nonzero`` for :func:`push_split`.  On a one-hot split such as
    :class:`LastSlotDelay`'s the scan is one C pass; a dense split pays one
    list entry and one Python comparison per component.  At d = 32 that
    made this check about 0.8 us slower on a dense split than a sort-based
    sign test, and this check, :func:`observe_aggregate` and
    :func:`push_split` together took 3.4-4.1 us against 3.4 us; at d = 4
    the two were within 0.2 us (timeit, best of 5, one pinned CPU of a
    2-core Xeon VM).

    The fast accept at d >= 3 does not look for bools or 0-d arrays: a
    type scan cost about 1 us per round at d = 32.  A component that
    compares with floats but cannot be added to one (a ``Decimal``) may
    pass here; :func:`run_game` names it once the feedback buffer fails to
    add it.  At d >= 3 :func:`push_split` adds only nonzero components, so
    such a component that is zero and past slot 0 is never touched and not
    caught.
    """
    comps = split.components
    if len(comps) != delay_span:
        raise SplitError(
            f"round {split.t}: expected {delay_span} components, got {len(comps)}"
        )
    lv = split.loss_value
    if 1 <= delay_span <= 2:
        # Fast accept for exact floats only, so bools go to the loop.  The
        # sum of two floats is one correctly rounded add, equal to their
        # fsum; an add that overflows to inf fails the sum test.  The
        # per-component cap follows from the cap on the sum, as below.
        c0, c1 = comps if delay_span == 2 else (comps[0], 0.0)
        if type(c0) is float and type(c1) is float and c0 >= 0.0 and c1 >= 0.0:
            total = c0 + c1
            if total <= lv + SPLIT_ATOL and abs(total - lv) <= SPLIT_ATOL:
                return split
        not_numbers = _NOT_LOSSES
    else:
        # Fast accept: a nonnegative component is at most the correctly
        # rounded sum, so the per-component cap follows from the cap on the
        # sum.  The fsum total runs over every component: a NaN makes it
        # NaN, which fails the sum tests, and an infinity or a non-number
        # makes it raise.  Only then are the nonzero slots found; the zeros
        # the scan skips are all >= 0.0.  A scan or a comparison that
        # raises falls through to the loop, as those do.
        try:
            total = math.fsum(comps)
            if total <= lv + SPLIT_ATOL and abs(total - lv) <= SPLIT_ATOL:
                nonzero = [*compress(count(), comps)]
                for s in nonzero:
                    if comps[s] < 0.0:
                        break
                else:
                    split.nonzero = nonzero
                    return split
        except (ArithmeticError, TypeError, ValueError):
            pass
        not_numbers = _ARRAYS
    clamped = None
    for i, c in enumerate(comps):
        # every comparison and its truth test stay inside the try: an
        # array's truth value raises ValueError
        try:
            if type(c) in not_numbers:
                raise TypeError
            if c < 0.0:
                if c < -SPLIT_ATOL:
                    raise SplitError(f"round {split.t}: component {i} is negative ({c!r})")
                if clamped is None:
                    clamped = list(comps)
                clamped[i] = 0.0
            elif c > lv + SPLIT_ATOL:
                raise SplitError(
                    f"round {split.t}: component {i} ({c!r}) exceeds loss {lv!r}"
                )
        except (TypeError, ValueError, ArithmeticError):
            raise SplitError(f"round {split.t}: component {i} ({c!r}) is not a number") from None
    if clamped is not None:
        split.components = comps = tuple(clamped)
    total = comps[0] if len(comps) == 1 else math.fsum(comps)
    if not abs(total - lv) <= SPLIT_ATOL:
        raise SplitError(
            f"round {split.t}: components sum to {total!r}, loss is {lv!r}"
        )
    if delay_span >= 3:
        split.nonzero = [*compress(count(), comps)]
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
    At d >= 3 only the nonzero components are added, so the Python work
    scales with them, not with d.  Their slots are ``split.nonzero`` when
    :func:`validate_split` has set it, so the split is not scanned twice;
    otherwise this scans for them.  For float, int and numpy float64
    components the floats are those of shifting every slot and adding every
    component: a slot is never -0.0, so adding a zero of either sign leaves
    it as it is, and the new last slot starts at 0.0, so a -0.0 component
    is stored as 0.0.  (Adding a numpy float32 zero would round a slot to
    float32; skipping it does not.)
    """
    comps = split.components
    d = len(pending) + 1
    if len(comps) != d:
        raise SplitError(f"round {split.t}: split width {len(comps)} != delay span {d}")
    if d == 2:
        pending[0] = 0.0 + comps[1]  # not comps[1]: a -0.0 component is stored as 0.0
    elif d > 2:
        # open the new last slot, add the nonzero components (slot 0 is the
        # one consumed this round, so its sum is dropped with it)
        pending.append(0.0)
        nonzero = split.nonzero
        for s in compress(count(), comps) if nonzero is None else nonzero:
            pending[s] += comps[s]
        del pending[0]


def _unaddable_component(split: LossSplit) -> Optional[SplitError]:
    """The error naming the first component of ``split`` that float
    arithmetic cannot add, or None if every one adds.  Runs only after the
    split's check or the buffer has raised ``TypeError``."""
    for i, c in enumerate(split.components):
        try:
            c + 0.0
            0.0 + c
        except TypeError:
            return SplitError(f"round {split.t}: component {i} ({c!r}) is not a number")
    return None


# ---------------------------------------------------------------------------
# transcripts


@dataclass(frozen=True)
class Transcript:
    """Complete record of one run; immutable once the run finishes.

    Round t is ``actions[t-1]``, ``true_losses[t-1]`` and ``observed[t-1]``.
    Its validated split (d floats, clamped as :func:`validate_split` left
    it) is ``flat_components[(t-1)*d : t*d]`` for d = ``delay_span``:
    component s of round t is ``flat_components[(t-1)*d + s]``.  The list is
    the engine's own, handed over without a copy, and is not to be mutated;
    a tuple copy would cost 0.36 us per round at d = 32.  ``components[t-1]``
    is the same split as a d-tuple, from a view of per-round tuples built
    on first read.
    """

    config: GameConfig
    actions: tuple
    true_losses: tuple
    observed: tuple
    delay_span: int
    flat_components: list

    @property
    def horizon(self) -> int:
        return self.config.horizon

    @cached_property
    def components(self) -> tuple:
        return tuple(zip(*[iter(self.flat_components)] * self.delay_span))

    @property
    def realized_total(self) -> float:
        return math.fsum(self.true_losses)


# ---------------------------------------------------------------------------
# the game loop


def run_game(config: GameConfig, learner, loss_adversary, delay_adversary) -> Transcript:
    """Play the full game and return its transcript.

    The delay span d is the delay adversary's ``delay_span``, a positive
    ``int``.  Enforces per round: the action lies in the action space, the
    loss is a real number in [0, 1] and neither a bool nor a numpy array,
    the delay adversary returns a tuple, that tuple is a valid split of the
    loss into d components (:func:`validate_split` on the engine's own
    ``LossSplit``, built once per run and refilled each round with t, the
    components and the loss), and the learner only hears about round t
    after acting in round t.  A component that float arithmetic cannot add
    raises :class:`SplitError` once the check or the feedback buffer fails
    on it.  A :class:`SimulationError`, a bad d included, is re-raised with
    ``(seed <master_seed>, <Loss>+<Delay>)``.  The checked components go
    into one list of T * d slots allocated before the first round, so the
    transcript keeps no container per round.

    Parameters
    ----------
    config : GameConfig
    learner : object with ``act(t)`` and ``observe(t, action, observed)``
    loss_adversary : object with ``loss(t, actions)``
    delay_adversary : object with ``delay_span`` d and ``split(t, actions,
        loss_value)`` returning d components, the s-th surfacing at t + s

    Returns
    -------
    Transcript
    """
    space = config.action_space
    d = getattr(delay_adversary, "delay_span", None)
    contains = space.contains
    loss_fn = loss_adversary.loss
    split_fn = delay_adversary.split
    act = learner.act
    observe = learner.observe

    actions: list = []
    true_losses: list = []
    observed_seq: list = []
    rejected = _NOT_LOSSES

    try:
        if not (type(d) is int and d >= 1):
            raise SplitError(f"delay adversary span {d!r} is not a positive int")
        pending = [0.0] * (d - 1)
        flat: list = [None] * (config.horizon * d)
        hi = 0
        split = LossSplit(0, (), 0.0)
        for t in range(1, config.horizon + 1):
            a = act(t)
            if not contains(a):
                raise ActionError(f"round {t}: action {a!r} outside the action space")
            actions.append(a)
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
            split.t = t
            split.components = comps
            split.loss_value = lv
            try:
                split = validate_split(split, d)
                obs = observe_aggregate(pending, split)
                push_split(pending, split)
            except TypeError:
                bad = _unaddable_component(split)
                if bad is None:
                    raise
                raise bad from None
            observe(t, a, obs)
            true_losses.append(lv)
            lo = hi
            hi += d
            flat[lo:hi] = split.components
            observed_seq.append(obs)
    except SimulationError as e:
        raise type(e)(
            f"{e} (seed {config.master_seed}, "
            f"{type(loss_adversary).__name__}+{type(delay_adversary).__name__})"
        ) from e

    return Transcript(
        config=config,
        actions=tuple(actions),
        true_losses=tuple(true_losses),
        observed=tuple(observed_seq),
        delay_span=d,
        flat_components=flat,
    )


# ---------------------------------------------------------------------------
# regret accounting


@dataclass(frozen=True)
class RegretReport:
    """Both regrets of one transcript against one comparator set.

    ``policy_regret`` prices each comparator y on the constant history
    (y, ..., y); ``pseudo_regret`` keeps the realized prefix and swaps y in
    for one round at a time.  Each is ``realized_total`` less the smallest
    comparator total.
    """

    realized_total: float
    policy_regret: float
    pseudo_regret: float


def policy_regret(transcript: Transcript, loss_adversary, comparators=None) -> RegretReport:
    """Policy and pseudo regret of a transcript, priced through the
    adversary.

    Comparators default to the action space's; every one must lie in the
    action space, or ``ValueError`` names the first that does not.  For each
    comparator y, the policy total sums l_t over the constant history
    (y, ..., y), and the pseudo total sums l_t over the history that keeps
    a_1..a_{t-1} and plays y in round t; each is a ``math.fsum``.  For
    oblivious (memoryless) adversaries both equal standard external regret.

    One pricing call, the loss's ``arm_totals(actions, comparators)`` or
    else :func:`_replay_totals`, returns the played losses, which must equal
    the recorded ones or :class:`ReplayError` names the first round that
    differs, and each comparator's two totals.
    """
    space = transcript.config.action_space
    comparators = space.comparators() if comparators is None else list(comparators)
    if not comparators:
        raise ValueError("need at least one comparator")
    for y in comparators:
        if not space.contains(y):
            raise ValueError(f"comparator {y!r} is not in the action space")

    price = getattr(loss_adversary, "arm_totals", None)
    if price is None:
        price = partial(_replay_totals, loss_adversary.loss)
    replayed, constant, swapped = price(transcript.actions, comparators)
    losses = transcript.true_losses
    if replayed != losses:
        for t, (again, recorded) in enumerate(zip(replayed, losses), 1):
            if again != recorded:
                raise ReplayError(f"round {t}: replayed loss {again!r} != recorded "
                                  f"{recorded!r}; adversary randomness is not replay-stable")
    realized = transcript.realized_total
    return RegretReport(realized, realized - min(constant), realized - min(swapped))


def _replay_totals(loss_fn, actions, comparators) -> tuple:
    """(played losses, constant total per comparator, one-swap total per
    comparator) of ``actions`` by calling ``loss_fn``: the oracle of every
    ``arm_totals``."""
    T = len(actions)
    rounds = range(1, T + 1)
    replayed = tuple(map(loss_fn, rounds, repeat(list(actions), T)))
    constant = [math.fsum(map(loss_fn, rounds, repeat([y] * T, T))) for y in comparators]
    swapped = []
    for y in comparators:
        # walk t downwards: rounds after t already hold y, and loss(t, .)
        # reads rounds 1..t only, so nothing needs restoring; fsum is
        # correctly rounded, so the order of the terms does not matter
        hist = list(actions)
        vals = []
        append = vals.append
        for t in range(T, 0, -1):
            hist[t - 1] = y
            append(loss_fn(t, hist))
        swapped.append(math.fsum(vals))
    return replayed, constant, swapped


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
    rng: np.random.Generator,
) -> MemoryCheckResult:
    """Probe whether l_t depends only on the last ``memory_bound`` + 1 actions.

    Samples random histories, rewrites entries strictly older than the
    claimed window, and compares losses.  A probe can only ever disprove
    the bound; passing means no witness was found in ``trials`` attempts.
    memory_bound = 0 probes obliviousness.  ``rng`` draws the histories.
    """
    window = check_int("memory_bound", memory_bound, 0) + 1
    horizon = check_int("horizon", horizon, 1)
    trials = check_int("trials", trials, 0)
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
