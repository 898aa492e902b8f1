"""Game loop, feedback buffer, regret accounting, memory probe."""

import gc
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import util
from delaybandits import adversaries as adv
from delaybandits import core
from delaybandits import learners as lrn
from delaybandits.seeding import LEARNER_STREAM, run_seed, substream


def make_config(horizon, arms=2, d=1, seed=0):
    return core.GameConfig(horizon, core.Discrete(arms), d, seed)


# ---------------------------------------------------------------------------
# action spaces


class TestDiscrete:
    def test_contains_and_comparators(self):
        space = core.Discrete(3)
        assert space.comparators() == [0, 1, 2]
        assert space.contains(0) and space.contains(2)
        assert not space.contains(3)
        assert not space.contains(-1)
        assert not space.contains(1.0)  # floats are not arm indices
        assert not space.contains(True) and not space.contains(False)  # nor bools

    def test_needs_two_arms(self):
        with pytest.raises(ValueError):
            core.Discrete(1)

    def test_sample_in_range(self):
        space = core.Discrete(4)
        rng = np.random.default_rng(0)
        draws = {space.sample(rng) for _ in range(200)}
        assert draws == {0, 1, 2, 3}


class TestConvexBall:
    def test_contains(self):
        space = core.ConvexBall(2, 1.0, [(0.0, 0.0), (0.5, 0.5)])
        assert space.contains(np.array([0.6, 0.0]))
        assert not space.contains(np.array([1.2, 0.0]))
        assert not space.contains(np.array([0.1, 0.1, 0.1]))

    @pytest.mark.parametrize("junk", ["a", [0.1, "x"], {"a": 1}, None, [None, 0.1]],
                             ids=["str", "str-in-list", "dict", "none", "none-in-list"])
    def test_junk_is_not_contained(self, junk):
        space = core.ConvexBall(2, 1.0, [(0.0, 0.0)])
        assert space.contains(junk) is False
        config = core.GameConfig(2, space, 1, 7)
        with pytest.raises(core.ActionError, match=r"^round 1: .* \(seed 7, "):
            core.run_game(config, lrn.ScriptedLearner([junk] * 2),
                          adv.ConstantLoss(0.5), adv.NoDelay())

    def test_grid_must_fit(self):
        with pytest.raises(ValueError):
            core.ConvexBall(2, 1.0, [(2.0, 0.0)])
        with pytest.raises(ValueError):
            core.ConvexBall(2, 1.0, [])

    def test_sample_stays_inside(self):
        space = core.ConvexBall(3, 0.7, [(0.0, 0.0, 0.0)])
        rng = np.random.default_rng(1)
        for _ in range(100):
            assert space.contains(space.sample(rng))


def test_game_config_validation():
    with pytest.raises(ValueError):
        make_config(0)
    with pytest.raises(ValueError):
        make_config(4, d=0)


# ---------------------------------------------------------------------------
# splits and pending feedback


class TestValidateSplit:
    def test_good_split_passes_through(self):
        s = core.LossSplit(3, (0.2, 0.3), 0.5)
        assert core.validate_split(s, 2) is s

    def test_tiny_negative_component_clamps_to_zero(self):
        s = core.LossSplit(1, (-1e-13, 0.5 + 1e-13), 0.5)
        out = core.validate_split(s, 2)
        assert out.components[0] == 0.0

    def test_real_negative_component_rejected(self):
        with pytest.raises(core.SplitError):
            core.validate_split(core.LossSplit(1, (-1e-6, 0.5), 0.5 - 1e-6), 2)

    def test_component_above_loss_rejected(self):
        with pytest.raises(core.SplitError):
            core.validate_split(core.LossSplit(1, (0.6, -0.1), 0.5), 2)

    def test_wrong_width_rejected(self):
        with pytest.raises(core.SplitError):
            core.validate_split(core.LossSplit(1, (0.5,), 0.5), 2)

    def test_sum_mismatch_rejected(self):
        with pytest.raises(core.SplitError):
            core.validate_split(core.LossSplit(1, (0.2, 0.2), 0.5), 2)

    @pytest.mark.parametrize("comps", [(math.nan, 0.5), (math.nan,)])
    def test_nan_component_rejected_with_round(self, comps):
        with pytest.raises(core.SplitError, match="round 4"):
            core.validate_split(core.LossSplit(4, comps, 0.5), len(comps))


ATOL = core.SPLIT_ATOL
#: what a perturbed component is set to; the named kinds depend on the split
PERTURBATIONS = (math.nan, -0.0, 0.0, math.inf, -math.inf, 1e308,
                 "tiny_negative", "above_cap", "jitter")


@st.composite
def adversarial_splits(draw):
    """A near-valid split of width 1..33 with up to three components
    overwritten by values at or past the edges of what validation accepts."""
    d = draw(st.integers(min_value=1, max_value=33))
    lv = draw(st.one_of(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=ATOL, exclude_max=True),
        st.sampled_from([0.0, 1.0, math.nan, math.inf, 1e308]),
    ))
    weights = draw(st.lists(st.floats(min_value=0.0, max_value=1.0),
                            min_size=d, max_size=d))
    total = math.fsum(weights)
    comps = [lv * w / total if total > 0.0 else lv / d for w in weights]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        i = draw(st.integers(min_value=0, max_value=d - 1))
        kind = draw(st.sampled_from(PERTURBATIONS))
        if kind == "tiny_negative":
            kind = draw(st.floats(min_value=-ATOL, max_value=0.0, exclude_max=True))
        elif kind == "above_cap":
            kind = math.nextafter(lv + ATOL, math.inf) + draw(
                st.floats(min_value=0.0, max_value=2 * ATOL))
        elif kind == "jitter":
            kind = comps[i] + draw(st.floats(min_value=-2 * ATOL, max_value=2 * ATOL))
        comps[i] = kind
    return d, tuple(comps), lv


def _split_outcome(check, d, comps, lv):
    try:
        out = check(core.LossSplit(9, comps, lv), d)
    except Exception as e:  # the kind and the text must both agree
        return type(e).__name__, str(e)
    return "ok", tuple(float.hex(c) for c in out.components)


@given(adversarial_splits())
@example((2, (1e308, 1e308), 0.5))       # fsum overflows; the loop says "exceeds loss"
@example((2, (1e308, 1e308), math.inf))  # both leak fsum's OverflowError
@example((2, (math.inf, -math.inf), 0.5))
@example((3, (math.nan, 0.25, 0.25), 0.5))
@example((3, (0.25, 0.25, math.nan), 0.5))
@example((2, (-0.0, 0.5), 0.5))
@example((2, (-ATOL, 0.5 + ATOL), 0.5))
@example((1, (5e-13,), 0.0))
@settings(max_examples=600, deadline=None)
def test_validate_split_matches_component_loop(case):
    d, comps, lv = case
    assert (_split_outcome(core.validate_split, d, comps, lv)
            == _split_outcome(util.reference_validate_split, d, comps, lv))


class TestPendingFeedback:
    def test_two_round_worked_example(self):
        # d=2: round 1 splits (0.2, 0.3), round 2 splits (0.4, 0.1).
        # Round 1 shows its immediate 0.2; round 2 shows 0.4 plus the
        # held-over 0.3.
        pending = [0.0]
        s1 = core.LossSplit(1, (0.2, 0.3), 0.5)
        assert core.observe_aggregate(pending, s1) == pytest.approx(0.2, abs=1e-12)
        # the pending list advances in place
        assert core.push_split(pending, s1) is None
        assert pending == [0.3]
        s2 = core.LossSplit(2, (0.4, 0.1), 0.5)
        assert core.observe_aggregate(pending, s2) == pytest.approx(0.7, abs=1e-12)

    def test_d1_buffer_is_inert(self):
        pending = []
        s = core.LossSplit(1, (0.8,), 0.8)
        assert core.observe_aggregate(pending, s) == 0.8
        core.push_split(pending, s)
        assert pending == []

    def test_push_rejects_width_mismatch(self):
        with pytest.raises(core.SplitError):
            core.push_split([0.0, 0.0], core.LossSplit(1, (0.1, 0.1), 0.2))

    @given(
        d=st.integers(min_value=1, max_value=5),
        raw=st.lists(
            st.lists(st.floats(min_value=0.0, max_value=0.2), min_size=5, max_size=5),
            min_size=1,
            max_size=30,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_conservation_against_queue_model(self, d, raw):
        # Observed totals plus what is still pending must equal everything
        # scheduled.  The oracle is a literal per-round delivery queue.
        pending = [0.0] * (d - 1)
        due = {}
        observed = []
        for t, row in enumerate(raw, start=1):
            comps = tuple(row[:d])
            split = core.LossSplit(t, comps, math.fsum(comps))
            for s, c in enumerate(comps):
                due[t + s] = due.get(t + s, 0.0) + c
            obs = core.observe_aggregate(pending, split)
            assert obs == pytest.approx(due.get(t, 0.0), abs=1e-9)
            observed.append(obs)
            core.push_split(pending, split)
        total_in = math.fsum(math.fsum(row[:d]) for row in raw)
        leftover = math.fsum(pending)
        assert math.fsum(observed) + leftover == pytest.approx(total_in, abs=1e-9)


# ---------------------------------------------------------------------------
# the engine


class SpyLoss:
    """Checks the engine honors the history-prefix calling convention."""

    def __init__(self):
        self.calls = []

    def loss(self, t, actions):
        assert len(actions) >= t, "history must cover round t"
        self.calls.append((t, actions[t - 1]))
        return 0.5


class SpyLearner:
    def __init__(self):
        self.order = []

    def act(self, t):
        self.order.append(("act", t))
        return 0

    def observe(self, t, action, observed):
        self.order.append(("observe", t, action, observed))


def test_engine_calls_in_causal_order():
    spy_loss = SpyLoss()
    spy = SpyLearner()
    tr = core.run_game(make_config(4, d=1), spy, spy_loss, adv.NoDelay())
    assert [c for c in spy.order if c[0] == "act"] == [("act", t) for t in (1, 2, 3, 4)]
    assert spy.order[0] == ("act", 1)
    assert spy.order[1] == ("observe", 1, 0, 0.5)
    assert spy_loss.calls == [(t, 0) for t in (1, 2, 3, 4)]
    assert tr.true_losses == (0.5,) * 4


def test_engine_rejects_bad_action():
    class Rogue:
        def act(self, t):
            return 7

        def observe(self, t, action, observed):
            pass

    with pytest.raises(core.ActionError):
        core.run_game(make_config(2), Rogue(), adv.ConstantLoss(0.5), adv.NoDelay())
    with pytest.raises(core.ActionError, match="round 1"):
        core.run_game(make_config(1), lrn.ScriptedLearner([True]),
                      adv.ConstantLoss(0.5), adv.NoDelay())


def test_engine_pauses_cyclic_gc_only_while_playing():
    seen = []

    class GcSpy(SpyLearner):
        def act(self, t):
            seen.append(gc.isenabled())
            return 0

    assert gc.isenabled()
    core.run_game(make_config(3), GcSpy(), adv.ConstantLoss(0.5), adv.NoDelay())
    assert seen == [False] * 3 and gc.isenabled()

    # restored when a round raises, and left off when the caller had it off
    class Rogue(GcSpy):
        def act(self, t):
            return 7

    with pytest.raises(core.ActionError):
        core.run_game(make_config(2), Rogue(), adv.ConstantLoss(0.5), adv.NoDelay())
    assert gc.isenabled()
    gc.disable()
    try:
        core.run_game(make_config(2), GcSpy(), adv.ConstantLoss(0.5), adv.NoDelay())
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_engine_rejects_out_of_range_loss():
    class Hot:
        def loss(self, t, actions):
            return 1.5

    with pytest.raises(core.LossRangeError):
        core.run_game(
            make_config(2), lrn.ScriptedLearner([0, 0]), Hot(), adv.NoDelay()
        )


def test_engine_rejects_span_mismatch():
    with pytest.raises(core.SplitError):
        core.run_game(
            make_config(2, d=1),
            lrn.ScriptedLearner([0, 0]),
            adv.ConstantLoss(0.5),
            adv.ParityDelay(),
        )


def test_engine_rejects_bad_split():
    class Cheat:
        delay_span = 2

        def split(self, t, actions, loss_value):
            return (loss_value, loss_value)

    # the error names the round, the seed and the pairing
    with pytest.raises(core.SplitError,
                       match=r"^round 1: .* \(seed 7, ConstantLoss\+Cheat\)$"):
        core.run_game(
            make_config(2, d=2, seed=7),
            lrn.ScriptedLearner([0, 0]),
            adv.ConstantLoss(0.5),
            Cheat(),
        )


class ScriptedLoss:
    """Loss adversary returning ``values[t - 1]`` unchecked in round t."""

    def __init__(self, values):
        self.values = values

    def loss(self, t, actions):
        return self.values[t - 1]


class Forged:
    """Delay adversary returning whatever ``make(t, loss_value)`` builds."""

    def __init__(self, delay_span, make):
        self.delay_span = delay_span
        self.make = make

    def split(self, t, actions, loss_value):
        return self.make(t, loss_value)


@pytest.mark.parametrize("loss, d, make, error", [
    (adv.ConstantLoss(0.5), 1, lambda t, lv: core.LossSplit(t + 5, (0.0,), 0.0),
     core.SplitError),
    (adv.ConstantLoss(0.5), 1, lambda t, lv: core.LossSplit(t + 5, (lv,), lv),
     core.SplitError),
    (adv.ConstantLoss(0.5), 1, lambda t, lv: (0.0,), core.SplitError),
    (adv.ConstantLoss(0.5), 2, lambda t, lv: (1e308, 1e308), core.SplitError),
    (ScriptedLoss(["0.5"] * 4), 1, lambda t, lv: (lv,), core.LossRangeError),
    (adv.ConstantLoss(0.5), 1, lambda t, lv: [lv], core.SplitError),
    (ScriptedLoss([True] * 4), 1, lambda t, lv: (lv,), core.LossRangeError),
    (ScriptedLoss([np.bool_(True)] * 4), 1, lambda t, lv: (lv,), core.LossRangeError),
    (ScriptedLoss([np.array(0.5)] * 4), 1, lambda t, lv: (0.5,), core.LossRangeError),
    (ScriptedLoss([np.array([0.5])] * 4), 1, lambda t, lv: (0.5,), core.LossRangeError),
], ids=["other-round-and-loss", "other-round", "other-loss", "overflow", "str-loss",
        "plain-tuple", "bool-loss", "numpy-bool-loss", "0d-array-loss", "1-element-array-loss"])
def test_engine_rejects_split_not_of_its_round_and_loss(loss, d, make, error):
    pairing = rf"{type(loss).__name__}\+Forged"
    with pytest.raises(error, match=rf"^round 1: .* \(seed 7, {pairing}\)$"):
        core.run_game(
            make_config(4, d=d, seed=7), lrn.ScriptedLearner([0] * 4), loss, Forged(d, make)
        )


@pytest.mark.parametrize("comps", [("a", 0.5), (None, 0.5), ("a",)], ids=["str", "none", "d1"])
def test_engine_rejects_non_number_components(comps):
    d = len(comps)
    with pytest.raises(core.SplitError, match=r"^round 1: component 0 \(.*\) is not a number "
                                              r"\(seed 7, ConstantLoss\+Forged\)$"):
        core.run_game(make_config(4, d=d, seed=7), lrn.ScriptedLearner([0] * 4),
                      adv.ConstantLoss(0.5), Forged(d, lambda t, lv: comps))


def test_engine_keeps_numpy_float_losses():
    for value in (np.float64(0.25), np.float32(0.5)):
        tr = core.run_game(make_config(3), lrn.ScriptedLearner([0] * 3),
                           ScriptedLoss([value] * 3), adv.NoDelay())
        assert tr.true_losses == (value,) * 3


#: junk a learner, a loss or a split component might hand the engine
JUNK = (math.nan, math.inf, -math.inf, "a", None, True, False, [0, 1], (),
        np.float64(0.5), np.float32(0.25), np.int64(1), np.bool_(True), np.float64(math.nan))
#: junk only a loss hands the engine: arrays that compare like a number
JUNK_LOSSES = JUNK + (np.array(0.5), np.array([0.5]))
DISCRETE = core.Discrete(2)
BALL = core.ConvexBall(2, 1.0, [(0.0, 0.0)])
VALID_ACTIONS = {DISCRETE: (0, 1, np.int64(1)), BALL: ([0.1, 0.2], np.zeros(2), (0.5, -0.5))}
SPLIT_KINDS = ("valid", "list", "LossSplit", "narrow", "wide", "junk-component")


class JunkDelay:
    """Returns, per round, a split of the kind scripted for that round."""

    def __init__(self, delay_span, kinds, junk):
        self.delay_span = delay_span
        self.kinds = kinds
        self.junk = junk

    def split(self, t, actions, loss_value):
        kind = self.kinds[t - 1]
        comps = (0.0,) * (self.delay_span - 1) + (loss_value,)
        if kind == "list":
            return list(comps)
        if kind == "LossSplit":
            return core.LossSplit(t, comps, loss_value)
        if kind == "narrow":
            return comps[1:]
        if kind == "wide":
            return comps + (0.0,)
        if kind == "junk-component":
            return (self.junk[t - 1],) + comps[1:]
        return comps


@st.composite
def junk_games(draw):
    horizon = draw(st.integers(min_value=1, max_value=6))
    space = draw(st.sampled_from([DISCRETE, BALL]))
    d = draw(st.integers(min_value=1, max_value=3))

    def per_round(values):
        return draw(st.lists(values, min_size=horizon, max_size=horizon))

    junk = st.sampled_from(JUNK)
    actions = per_round(st.one_of(st.sampled_from(VALID_ACTIONS[space]), junk))
    losses = per_round(st.one_of(st.floats(min_value=0.0, max_value=1.0),
                                 st.sampled_from(JUNK_LOSSES)))
    kinds = per_round(st.sampled_from(SPLIT_KINDS))
    return space, d, actions, losses, kinds, per_round(junk)


@given(junk_games())
@example((DISCRETE, 1, [0], [np.array(0.5)], ["valid"], [0.0]))
@example((BALL, 2, [np.zeros(2)], [np.array([0.5])], ["valid"], [0.0]))
@settings(max_examples=300, deadline=None)
def test_engine_raises_only_typed_errors_on_junk(game):
    space, d, actions, losses, kinds, junk = game
    config = core.GameConfig(len(actions), space, d, 7)
    try:
        tr = core.run_game(config, lrn.ScriptedLearner(actions), ScriptedLoss(losses),
                           JunkDelay(d, kinds, junk))
    except core.SimulationError as e:
        assert str(e).endswith(" (seed 7, ScriptedLoss+JunkDelay)"), str(e)
        return
    assert not any(type(lv) in (bool, np.bool_, np.ndarray) for lv in tr.true_losses)
    assert all(type(c) is tuple and len(c) == d for c in tr.components)


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_unobserved_mass_bounded_by_span(d):
    horizon = 200
    seed = run_seed(2, d)
    loss = adv.TableLoss.from_seed(3, horizon, seed)
    delay = adv.SeededSplitDelay(d, horizon, seed)
    learner = lrn.UniformRandomLearner(3, substream(seed, LEARNER_STREAM))
    tr = core.run_game(make_config(horizon, arms=3, d=d, seed=seed), learner, loss, delay)
    gap = math.fsum(tr.true_losses) - math.fsum(tr.observed)
    assert -1e-9 <= gap <= d - 1 + 1e-9
    # and the gap is exactly the mass still sitting in the pipeline
    tail = math.fsum(
        tr.components[t - 1][s]
        for t in range(1, horizon + 1)
        for s in range(d)
        if t + s > horizon
    )
    assert gap == pytest.approx(tail, abs=1e-9)


# ---------------------------------------------------------------------------
# regret accounting


def test_policy_regret_matches_naive_oracle_on_tables():
    horizon = 40
    for rep in range(5):
        seed = run_seed(3, rep)
        loss = adv.TableLoss.from_seed(3, horizon, seed)
        learner = lrn.UniformRandomLearner(3, substream(seed, LEARNER_STREAM))
        tr = core.run_game(make_config(horizon, arms=3, seed=seed), learner, loss, adv.NoDelay())
        report = core.policy_regret(tr, loss)
        naive = util.naive_constant_regret(loss, tr.actions, [0, 1, 2])
        assert report.policy_regret == pytest.approx(naive, abs=1e-9)
        naive_pseudo = util.naive_one_swap_regret(loss, tr.actions, [0, 1, 2])
        assert report.pseudo_regret == pytest.approx(naive_pseudo, abs=1e-9)


def test_pseudo_equals_policy_for_memoryless_losses():
    # when l_t ignores everything but the round-t action, one-swap and
    # constant-sequence comparators price out identically
    horizon = 64
    seed = run_seed(4, 0)
    loss = adv.TableLoss.from_seed(2, horizon, seed)
    learner = lrn.UniformRandomLearner(2, substream(seed, LEARNER_STREAM))
    tr = core.run_game(make_config(horizon, seed=seed), learner, loss, adv.NoDelay())
    report = core.policy_regret(tr, loss)
    assert report.pseudo_regret == pytest.approx(report.policy_regret, abs=1e-12)


def test_tie_break_prefers_lowest_comparator():
    table = [[0.3, 0.3], [0.6, 0.6]]
    loss = adv.TableLoss(table)
    tr = core.run_game(make_config(2), lrn.ScriptedLearner([1, 1]), loss, adv.NoDelay())
    report = core.policy_regret(tr, loss)
    assert report.best_comparator == 0


def test_replay_drift_detected():
    class Flaky:
        def __init__(self):
            self.first = True

        def loss(self, t, actions):
            if self.first and t == 3:
                self.first = False
                return 0.25
            return 0.5

    flaky = Flaky()
    tr = core.run_game(make_config(4), lrn.ScriptedLearner([0] * 4), flaky, adv.NoDelay())
    with pytest.raises(core.ReplayError, match=r"round 3: replayed loss 0\.5 != recorded 0\.25"):
        core.policy_regret(tr, flaky)


class CountingLoss:
    """Counts the loss calls made through it."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def loss(self, t, actions):
        self.calls += 1
        return self.inner.loss(t, actions)


@pytest.mark.parametrize("arms", [2, 3])
def test_regret_replay_calls_loss_2k_plus_1_times_per_round(arms):
    # one realized replay, then K constant and K one-swap comparators
    horizon = 50
    seed = run_seed(5, arms)
    counting = CountingLoss(adv.TableLoss.from_seed(arms, horizon, seed))
    learner = lrn.UniformRandomLearner(arms, substream(seed, LEARNER_STREAM))
    tr = core.run_game(make_config(horizon, arms=arms, seed=seed), learner, counting,
                       adv.NoDelay())
    counting.calls = 0
    core.policy_regret(tr, counting)
    assert counting.calls == (2 * arms + 1) * horizon


def _gapwalk_case():
    loss = adv.GapWalkLoss(adv.MultiScaleWalk(0.2, 300, master_seed=3), 3, best_arm=2, gap=0.1)
    return loss, adv.DelayStateMachine(loss), 3


REPLAY_CASES = {
    "lagged": lambda: (adv.LaggedLoss(2), adv.NoDelay(), 2),
    "paritytrap": lambda: (adv.ParityTrapLoss(1), adv.ParityDelay(), 2),
    "gapwalk": _gapwalk_case,
}


@pytest.mark.parametrize("name", sorted(REPLAY_CASES))
def test_regret_replay_equals_swap_and_restore_oracle(name):
    loss, delay, arms = REPLAY_CASES[name]()
    horizon = 300
    seed = run_seed(6, arms)
    learner = lrn.UniformRandomLearner(arms, substream(seed, LEARNER_STREAM))
    config = make_config(horizon, arms=arms, d=delay.delay_span, seed=seed)
    tr = core.run_game(config, learner, loss, delay)
    policy, pseudo = util.swap_and_restore_regret(loss, tr.actions, list(range(arms)))
    report = core.policy_regret(tr, loss)
    assert report.policy_regret == policy
    assert report.pseudo_regret == pseudo
    assert core.pseudo_regret(tr, loss) == pseudo


def test_parity_trap_all_sequences_at_t4():
    # every deterministic policy: policy regret exactly zero, pseudo regret
    # counts odd-round mistakes
    for best in (0, 1):
        loss = adv.ParityTrapLoss(best)
        for seq in util.exhaustive_action_sequences(4):
            tr = core.run_game(
                make_config(4, d=2), lrn.ScriptedLearner(seq), loss, adv.ParityDelay()
            )
            report = core.policy_regret(tr, loss)
            assert report.policy_regret == 0.0
            mistakes = sum(1 for t in (1, 3) if seq[t - 1] != best)
            assert report.pseudo_regret == float(mistakes)


def test_empty_comparators_rejected():
    loss = adv.ConstantLoss(0.5)
    tr = core.run_game(make_config(2), lrn.ScriptedLearner([0, 0]), loss, adv.NoDelay())
    with pytest.raises(ValueError):
        core.policy_regret(tr, loss, comparators=[])


# ---------------------------------------------------------------------------
# bounded-memory probe


def test_memoryless_loss_passes_probe():
    loss = adv.TableLoss.from_seed(3, 50, 9)
    res = core.check_bounded_memory(
        loss, 0, action_space=core.Discrete(3), horizon=50,
        rng=np.random.default_rng(0),
    )
    assert res.passed and res.trials == 200 and res.witness is None


def test_lagged_loss_fails_tight_claim_with_witness():
    loss = adv.LaggedLoss(lag=2)
    res = core.check_bounded_memory(
        loss, 1, action_space=core.Discrete(2), horizon=60,
        rng=np.random.default_rng(1),
    )
    assert not res.passed
    t, hist, perturbed, base, other = res.witness
    assert base != other
    assert loss.loss(t, list(hist)) == base
    assert loss.loss(t, list(perturbed)) == other
    # the two histories agree inside the claimed window
    assert hist[t - 2 :] == perturbed[t - 2 :]


def test_lagged_loss_passes_correct_claim():
    loss = adv.LaggedLoss(lag=2)
    res = core.check_bounded_memory(
        loss, 2, action_space=core.Discrete(2), horizon=60,
        rng=np.random.default_rng(2),
    )
    assert res.passed


@given(
    lag=st.integers(min_value=1, max_value=4),
    memory_bound=st.integers(min_value=0, max_value=6),
    arms=st.integers(min_value=2, max_value=3),
    seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_probe_flags_lagged_loss_exactly_when_window_is_short(lag, memory_bound, arms, seed):
    horizon = 24
    loss = adv.LaggedLoss(lag)
    res = core.check_bounded_memory(
        loss, memory_bound, action_space=core.Discrete(arms), horizon=horizon,
        rng=np.random.default_rng(seed),
    )
    if memory_bound >= lag:
        assert res.passed and res.witness is None
        return
    assert not res.passed
    t, hist, perturbed, base, other = res.witness
    assert base != other
    assert loss.loss(t, list(hist)) == base
    assert loss.loss(t, list(perturbed)) == other
    # the last memory_bound + 1 actions, the claimed window, agree
    assert hist[t - 1 - memory_bound:] == perturbed[t - 1 - memory_bound:]


def test_parity_trap_is_one_bounded():
    for best in (0, 1):
        loss = adv.ParityTrapLoss(best)
        res = core.check_bounded_memory(
            loss, 1, action_space=core.Discrete(2), horizon=40,
            rng=np.random.default_rng(3),
        )
        assert res.passed
        res0 = core.check_bounded_memory(
            loss, 0, action_space=core.Discrete(2), horizon=40,
            rng=np.random.default_rng(4),
        )
        assert not res0.passed  # even rounds read the previous action


def test_short_horizon_probe_is_trivial():
    res = core.check_bounded_memory(
        adv.ConstantLoss(), 5, action_space=core.Discrete(2), horizon=4
    )
    assert res.passed and res.trials == 0
