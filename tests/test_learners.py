"""Exponential weights, batch sizing, the mini-batch wrapper, and the
one-point gradient learner."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaybandits import adversaries as adv
from delaybandits import core
from delaybandits import learners as lrn
from delaybandits.seeding import LEARNER_STREAM, run_seed, substream


class FixedRng:
    """Stub generator yielding a scripted stream of uniforms."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


# ---------------------------------------------------------------------------
# exponential weights


def test_exp3_init_learning_rate():
    learner = lrn.Exp3Learner(4, 1000, FixedRng([]))
    assert learner.learning_rate == pytest.approx(
        math.sqrt(2 * math.log(4) / (1000 * 4)), rel=1e-15
    )
    assert learner.probs == [0.25] * 4
    assert learner.cum_loss_est == [0.0] * 4


def test_exp3_init_validation():
    with pytest.raises(ValueError):
        lrn.Exp3Learner(1, 10, FixedRng([]))
    with pytest.raises(ValueError):
        lrn.Exp3Learner(2, 0, FixedRng([]))


def test_exp3_act_inverse_cdf():
    learner = lrn.Exp3Learner(2, 100, FixedRng([0.3, 0.7]))
    assert (learner.act(1), learner.pending_prob) == (0, 0.5)
    assert (learner.act(2), learner.pending_prob) == (1, 0.5)


def test_exp3_single_update_softmax_arithmetic():
    learner = lrn.Exp3Learner(2, 100, FixedRng([0.3]))
    eta = learner.learning_rate
    learner.observe(1, learner.act(1), 0.5)  # arm 0 at probability 0.5
    assert learner.cum_loss_est == [1.0, 0.0]
    w0 = math.exp(-eta)
    z = w0 + 1.0
    assert learner.probs[0] == pytest.approx(w0 / z, rel=1e-15)
    assert learner.probs[1] == pytest.approx(1.0 / z, rel=1e-15)


def test_exp3_update_validation():
    learner = lrn.Exp3Learner(2, 100, FixedRng([0.3]))
    learner.act(1)
    for bad in (-0.5, math.nan):
        with pytest.raises(ValueError):
            learner.observe(1, 0, bad)
    with pytest.raises(ValueError):
        learner.observe(1, 5, 0.5)
    # a rejected observation leaves the learner as it was
    assert learner.cum_loss_est == [0.0, 0.0] and learner.probs == [0.5, 0.5]


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2),
            st.floats(min_value=0.0, max_value=1.0),
            st.floats(min_value=0.01, max_value=1.0),
        ),
        max_size=60,
    )
)
@settings(max_examples=100, deadline=None)
def test_exp3_distribution_stays_strictly_positive(updates):
    learner = lrn.Exp3Learner(3, 50, FixedRng([]))
    for t, (arm, loss, prob) in enumerate(updates, 1):
        # stand in for act() with any probability down to 0.01, so the
        # importance weights reach 1/0.01 whatever the distribution is
        learner.pending_prob = prob
        learner.observe(t, arm, loss)
    assert all(p > 0.0 for p in learner.probs)
    assert math.fsum(learner.probs) == pytest.approx(1.0, abs=1e-12)


def test_exp3_learner_protocol_discipline():
    learner = lrn.Exp3Learner(2, 10, np.random.default_rng(0))
    with pytest.raises(RuntimeError):
        learner.observe(1, 0, 0.5)
    a = learner.act(1)
    learner.observe(1, a, 0.5)  # now legal


def test_exp3_clips_composite_observations_to_one():
    # an aggregate of components from d = 3 rounds can exceed 1; the
    # learner updates as if it had seen exactly 1
    clipped, exact = (lrn.Exp3Learner(2, 10, np.random.default_rng(0)) for _ in range(2))
    for learner, obs in ((clipped, 1.5), (exact, 1.0)):
        learner.observe(1, learner.act(1), obs)
    assert clipped.probs == exact.probs
    assert clipped.cum_loss_est == exact.cum_loss_est

    horizon, k, d = 1000, 3, 3
    for seed in (0, 1, 2):
        config = core.GameConfig(horizon, core.Discrete(k), d, seed)
        tr = core.run_game(
            config, lrn.Exp3Learner(k, horizon, substream(seed, LEARNER_STREAM)),
            adv.TableLoss.from_seed(k, horizon, seed), adv.SeededSplitDelay(d, horizon, seed),
        )
        assert len(tr.actions) == horizon and max(tr.observed) > 1.0


def test_exp3_prefers_better_arm():
    rng = np.random.default_rng(5)
    learner = lrn.Exp3Learner(2, 2000, rng)
    for t in range(1, 2001):
        a = learner.act(t)
        learner.observe(t, a, 0.1 if a == 1 else 0.9)
    assert learner.probs[1] > 0.9


# ---------------------------------------------------------------------------
# batch sizing


def smallest_cube(numerator, denominator):
    c = 1
    while c ** 3 * denominator < numerator:
        c += 1
    return c


def test_choose_tau_frozen_values():
    assert lrn.choose_tau(10 ** 6, 8) == 50
    assert lrn.choose_tau(8, 8, delay_guess=5) == 6
    assert lrn.choose_tau(100, 2) == 4
    assert lrn.choose_tau(1, 2) == 1


def test_choose_tau_floors():
    assert lrn.choose_tau(100, 2, memory_bound=9) == 10
    assert lrn.choose_tau(100, 2, delay_guess=3, memory_bound=1) == 4


def test_choose_tau_exact_integer_arithmetic():
    # brute-force the smallest cube on a span of awkward sizes
    for horizon in [1, 2, 7, 26, 27, 28, 63, 64, 65, 342, 343, 344, 9261]:
        for k in (2, 3, 7):
            assert lrn.choose_tau(horizon, k) == max(1, smallest_cube(horizon, k))
    # sizes where float cube roots go wrong by an ulp
    big = 10 ** 5
    assert lrn.choose_tau(big ** 3 * 2, 2) == big
    assert lrn.choose_tau(big ** 3 * 2 + 1, 2) == big + 1


def test_choose_tau_validation():
    with pytest.raises(ValueError):
        lrn.choose_tau(0, 2)
    with pytest.raises(ValueError):
        lrn.choose_tau(10, 1)
    with pytest.raises(ValueError):
        lrn.choose_tau(10, 2, delay_guess=-1)


def test_choose_tau_bco_values():
    assert lrn.choose_tau_bco(10 ** 3, 2) == 1  # clamp at 1
    assert lrn.choose_tau_bco(10 ** 6, 2) == smallest_cube(10 ** 6, 2 ** 19)
    assert lrn.choose_tau_bco(10, 2, delay_guess=4) == 5


# ---------------------------------------------------------------------------
# mini-batch wrapper


class RecordingInner:
    """Scripted inner learner that logs every protocol call."""

    def __init__(self, actions):
        self.actions = list(actions)
        self.acts = []
        self.feedback = []

    def act(self, t):
        self.acts.append(t)
        return self.actions[len(self.acts) - 1]

    def observe(self, t, action, observed):
        self.feedback.append((t, action, observed))


def test_wrapper_feeds_clipped_block_average():
    inner = RecordingInner([7, 8])
    w = lrn.MiniBatchWrapper(inner, 3, 6)
    for t, obs in zip(range(1, 4), (1.0, 1.0, 0.9)):
        assert w.act(t) == 7
        w.observe(t, 7, obs)
    assert inner.feedback == [(1, 7, pytest.approx((1.0 + 1.0 + 0.9) / 3, abs=1e-15))]
    # a block averaging above 1 is clipped to 1
    for t, obs in zip(range(4, 7), (1.0, 1.3, 1.2)):
        assert w.act(t) == 8
        w.observe(t, 8, obs)
    assert inner.feedback[1] == (2, 8, 1.0)
    assert inner.acts == [1, 2]


def test_wrapper_leftover_rounds_repeat_without_feedback():
    inner = RecordingInner([4, 5, 6])
    w = lrn.MiniBatchWrapper(inner, 4, 10)
    played = []
    for t in range(1, 11):
        a = w.act(t)
        played.append(a)
        w.observe(t, a, 0.5)
    assert played == [4] * 4 + [5] * 4 + [5] * 2  # final batch action repeats
    assert inner.acts == [1, 2]
    assert len(inner.feedback) == 2  # leftovers never reach the inner learner


def test_wrapper_horizon_shorter_than_batch():
    inner = RecordingInner([3])
    w = lrn.MiniBatchWrapper(inner, 5, 3)
    played = [w.act(t) for t in range(1, 4)]
    for t in range(1, 4):
        w.observe(t, 3, 0.5)
    assert played == [3, 3, 3]
    assert inner.acts == [1]
    assert inner.feedback == []


def test_wrapper_validation():
    with pytest.raises(ValueError):
        lrn.MiniBatchWrapper(RecordingInner([0]), 0, 10)
    with pytest.raises(ValueError):
        lrn.MiniBatchWrapper(RecordingInner([0]), 1, 0)


def test_wrapper_batch_one_is_bit_exact_identity():
    horizon = 400
    master = run_seed(8, 0)
    loss = adv.TableLoss.from_seed(3, horizon, master)
    cfg = core.GameConfig(horizon, core.Discrete(3), 1, master)
    raw = core.run_game(
        cfg, lrn.Exp3Learner(3, horizon, substream(master, LEARNER_STREAM)),
        loss, adv.NoDelay(),
    )
    wrapped_learner = lrn.MiniBatchWrapper(
        lrn.Exp3Learner(3, horizon, substream(master, LEARNER_STREAM)), 1, horizon
    )
    wrapped = core.run_game(cfg, wrapped_learner, loss, adv.NoDelay())
    assert raw.actions == wrapped.actions
    assert raw.observed == wrapped.observed
    assert raw.true_losses == wrapped.true_losses


def test_wrapped_exp3_sees_only_batch_count_rounds():
    horizon, tau = 64, 8
    master = run_seed(8, 1)
    loss = adv.TableLoss.from_seed(2, horizon, master)
    inner = lrn.Exp3Learner(2, horizon // tau, substream(master, LEARNER_STREAM))
    w = lrn.MiniBatchWrapper(inner, tau, horizon)
    cfg = core.GameConfig(horizon, core.Discrete(2), 1, master)
    core.run_game(cfg, w, loss, adv.NoDelay())
    assert w.completed_batches == horizon // tau


# ---------------------------------------------------------------------------
# one-point gradient learner


def test_fkm_init_default_schedules():
    s = lrn.FkmLearner(3, 2.0, 10 ** 4, FixedRng([]))
    assert s.exploration == pytest.approx(2.0 * (10 ** 4) ** -0.25, rel=1e-15)
    assert s.step_size == pytest.approx((4.0 / 3) * (10 ** 4) ** -0.75, rel=1e-15)
    tiny = lrn.FkmLearner(2, 1.0, 2, FixedRng([]))  # exploration clamps at radius / 2
    assert tiny.exploration == 0.5


def test_fkm_init_validation():
    with pytest.raises(ValueError):
        lrn.FkmLearner(0, 1.0, 10, FixedRng([]))
    with pytest.raises(ValueError):
        lrn.FkmLearner(2, 0.0, 10, FixedRng([]))
    with pytest.raises(ValueError):
        lrn.FkmLearner(2, 1.0, 10, FixedRng([]), exploration=1.5)


def test_fkm_act_probes_at_exploration_radius():
    s = lrn.FkmLearner(4, 1.0, 100, np.random.default_rng(0))
    for t in range(1, 21):
        x = s.act(t)
        assert np.linalg.norm(x - s.point) == pytest.approx(s.exploration, rel=1e-12)
        assert np.linalg.norm(s.pending_direction) == pytest.approx(1.0, rel=1e-12)
        s.pending_direction = None


def test_fkm_update_descends_and_projects():
    s = lrn.FkmLearner(2, 1.0, 100, FixedRng([]), exploration=0.1, step_size=0.5)
    s.pending_direction = np.array([1.0, 0.0])
    s.observe(1, None, 0.8)
    # step = step_size * (dim / exploration) * loss = 0.5 * 20 * 0.8 = 8,
    # then projected back to the shrunken ball of radius 0.9
    assert np.linalg.norm(s.point) == pytest.approx(0.9, rel=1e-12)
    assert s.point[0] == pytest.approx(-0.9, rel=1e-12)
    with pytest.raises(RuntimeError):
        s.observe(2, None, 0.5)  # no pending direction


def test_fkm_clips_composite_observations_to_one():
    # as for EXP3: an update with 1.5 is an update with 1.0
    clipped, exact = (lrn.FkmLearner(2, 1.0, 100, np.random.default_rng(0)) for _ in range(2))
    for learner, obs in ((clipped, 1.5), (exact, 1.0)):
        learner.observe(1, learner.act(1), obs)
    assert np.array_equal(clipped.point, exact.point)
    for bad in (-0.5, math.nan):
        clipped.act(2)
        with pytest.raises(ValueError):
            clipped.observe(2, None, bad)

    # a constant loss of 1 split over d = 3 rounds aggregates above 1
    horizon, d = 50, 3
    space = core.ConvexBall(2, 1.0, [(0.0, 0.0)])
    config = core.GameConfig(horizon, space, d, 1)
    tr = core.run_game(
        config, lrn.FkmLearner(2, 1.0, horizon, substream(1, LEARNER_STREAM)),
        adv.ConstantLoss(1.0), adv.SeededSplitDelay(d, horizon, 1),
    )
    assert len(tr.actions) == horizon and max(tr.observed) > 1.0


def test_fkm_gradient_estimate_is_unbiased_for_linear_loss():
    rng = np.random.default_rng(0)
    dim, delta = 3, 0.2
    slope = np.array([0.2, -0.15, 0.1])
    s = lrn.FkmLearner(dim, 1.0, 100, rng, exploration=delta)
    s.point = np.array([0.1, 0.0, -0.1])
    n = 20000
    acc = np.zeros(dim)
    for t in range(1, n + 1):
        probe = s.act(t)
        f = 0.5 + float(slope @ probe)
        acc += (dim / delta) * f * s.pending_direction
        s.pending_direction = None
    est = acc / n
    assert np.abs(est - slope).max() < 0.05


class QuadLoss:
    """Memoryless convex loss, distance squared to a target, capped at 1."""

    def __init__(self, target):
        self.target = np.asarray(target, dtype=float)

    def loss(self, t, actions):
        d = np.asarray(actions[t - 1], dtype=float) - self.target
        v = float(d @ d)
        return v if v < 1.0 else 1.0


def test_fkm_quadratic_converges_to_grid_minimum():
    horizon = 10 ** 5
    grid = [(0.0, 0.0), (0.3, -0.2), (0.5, 0.0), (-0.5, 0.0),
            (0.0, 0.5), (0.0, -0.5), (0.25, 0.25)]
    space = core.ConvexBall(2, 1.0, grid)
    loss = QuadLoss((0.3, -0.2))
    master = run_seed(50, 0)
    cfg = core.GameConfig(horizon, space, 1, master)
    learner = lrn.FkmLearner(2, 1.0, horizon, substream(master, LEARNER_STREAM))
    tr = core.run_game(cfg, learner, loss, adv.NoDelay())
    # memoryless loss: the best constant grid point costs the same every round
    grid_min = min(loss.loss(1, [np.asarray(y)]) for y in grid)
    avg = tr.realized_total / horizon
    assert avg - grid_min < 0.1
    assert all(space.contains(np.asarray(a)) for a in tr.actions[:100])


# ---------------------------------------------------------------------------
# baseline learners


def test_uniform_learner_is_seed_deterministic():
    a = lrn.UniformRandomLearner(3, substream(9, LEARNER_STREAM))
    b = lrn.UniformRandomLearner(3, substream(9, LEARNER_STREAM))
    seq_a = [a.act(t) for t in range(1, 10001)]  # crosses a block boundary
    seq_b = [b.act(t) for t in range(1, 10001)]
    assert seq_a == seq_b
    assert set(seq_a) == {0, 1, 2}


def test_scripted_learner_indexes_by_round():
    s = lrn.ScriptedLearner([5, 6, 7])
    assert [s.act(1), s.act(2), s.act(3)] == [5, 6, 7]
