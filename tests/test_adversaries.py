"""Loss and delay constructions: dyadic walk, masking machine, parity trap."""

import math
import re
import warnings
from decimal import Decimal, getcontext
from itertools import product
from operator import ne

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import util
from delaybandits import adversaries as adv
from delaybandits import checks, cli, core
from delaybandits import learners as lrn
from delaybandits.seeding import LEARNER_STREAM, LOSS_TABLE_STREAM, WALK_STREAM, run_seed, substream


# ---------------------------------------------------------------------------
# parent rule and width


def test_parent_rule_values():
    assert adv.walk_parent(1) == 0
    assert adv.walk_parent(2) == 0
    assert adv.walk_parent(3) == 2
    assert adv.walk_parent(4) == 0
    assert adv.walk_parent(12) == 8
    assert adv.walk_parent(2 ** 20) == 0


@given(st.integers(min_value=1, max_value=2 ** 20))
def test_parent_is_proper_and_chains_to_zero(t):
    p = adv.walk_parent(t)
    assert 0 <= p < t
    hops = 0
    while t:
        t = adv.walk_parent(t)
        hops += 1
        assert hops <= 21  # at most bit_length steps


def test_width_frozen_values():
    assert adv.width(adv.walk_parent, 1) == 0
    assert adv.width(adv.walk_parent, 8) == 3


def test_width_matches_brute_force():
    for horizon in range(1, 65):
        assert adv.width(adv.walk_parent, horizon) == checks.brute_force_width(
            adv.walk_parent, horizon
        )


def test_width_log_bound():
    for p in range(0, 13):
        horizon = 2 ** p
        assert adv.width(adv.walk_parent, horizon) <= p + 1


def test_width_accepts_plain_callables():
    assert adv.width(lambda s: s - 1, 10) == 1  # chain rule: one round in flight


def test_width_rejects_improper_rules():
    with pytest.raises(ValueError):
        adv.width(lambda s: s, 4)
    with pytest.raises(ValueError):
        adv.width(lambda s: -1, 4)


# ---------------------------------------------------------------------------
# the walk


def test_walk_recurrence_with_explicit_increments():
    xi = [0.5, -0.25, 1.0, 2.0, -0.125, 0.0, 3.0, -1.0]
    w = adv.MultiScaleWalk(1.0, 8, increments=xi)
    v = w.values()
    assert v[0] == 0.0
    assert v[1] == 0.5            # parent 0
    assert v[2] == -0.25          # parent 0
    assert v[3] == -0.25 + 1.0    # parent 2
    assert v[4] == 2.0            # parent 0
    assert v[5] == 2.0 + -0.125   # parent 4
    assert v[6] == 2.0 + 0.0      # parent 4
    assert v[7] == 2.0 + 0.0 + 3.0  # parent 6
    assert v[8] == -1.0           # parent 0


def _scalar_walk(xi):
    w = [0.0] * (len(xi) + 1)
    for t in range(1, len(xi) + 1):
        w[t] = w[t - (t & -t)] + float(xi[t - 1])
    return np.array(w)


@pytest.mark.parametrize("horizon", [1, 2, 3, 1000, 2 ** 16])
def test_walk_level_fill_matches_scalar_recurrence(horizon):
    # walks are filled one dyadic level at a time; every value must equal
    # the round-by-round recurrence bit for bit, not merely approximately
    seed, sigma = 17, 0.3
    xi = substream(seed, WALK_STREAM).normal(0.0, sigma, horizon)
    walk = adv.MultiScaleWalk(sigma, horizon, master_seed=seed)
    assert np.array_equal(walk.values(), _scalar_walk(xi))

    rows = substream(seed, WALK_STREAM).normal(0.0, sigma, (2, horizon))
    m = adv.walk_value_matrix(sigma, horizon, 2, master_seed=seed)
    for i in range(2):
        assert np.array_equal(m[i], _scalar_walk(rows[i]))


def test_walk_query_order_is_irrelevant():
    a = adv.MultiScaleWalk(0.3, 100, master_seed=42)
    b = adv.MultiScaleWalk(0.3, 100, master_seed=42)
    mid = a.values()[57]
    assert b.values()[57] == mid
    assert np.array_equal(a.values(), b.values())


def test_walk_values_are_read_only():
    w = adv.MultiScaleWalk(0.1, 10, master_seed=1)
    with pytest.raises(ValueError):
        w.values()[3] = 99.0


def test_walk_rejects_bad_args():
    for sigma in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match=r"^sigma must lie in \[0\.0, inf\), got "):
            adv.MultiScaleWalk(sigma, 10)
        with pytest.raises(ValueError, match=r"^sigma must lie in \[0\.0, inf\), got "):
            adv.walk_value_matrix(sigma, 10, 2)
    with pytest.raises(ValueError, match="horizon must be >= 1"):
        adv.MultiScaleWalk(0.1, 0)
    with pytest.raises(ValueError, match="horizon must be >= 1"):
        adv.walk_value_matrix(0.1, 0, 2)
    with pytest.raises(ValueError):
        adv.MultiScaleWalk(0.1, 4, increments=[0.0, 0.0])


def test_walk_overflow_names_sigma():
    # increments of 1e308 meet in a parent sum and overflow; the walk says
    # so by naming sigma, without numpy's overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="sigma 1e\\+308 overflows the walk"):
            adv.MultiScaleWalk(1e308, 1024, master_seed=0)
        with pytest.raises(ValueError, match="overflows the walk"):
            adv.MultiScaleWalk(1.0, 3, increments=[1e308, 1e308, 1e308])
        with pytest.raises(ValueError, match="sigma 1e\\+308 overflows the walk"):
            adv.walk_value_matrix(1e308, 1024, 2)


def test_walk_matrix_rows_follow_recurrence():
    m = adv.walk_value_matrix(0.2, 32, 8, master_seed=7)
    assert m.shape == (8, 33)
    assert np.all(m[:, 0] == 0.0)
    # recompute row-wise from the same stream the function uses
    raw = substream(7, 2).normal(0.0, 0.2, (8, 32))
    for t in range(1, 33):
        assert np.allclose(m[:, t], m[:, t - (t & -t)] + raw[:, t - 1], atol=0)


def test_drift_threshold_formula_and_validation():
    got = adv.drift_threshold(0.05, 1024, 0.1)
    want = 0.05 * math.sqrt(2 * (math.log(1024) + 1) * math.log(1024 / 0.1))
    assert got == pytest.approx(want, rel=1e-15)
    for bad in [(0, 10, 0.1), (0.1, 0, 0.1), (0.1, 10, 0.0), (0.1, 10, 1.0)]:
        with pytest.raises(ValueError):
            adv.drift_threshold(*bad)


def test_drift_exceedance_small_monte_carlo():
    horizon, sigma, delta = 1024, 0.05, 0.1
    walks = adv.walk_value_matrix(sigma, horizon, 500, master_seed=11)
    thr = adv.drift_threshold(sigma, horizon, delta)
    frac = float((np.abs(walks[:, 1:]).max(axis=1) > thr).mean())
    assert frac <= delta + 0.03


# ---------------------------------------------------------------------------
# defaults


def _decimal_defaults(arm_count, horizon):
    # 50-digit arithmetic; cube roots via exp(ln(x) / 3)
    getcontext().prec = 50
    k, t = Decimal(arm_count), Decimal(horizon)
    ln_t = t.ln()
    gap = (k.ln() / 3).exp() / (64 * ln_t * (ln_t / 3).exp())
    sigma = 1 / (16 * Decimal(2).sqrt() * ln_t)
    return min(Decimal(1) / 8, gap), sigma


def test_gap_walk_defaults_match_high_precision_oracle():
    for k, t in [(2, 100), (2, 2 ** 16), (8, 10 ** 6), (5, 3)]:
        gap, sigma = adv.gap_walk_defaults(k, t)
        dgap, dsigma = _decimal_defaults(k, t)
        assert gap == pytest.approx(float(dgap), rel=1e-12)
        assert sigma == pytest.approx(float(dsigma), rel=1e-12)
        assert 0 < gap <= 0.125


def test_gap_walk_defaults_validation():
    with pytest.raises(ValueError):
        adv.gap_walk_defaults(1, 100)
    with pytest.raises(ValueError):
        adv.gap_walk_defaults(2, 2)


# ---------------------------------------------------------------------------
# gap walk loss


def zero_walk(horizon):
    return adv.MultiScaleWalk(0.0, horizon, increments=[0.0] * horizon)


def test_gap_walk_loss_hand_values():
    # flat walk, gap 0.1: hidden arm 0.65, every other arm 0.75
    loss = adv.GapWalkLoss(zero_walk(4), 3, best_arm=1, gap=0.1)
    assert loss.masked_baseline(2, True) == pytest.approx(0.65, abs=1e-15)
    assert loss.masked_baseline(2, False) == pytest.approx(0.75, abs=1e-15)
    assert loss.loss(2, [0, 1]) == pytest.approx(0.65, abs=1e-15)
    assert loss.loss(2, [1, 0]) == loss.loss(2, [1, 2]) == pytest.approx(0.75, abs=1e-15)


def test_gap_walk_loss_truncates_both_ends():
    up = adv.MultiScaleWalk(0.0, 2, increments=[5.0, -5.0])
    loss = adv.GapWalkLoss(up, 2, best_arm=0, gap=0.1)
    for low in (False, True):
        assert loss.masked_baseline(1, low) == 1.0
        assert loss.masked_baseline(2, low) == 0.5


def test_gap_walk_loss_no_hidden_arm():
    loss = adv.GapWalkLoss(zero_walk(4), 2, best_arm=None, gap=0.05)
    assert loss.loss(1, [0]) == loss.loss(1, [1]) == loss.masked_baseline(1, False) == 0.75


def _scalar_baseline(w, gap, low):
    base = w + 0.75
    if low:
        base -= gap
    return 0.5 if base < 0.5 else 1.0 if base > 1.0 else base


#: increments whose walks cross both truncation edges in both states at gap 0.1
EDGE_INCREMENTS = {1: [0.5], 3: [0.5, -0.3, 0.33]}


@pytest.mark.parametrize("horizon", [1, 3, 1000, 2 ** 16])
def test_gap_walk_tables_match_scalar_formula_bit_for_bit(horizon):
    gap = 0.1
    xi = EDGE_INCREMENTS.get(horizon)
    if xi is None:
        xi = np.random.default_rng(horizon).normal(0.0, 0.3, horizon)
    walk = adv.MultiScaleWalk(0.3, horizon, increments=xi)
    loss = adv.GapWalkLoss(walk, 3, best_arm=1, gap=gap)
    best, other = [1] * horizon, [2] * horizon
    edges = set()
    for t in range(1, horizon + 1):
        for low in (False, True):
            want = _scalar_baseline(walk.values()[t], gap, low)
            got = loss.masked_baseline(t, low)
            assert type(got) is float and got.hex() == want.hex(), (t, low)
            if want in (0.5, 1.0):
                edges.add((want, low))
        assert loss.loss(t, best).hex() == _scalar_baseline(walk.values()[t], gap, True).hex()
        assert loss.loss(t, other).hex() == _scalar_baseline(walk.values()[t], gap, False).hex()
    if horizon >= 3:
        assert edges == {(0.5, False), (0.5, True), (1.0, False), (1.0, True)}


@pytest.mark.parametrize("t", [-1, 0, 5])
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_gap_walk_loss_rejects_rounds_outside_walk(t, warm):
    loss = adv.GapWalkLoss(zero_walk(4), 2, best_arm=0, gap=0.1)
    if warm:  # tables already built
        assert loss.loss(1, [0]) == pytest.approx(0.65, abs=1e-15)
    message = f"t={t} outside 1..4"
    with pytest.raises(ValueError, match=message):
        loss.loss(t, [0] * 6)
    with pytest.raises(ValueError, match=message):
        loss.masked_baseline(t, True)


def test_gap_walk_loss_validation():
    with pytest.raises(ValueError):
        adv.GapWalkLoss(zero_walk(2), 2, best_arm=2, gap=0.1)
    with pytest.raises(ValueError):
        adv.GapWalkLoss(zero_walk(2), 2, best_arm=0, gap=0.0)
    with pytest.raises(ValueError):
        adv.GapWalkLoss(zero_walk(2), 2, best_arm=0, gap=0.2)


def test_gap_walk_from_seed_covers_all_hidden_arms():
    seen = set()
    for rep in range(200):
        loss = adv.GapWalkLoss.from_seed(2, 8, 0.05, 0.01, run_seed(0, rep))
        seen.add(loss.best_arm)
    assert seen == {None, 0, 1}


def test_switch_bound_values_and_validation():
    assert adv.switch_bound(0.1, 10) == pytest.approx(2 + 8 * 0.1 * 10 / (1 - 0.8), rel=1e-15)
    assert adv.switch_bound(0.1, 0) == 2.0
    with pytest.raises(ValueError):
        adv.switch_bound(0.125, 10)
    with pytest.raises(ValueError):
        adv.switch_bound(0.05, -1)


# ---------------------------------------------------------------------------
# masking delay machine


def run_masked(loss, actions):
    dsm = adv.DelayStateMachine(loss)
    cfg = core.GameConfig(len(actions), core.Discrete(loss.arm_count))
    tr = core.run_game(cfg, lrn.ScriptedLearner(actions), loss, dsm)
    return tr, dsm


def test_machine_first_round_switches_low_and_counts():
    loss = adv.GapWalkLoss(zero_walk(4), 2, best_arm=0, gap=0.05)
    tr, dsm = run_masked(loss, [1, 0, 0, 0])
    assert dsm.lows[0] is True
    assert dsm.switch_count >= 1
    # played the non-hidden arm: immediate is the low baseline, the extra
    # gap is held over
    assert tr.components[0] == pytest.approx((0.70, 0.05), abs=1e-12)
    assert tr.observed[0] == pytest.approx(0.70, abs=1e-12)


def test_machine_worked_example_two_rounds():
    loss = adv.GapWalkLoss(zero_walk(4), 2, best_arm=0, gap=0.05)
    tr, dsm = run_masked(loss, [1, 0, 1, 1])
    # round 2 plays the hidden arm in the low state: observed stays at the
    # low baseline and the carry is unchanged
    assert tr.observed[1] == pytest.approx(0.70, abs=1e-12)
    assert dsm.carries[1] == pytest.approx(0.05, abs=1e-12)


def test_machine_observed_equals_masked_baseline_always():
    for rep in range(15):
        master = run_seed(21, rep)
        loss = adv.GapWalkLoss.from_seed(2, 300, 0.05, 0.02, master)
        learner = lrn.UniformRandomLearner(2, substream(master, LEARNER_STREAM))
        dsm = adv.DelayStateMachine(loss)
        cfg = core.GameConfig(300, core.Discrete(2), master_seed=master)
        tr = core.run_game(cfg, learner, loss, dsm)
        for t, (low, carry, obs) in enumerate(zip(dsm.lows, dsm.carries, tr.observed), start=1):
            assert abs(obs - loss.masked_baseline(t, low)) <= 1e-12
            assert 0.0 <= carry <= 0.25 + 1e-12


def test_machine_matches_replay_oracle():
    # bit for bit: the states, the carries and each immediate component (at
    # least 1/4, so never clamped) against the replay, which prices every
    # round with masked_baseline; at K in {2, 3, 5}, with and without a
    # hidden arm
    for arm_count in (2, 3, 5):
        hidden = set()
        for rep in range(15):
            master = run_seed(22, rep)
            loss = adv.GapWalkLoss.from_seed(arm_count, 200, 0.06, 0.03, master)
            learner = lrn.UniformRandomLearner(arm_count, substream(master, LEARNER_STREAM))
            dsm = adv.DelayStateMachine(loss)
            cfg = core.GameConfig(200, core.Discrete(arm_count), master_seed=master)
            tr = core.run_game(cfg, learner, loss, dsm)
            rows = util.replay_state_machine(loss, tr.actions)
            lows, carries, immediates, _ = zip(*rows)
            assert list(lows) == dsm.lows
            assert [c.hex() for c in carries] == [c.hex() for c in dsm.carries]
            assert [i.hex() for i in immediates] == [comps[0].hex() for comps in tr.components]
            hidden.add(loss.best_arm is not None)
            # the machine's own range check says what masked_baseline says,
            # with or without a hidden arm, and a refused round moves nothing
            for t in (0, 201):
                with pytest.raises(ValueError) as baseline:
                    loss.masked_baseline(t, False)
                fresh = adv.DelayStateMachine(loss)
                for machine in (fresh, dsm):
                    before = (machine.switch_count, list(machine.lows), list(machine.carries))
                    with pytest.raises(ValueError, match=f"^{re.escape(str(baseline.value))}$"):
                        machine.split(t, [0] * 201, 0.75)
                    assert (machine.switch_count, machine.lows, machine.carries) == before
        assert hidden == {False, True}, arm_count


def test_machine_without_hidden_arm_never_moves():
    loss = adv.GapWalkLoss(zero_walk(50), 2, best_arm=None, gap=0.05)
    tr, dsm = run_masked(loss, [0, 1] * 25)
    assert dsm.switch_count == 0
    assert dsm.lows == [False] * 50 and dsm.carries == [0.0] * 50
    assert all(comps[1] == 0.0 for comps in tr.components)
    assert tr.observed == tr.true_losses


def test_machine_switch_budget_under_uniform_play():
    for rep in range(10):
        master = run_seed(23, rep)
        loss = adv.GapWalkLoss.from_seed(2, 512, 0.05, 0.01, master)
        if loss.best_arm is None:
            continue
        learner = lrn.UniformRandomLearner(2, substream(master, LEARNER_STREAM))
        dsm = adv.DelayStateMachine(loss)
        cfg = core.GameConfig(512, core.Discrete(2), master_seed=master)
        tr = core.run_game(cfg, learner, loss, dsm)
        pulls = sum(1 for a in tr.actions if a == loss.best_arm)
        assert dsm.switch_count <= adv.switch_bound(loss.gap, pulls)


def test_machine_starving_policy_freezes_after_two_switches():
    # never pulling the hidden arm: one drop at round 1, one climb once the
    # carry has been funded, then the carry pins just below the exit level;
    # the budget at 0 pulls is exactly those two free switches
    loss = adv.GapWalkLoss(zero_walk(400), 2, best_arm=0, gap=0.05)
    tr, dsm = run_masked(loss, [1] * 400)
    assert dsm.switch_count == 2 == adv.switch_bound(loss.gap, 0)
    assert dsm.lows[-1] is False
    assert dsm.carries[-1] == pytest.approx(0.25, abs=0.05)


def test_masking_run_measures_what_the_machine_recorded():
    # the machine's switch counter agrees with the switches counted from
    # its recorded states, the first-round drop included
    T, K = 512, 2
    seen = set()
    for rep in range(8):
        seed = run_seed(24, rep)
        run = checks.masking_run(T, K, seed)
        gap, sigma = adv.gap_walk_defaults(K, T)
        loss = adv.GapWalkLoss.from_seed(K, T, gap, sigma, seed)
        dsm = adv.DelayStateMachine(loss)
        learner = lrn.UniformRandomLearner(K, substream(seed, LEARNER_STREAM))
        config = core.GameConfig(T, core.Discrete(K), master_seed=seed)
        tr = core.run_game(config, learner, loss, dsm)
        assert run.best_arm == loss.best_arm and run.switches == dsm.switch_count
        assert dsm.switch_count == sum(map(ne, [False, *dsm.lows], dsm.lows))
        assert (run.carry_min, run.carry_max) == (min(dsm.carries), max(dsm.carries))
        if loss.best_arm is not None:
            assert run.pulls == tr.actions.count(loss.best_arm)
        seen.add(run.switches > 0)
    assert seen == {False, True}


@pytest.mark.parametrize("arm_count", [4, 8])
def test_wrapped_exp3_switches_within_budget_beyond_two_arms(arm_count):
    # the CLI's gapwalk + statemachine + wrapper-exp3: with more arms the
    # hidden one is pulled less, and the two free switches matter
    T = 2 ** 14
    spec = cli.ExperimentSpec("gapwalk", "statemachine", "wrapper-exp3",
                              horizons=(T,), arm_count=arm_count)
    hidden = 0
    for rep in range(12):
        tr, loss, dsm, _ = checks.play(spec, T, run_seed(0, rep))
        if loss.best_arm is None:
            continue
        hidden += 1
        pulls = tr.actions.count(loss.best_arm)
        assert dsm.switch_count <= adv.switch_bound(loss.gap, pulls), (rep, pulls)
    assert hidden >= 6


def test_machine_held_components_track_the_carry_bands():
    # low state: the hidden arm's held piece equals the previous carry and
    # the other arm overshoots by at most the gap; mirrored in high state
    T, K = 400, 2
    gap, sigma = adv.gap_walk_defaults(K, T)
    checked = 0
    for rep in range(10):
        seed = run_seed(21, rep)
        loss = adv.GapWalkLoss.from_seed(K, T, gap, sigma, seed)
        if loss.best_arm is None:
            continue
        dsm = adv.DelayStateMachine(loss)
        learner = lrn.UniformRandomLearner(K, substream(seed, LEARNER_STREAM))
        cfg = core.GameConfig(T, core.Discrete(K), master_seed=seed)
        tr = core.run_game(cfg, learner, loss, dsm)
        prev = 0.0
        for t, (comps, low, carry) in enumerate(
            zip(tr.components, dsm.lows, dsm.carries), start=1
        ):
            # the immediate piece is the same for every arm; each arm
            # would have held back the rest of its own loss
            held_z = loss.masked_baseline(t, True) - comps[0]
            held_other = loss.masked_baseline(t, False) - comps[0]
            if low:
                assert held_z == pytest.approx(prev, abs=1e-12)
                assert prev - 1e-12 <= held_other <= prev + gap + 1e-12
            else:
                assert held_other == pytest.approx(prev, abs=1e-12)
                assert prev - gap - 1e-12 <= held_z <= prev + 1e-12
            prev = carry
        checked += 1
    assert checked >= 5


# ---------------------------------------------------------------------------
# parity trap


def test_parity_trap_loss_table():
    loss = adv.ParityTrapLoss(0)
    assert loss.loss(1, [0]) == 0.0
    assert loss.loss(1, [1]) == 1.0
    assert loss.loss(2, [0, 0]) == 1.0
    assert loss.loss(2, [0, 1]) == 1.0  # even rounds ignore the current arm
    assert loss.loss(2, [1, 0]) == 0.0
    assert loss.loss(3, [1, 0, 0]) == 0.0


def test_parity_trap_pairs_always_cost_one():
    loss = adv.ParityTrapLoss(1)
    for seq in product((0, 1), repeat=6):
        total = sum(loss.loss(t, seq) for t in range(1, 7))
        assert total == 3.0


def test_parity_trap_rejects_rounds_below_one():
    loss = adv.ParityTrapLoss(0)
    for t, actions in ((0, [1, 0]), (-1, [0, 1])):
        with pytest.raises(ValueError, match=f"t={t} "):
            loss.loss(t, actions)


def test_parity_split_and_delay():
    d = adv.ParityDelay()
    assert d.delay_span == 2
    assert d.split(1, [0], 0.7) == (0.0, 0.7)
    assert d.split(2, [0, 0], 0.7) == (0.7, 0.0)
    assert d.split(3, [0, 0, 0], 1.0) == (0.0, 1.0)


def test_parity_trap_from_seed_covers_both_arms():
    seen = {adv.ParityTrapLoss.from_seed(run_seed(1, rep)).best_arm for rep in range(50)}
    assert seen == {0, 1}


def test_parity_trap_rejects_other_arms():
    with pytest.raises(ValueError):
        adv.ParityTrapLoss(2)


# ---------------------------------------------------------------------------
# utility adversaries


def test_table_loss_reads_cells_and_reproduces():
    loss = adv.TableLoss.from_seed(3, 20, 123)
    cells = substream(123, LOSS_TABLE_STREAM).random((20, 3))
    for t in range(1, 21):
        for arm in range(3):
            assert loss.loss(t, [arm] * t) == cells[t - 1][arm]


@pytest.mark.parametrize("t", [-1, 0, 4])
def test_table_loss_rejects_rounds_outside_table(t):
    loss = adv.TableLoss([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
    with pytest.raises(ValueError, match=f"t={t} outside 1..3"):
        loss.loss(t, [1] * 4)


def test_lagged_loss_values():
    loss = util.LaggedLoss(lag=2)
    assert loss.loss(1, [0]) == 0.5
    assert loss.loss(2, [0, 1]) == 0.5
    assert loss.loss(3, [0, 1, 1]) == 0.25
    assert loss.loss(3, [1, 0, 0]) == 0.75


def test_no_delay_is_identity():
    tr = checks.play(cli.ExperimentSpec("iid", "none", "uniform"), 50, run_seed(6, 0))[0]
    assert tr.observed == tr.true_losses


@pytest.mark.parametrize("d", [2, 3, 6])
def test_last_slot_delay_shifts_by_full_span(d):
    spec = cli.ExperimentSpec("iid", "lastslot", "uniform", delay_span=d)
    tr = checks.play(spec, 40, run_seed(7, d))[0]
    for t in range(1, 41):
        want = tr.true_losses[t - d] if t >= d else 0.0
        assert tr.observed[t - 1] == pytest.approx(want, abs=1e-12)


def test_last_slot_delay_needs_real_span():
    with pytest.raises(ValueError):
        adv.LastSlotDelay(1)


def test_seeded_split_delay_rows_are_valid_and_reproducible():
    a = adv.SeededSplitDelay(4, 30, master_seed=5)
    b = adv.SeededSplitDelay(4, 30, master_seed=5)
    for t in range(1, 31):
        sp = a.split(t, [0] * t, 0.8)
        assert type(sp) is tuple and len(sp) == 4
        assert all(c > 0 for c in sp)
        assert math.fsum(sp) == pytest.approx(0.8, abs=1e-12)
        assert sp == b.split(t, [0] * t, 0.8)
    for t in (0, -1, 31):
        with pytest.raises(ValueError, match=f"^t={t} outside 1..30$"):
            a.split(t, [0] * 31, 0.8)


def test_constant_loss_validation():
    with pytest.raises(ValueError):
        adv.ConstantLoss(1.5)


@pytest.mark.parametrize("t", [0, -3])
def test_constant_loss_rejects_rounds_before_the_first(t):
    loss = adv.ConstantLoss(0.5)
    with pytest.raises(ValueError, match=f"^t={t} outside 1..T$"):
        loss.loss(t, [])
    assert loss.loss(1, [0]) == loss.loss(10 ** 6, [0]) == 0.5


def _stock_oblivious_losses():
    walk = adv.MultiScaleWalk(0.2, 40, master_seed=3)
    return {
        "constant": adv.ConstantLoss(0.25),
        "table": adv.TableLoss.from_seed(3, 40, 11),
        "gapwalk": adv.GapWalkLoss(walk, 3, best_arm=1, gap=0.1),
        "gapwalk-nobest": adv.GapWalkLoss(walk, 3, best_arm=None, gap=0.1),
    }


def _histories(horizon):
    yield [0] * horizon
    yield [t % 3 for t in range(horizon)]
    yield [int(a) for a in np.random.default_rng(horizon).integers(0, 3, horizon)]


@pytest.mark.parametrize("name", sorted(_stock_oblivious_losses()))
def test_arm_totals_read_the_losses_loss_returns(name):
    loss = _stock_oblivious_losses()[name]
    for horizon in (1, 17, 40):
        for actions in _histories(horizon):
            for comparators in ([0, 1, 2], [2, 0, 2], [np.int64(1)]):
                played, constant, swapped = loss.arm_totals(actions, comparators)
                assert played == tuple(loss.loss(t, actions) for t in range(1, horizon + 1))
                assert constant == swapped == [
                    math.fsum(loss.loss(t, [y] * t) for t in range(1, horizon + 1))
                    for y in comparators]


@pytest.mark.parametrize("name", sorted(_stock_oblivious_losses()))
def test_arm_totals_reject_horizons_the_loss_does_not_cover(name):
    loss = _stock_oblivious_losses()[name]
    if name == "constant":
        assert loss.arm_totals([0] * 10 ** 4, [0, 1, 2])[1] == [2500.0] * 3
        return
    # past the loss's own horizon: the error loss(41, ...) raises
    with pytest.raises(ValueError) as from_loss:
        loss.loss(41, [0] * 41)
    with pytest.raises(ValueError, match=f"^{from_loss.value}$"):
        loss.arm_totals([0] * 41, [0, 1, 2])


@pytest.mark.parametrize("arm", [2, 5, -1, -3])
def test_table_loss_arm_totals_reject_arms_outside_the_table(arm):
    loss = adv.TableLoss.from_seed(2, 40, 11)
    match = rf"^arm {arm} outside 0\.\.1$"
    with pytest.raises(ValueError, match=match):
        loss.loss(1, [arm])
    # a comparator or a played arm outside the table is named, as loss names it
    with pytest.raises(ValueError, match=match):
        loss.arm_totals([0] * 40, [0, arm, 1])
    with pytest.raises(ValueError, match=match):
        loss.arm_totals([0, 1, arm, 1], [0, 1])
    # a constant loss prices every arm alike, so it checks none
    assert adv.ConstantLoss(0.25).arm_totals([0] * 3, [arm])[1] == [0.75]


@pytest.mark.parametrize("arm", [2, 7, -1, -2])
def test_gap_walk_arm_totals_reject_arms_outside_the_loss(arm):
    walk = adv.MultiScaleWalk(0.2, 40, master_seed=3)
    match = rf"^arm {arm} outside 0\.\.1$"
    for best in (None, 0, 1):
        loss = adv.GapWalkLoss(walk, 2, best, 0.1)
        with pytest.raises(ValueError, match=match):
            loss.loss(1, [arm])
        with pytest.raises(ValueError, match=match):
            loss.arm_totals([0] * 40, [arm])
        with pytest.raises(ValueError, match=match):
            loss.arm_totals([1, arm], [0, 1])
