"""Game loop, feedback buffer, regret accounting, memory probe."""

import ast
import dataclasses
import gc
import math
import pathlib
import re
from decimal import Decimal
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import util
from delaybandits import adversaries as adv
from delaybandits import analysis, checks, cli, core
from delaybandits import learners as lrn
from delaybandits.seeding import LEARNER_STREAM, run_seed, substream


def make_config(horizon, arms=2, seed=0):
    return core.GameConfig(horizon, core.Discrete(arms), master_seed=seed)


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

    @given(arm_count=st.integers(min_value=2, max_value=40),
           action=st.one_of(
               st.integers(min_value=-50, max_value=50), st.integers(),
               st.sampled_from([2 ** 63, 2 ** 64, -(2 ** 64), 10 ** 100]),
               st.booleans(), st.booleans().map(np.bool_),
               st.integers(min_value=-2 ** 63, max_value=2 ** 63 - 1).map(np.int64),
               st.floats(), st.none()))
    @settings(max_examples=300, deadline=None)
    def test_contains_matches_type_checked_range(self, arm_count, action):
        expected = (isinstance(action, (int, np.integer)) and type(action) is not bool
                    and 0 <= action < arm_count)
        assert core.Discrete(arm_count).contains(action) == expected

    def test_needs_two_arms(self):
        with pytest.raises(ValueError):
            core.Discrete(1)

    def test_sample_in_range(self):
        space = core.Discrete(4)
        rng = np.random.default_rng(0)
        draws = {space.sample(rng) for _ in range(200)}
        assert draws == {0, 1, 2, 3}


@st.composite
def edge_points(draw):
    """A point whose norm lies within a few 1e-9 of the unit ball's edge."""
    dimension = draw(st.sampled_from([2, 3, 5, 8]))
    v = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=dimension,
                               max_size=dimension)))
    norm = float(np.linalg.norm(v))
    if norm < 0.1:
        v, norm = np.ones(dimension), math.sqrt(dimension)
    scale = (1.0 + 1e-9 + draw(st.floats(-4e-16, 4e-16))) / norm
    return tuple(float(x) for x in v * scale)


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
        config = core.GameConfig(2, space, master_seed=7)
        with pytest.raises(core.ActionError, match=r"^round 1: .* \(seed 7, "):
            core.run_game(config, lrn.ScriptedLearner([junk] * 2),
                          adv.ConstantLoss(0.5), adv.NoDelay())

    def test_grid_must_fit(self):
        with pytest.raises(ValueError):
            core.ConvexBall(2, 1.0, [(2.0, 0.0)])
        with pytest.raises(ValueError):
            core.ConvexBall(2, 1.0, [])
        # a norm within rounding of the edge: a sum of squares passes it,
        # np.linalg.norm (contains) does not
        with pytest.raises(ValueError, match="lies outside the ball"):
            core.ConvexBall(2, 1.0, [(-0.06373473825852194, 0.9979668757724969)])

    @given(point=edge_points())
    @example(point=(-0.06373473825852194, 0.9979668757724969))
    @settings(max_examples=300, deadline=None)
    def test_grid_accepts_exactly_the_points_contains_accepts(self, point):
        dimension = len(point)
        probe = core.ConvexBall(dimension, 1.0, [(0.0,) * dimension])
        try:
            ball = core.ConvexBall(dimension, 1.0, [(0.0,) * dimension, point])
        except ValueError:
            assert not probe.contains(point)
        else:
            assert all(ball.contains(p) for p in ball.comparators())

    @pytest.mark.parametrize("point", [(math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0)])
    def test_grid_rejects_non_finite_points(self, point):
        match = rf"^comparator point {re.escape(repr(point))} lies outside the ball$"
        with pytest.raises(ValueError, match=match):
            core.ConvexBall(2, 1.0, [(0.0, 0.0), point])

    def test_sample_stays_inside(self):
        space = core.ConvexBall(3, 0.7, [(0.0, 0.0, 0.0)])
        rng = np.random.default_rng(1)
        for _ in range(100):
            assert space.contains(space.sample(rng))


def test_game_config_validation():
    with pytest.raises(ValueError):
        make_config(0)
    # the seed is keyword-only, so a leftover delay span cannot pass for it
    with pytest.raises(TypeError):
        core.GameConfig(8, core.Discrete(2), 2)
    for horizon in (2.5, float("nan"), True, np.bool_(True), "8"):
        with pytest.raises(ValueError, match=f"^horizon must be an integer, got {horizon!r}$"):
            make_config(horizon)
    assert len(core.run_game(make_config(np.int64(5)), lrn.ScriptedLearner([0] * 5),
                             adv.ConstantLoss(0.5), adv.NoDelay()).actions) == 5


# ---------------------------------------------------------------------------
# integer parameters


def _int_parameters() -> dict:
    """Every integer parameter that goes through ``core.check_int``: a call
    taking the value, the parameter's name, its least value, and where the
    call's result keeps the value.  "result" marks a call that returns an
    int computed from it; "none" one that keeps nothing to look at."""
    def rng():
        return np.random.default_rng(0)

    walk = adv.MultiScaleWalk(0.1, 8, master_seed=1)
    tr = core.run_game(make_config(4), lrn.ScriptedLearner([0] * 4),
                       adv.ConstantLoss(0.5), adv.NoDelay())
    cases = [
        ("Discrete", core.Discrete, "arm_count", 2, "arm_count"),
        ("ConvexBall", lambda v: core.ConvexBall(v, 1.0, [(0.0,)]), "dimension", 1, "dimension"),
        ("GameConfig", lambda v: core.GameConfig(v, core.Discrete(2)), "horizon", 1, "horizon"),
        ("check_bounded_memory-memory_bound", lambda v: core.check_bounded_memory(
            adv.ConstantLoss(0.5), v, action_space=core.Discrete(2), horizon=8, rng=rng()),
         "memory_bound", 0, "none"),
        ("check_bounded_memory-horizon", lambda v: core.check_bounded_memory(
            adv.ConstantLoss(0.5), 0, action_space=core.Discrete(2), horizon=v, rng=rng()),
         "horizon", 1, "none"),
        ("check_bounded_memory-trials", lambda v: core.check_bounded_memory(
            adv.ConstantLoss(0.5), 0, action_space=core.Discrete(2), horizon=8, trials=v,
            rng=rng()),
         "trials", 0, "none"),
        ("width", lambda v: adv.width(adv.walk_parent, v), "horizon", 1, "result"),
        ("drift_threshold", lambda v: adv.drift_threshold(0.1, v, 0.1), "horizon", 1, "none"),
        ("MultiScaleWalk", lambda v: adv.MultiScaleWalk(0.1, v), "horizon", 1, "horizon"),
        ("MultiScaleWalk-increments", lambda v: adv.MultiScaleWalk(0.1, v, increments=[0.0]),
         "horizon", 1, "horizon"),
        ("walk_value_matrix-horizon", lambda v: adv.walk_value_matrix(0.1, v, 1),
         "horizon", 1, "none"),
        ("walk_value_matrix-n_walks", lambda v: adv.walk_value_matrix(0.1, 4, v),
         "n_walks", 1, "none"),
        ("gap_walk_defaults-arm_count", lambda v: adv.gap_walk_defaults(v, 8),
         "arm_count", 2, "none"),
        ("gap_walk_defaults-horizon", lambda v: adv.gap_walk_defaults(2, v), "horizon", 3, "none"),
        ("GapWalkLoss-arm_count", lambda v: adv.GapWalkLoss(walk, v, 0, 0.1),
         "arm_count", 2, "arm_count"),
        ("GapWalkLoss-best_arm", lambda v: adv.GapWalkLoss(walk, 2, v, 0.1),
         "best_arm", 0, "best_arm"),
        ("ParityTrapLoss", adv.ParityTrapLoss, "best_arm", 0, "best_arm"),
        ("TableLoss.from_seed-arm_count", lambda v: adv.TableLoss.from_seed(v, 8, 1),
         "arm_count", 2, "arm_count"),
        ("TableLoss.from_seed-horizon", lambda v: adv.TableLoss.from_seed(2, v, 1),
         "horizon", 1, "horizon"),
        ("LastSlotDelay", adv.LastSlotDelay, "delay_span", 2, "delay_span"),
        ("SeededSplitDelay-delay_span", lambda v: adv.SeededSplitDelay(v, 4),
         "delay_span", 1, "delay_span"),
        ("SeededSplitDelay-horizon", lambda v: adv.SeededSplitDelay(2, v), "horizon", 1, "horizon"),
        ("Exp3Learner-arm_count", lambda v: lrn.Exp3Learner(v, 8, rng()),
         "arm_count", 2, "arm_count"),
        ("Exp3Learner-rounds", lambda v: lrn.Exp3Learner(2, v, rng()), "rounds", 1, "none"),
        ("choose_tau-horizon", lambda v: lrn.choose_tau(v, 2), "horizon", 1, "result"),
        ("choose_tau-arm_count", lambda v: lrn.choose_tau(64, v), "arm_count", 2, "result"),
        ("choose_tau-delay_guess", lambda v: lrn.choose_tau(64, 2, v), "delay_guess", 0, "result"),
        ("choose_tau-memory_bound", lambda v: lrn.choose_tau(64, 2, 0, v),
         "memory_bound", 0, "result"),
        ("choose_tau_bco-arm_count", lambda v: lrn.choose_tau_bco(64, v),
         "arm_count", 1, "result"),
        ("MiniBatchWrapper-batch_size",
         lambda v: lrn.MiniBatchWrapper(lrn.Exp3Learner(2, 8, rng()), v, 8),
         "batch_size", 1, "batch_size"),
        ("MiniBatchWrapper-horizon",
         lambda v: lrn.MiniBatchWrapper(lrn.Exp3Learner(2, 8, rng()), 2, v), "horizon", 1, "none"),
        ("FkmLearner-dimension", lambda v: lrn.FkmLearner(v, 1.0, 8, rng()),
         "dimension", 1, "dimension"),
        ("FkmLearner-rounds", lambda v: lrn.FkmLearner(1, 1.0, v, rng()), "rounds", 1, "none"),
        ("UniformRandomLearner", lambda v: lrn.UniformRandomLearner(v, rng()),
         "arm_count", 2, "arm_count"),
        ("audit_delay_accounting", lambda v: analysis.audit_delay_accounting(tr, v),
         "batch_size", 1, "none"),
        ("fit_exponent", lambda v: analysis.fit_exponent([(v, 1.0), (20, 2.0), (30, 3.0)]),
         "horizon", 1, "points"),
        ("bootstrap_exponent_ci", lambda v: analysis.bootstrap_exponent_ci(
            {10: [1.0, 1.5], 20: [2.0, 2.5], 40: [4.0, 3.5]}, v), "resamples", 0, "none"),
    ]
    return {case: (call, name, least, keep) for case, call, name, least, keep in cases}


@pytest.mark.parametrize("case", sorted(_int_parameters()))
def test_integer_parameters_follow_one_rule(case):
    call, name, least, keep = _int_parameters()[case]
    for bad in (2.5, True, np.bool_(True), "3"):
        wrong_type = f"^{name} must be an integer, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=wrong_type):
            call(bad)
    with pytest.raises(ValueError, match=f"^{name} must be >= {least}, got {least - 1}$"):
        call(least - 1)
    result = call(np.int64(least))
    if keep == "result":
        assert type(result) is int
    elif keep == "points":
        assert type(result.points[0][0]) is int and result.points[0][0] == least
    elif keep != "none":
        assert type(getattr(result, keep)) is int and getattr(result, keep) == least


def _motivating_cases() -> dict:
    """Calls that truncated a float, took a bool for an arm, or failed with
    numpy's TypeError before every integer parameter went through one check;
    each maps to the parameter it now names."""
    rng = np.random.default_rng(0)
    walk = adv.MultiScaleWalk(0.1, 8, master_seed=1)
    tr = core.run_game(make_config(4), lrn.ScriptedLearner([0] * 4),
                       adv.ConstantLoss(0.5), adv.NoDelay())
    inner = lrn.Exp3Learner(2, 4, rng)
    return {
        "LastSlotDelay(2.9)": (lambda: adv.LastSlotDelay(2.9), "delay_span"),
        "SeededSplitDelay(2.5, 4)": (lambda: adv.SeededSplitDelay(2.5, 4), "delay_span"),
        "MiniBatchWrapper(inner, 2.5, 8)": (lambda: lrn.MiniBatchWrapper(inner, 2.5, 8),
                                            "batch_size"),
        "Discrete(2.5)": (lambda: core.Discrete(2.5), "arm_count"),
        "UniformRandomLearner(2.5, rng)": (lambda: lrn.UniformRandomLearner(2.5, rng),
                                           "arm_count"),
        "choose_tau(1000.5, 2)": (lambda: lrn.choose_tau(1000.5, 2), "horizon"),
        "ParityTrapLoss(True)": (lambda: adv.ParityTrapLoss(True), "best_arm"),
        "ParityTrapLoss(1.0)": (lambda: adv.ParityTrapLoss(1.0), "best_arm"),
        "ParityTrapLoss(np.bool_(True))": (lambda: adv.ParityTrapLoss(np.bool_(True)),
                                           "best_arm"),
        "GapWalkLoss(walk, 2, True, 0.1)": (lambda: adv.GapWalkLoss(walk, 2, True, 0.1),
                                            "best_arm"),
        "Exp3Learner(2, 2.5, rng)": (lambda: lrn.Exp3Learner(2, 2.5, rng), "rounds"),
        "audit_delay_accounting(tr, 2.5)": (lambda: analysis.audit_delay_accounting(tr, 2.5),
                                            "batch_size"),
        "width(walk_parent, 2.5)": (lambda: adv.width(adv.walk_parent, 2.5), "horizon"),
        "walk_value_matrix(0.1, 4.5, 1)": (lambda: adv.walk_value_matrix(0.1, 4.5, 1),
                                           "horizon"),
        "run_seed(1.9, 0)": (lambda: run_seed(1.9, 0), "seed_base"),
        "substream(2.7, 3)": (lambda: substream(2.7, 3), "master_seed"),
        "GameConfig(4, Discrete(2), master_seed=2.5)": (
            lambda: core.GameConfig(4, core.Discrete(2), master_seed=2.5), "master_seed"),
        "bootstrap_exponent_ci(groups, True)": (
            lambda: analysis.bootstrap_exponent_ci({10: [1.0], 20: [2.0]}, True), "resamples"),
    }


@pytest.mark.parametrize("case", sorted(_motivating_cases()))
def test_silent_coercions_now_raise(case):
    call, name = _motivating_cases()[case]
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        call()


#: seed parameters, which take any integer: a call taking the value and the
#: parameter's name
_SEED_PARAMETERS = {
    "run_seed-seed_base": (lambda v: run_seed(v, 0), "seed_base"),
    "run_seed-run_index": (lambda v: run_seed(0, v), "run_index"),
    "substream-master_seed": (lambda v: substream(v, 3).random(), "master_seed"),
    "substream-path": (lambda v: substream(0, 3, v).random(), "path id"),
    "GameConfig-master_seed": (lambda v: core.GameConfig(4, core.Discrete(2), master_seed=v)
                               .master_seed, "master_seed"),
}


@pytest.mark.parametrize("case", sorted(_SEED_PARAMETERS))
def test_seeds_follow_the_integer_rule_with_no_least_value(case):
    call, name = _SEED_PARAMETERS[case]
    for bad in (2.5, 2.0, True, np.bool_(True), "3", None):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "
                                              f"{re.escape(repr(bad))}$"):
            call(bad)
    # negative and numpy seeds act as the Python int of the same value
    for good in (-(2 ** 70), -3, 0, 5, 2 ** 70):
        assert call(np.int64(good) if abs(good) < 2 ** 63 else good) == call(good)
    assert type(call(np.int64(5))) is type(call(5))


# ---------------------------------------------------------------------------
# real parameters


def _real_parameters() -> dict:
    """Every real parameter that goes through ``core.check_real``: a call
    taking the value, the parameter's name, its interval as the message
    prints it, an in-range float, an in-range int (None when the interval
    holds none), and where the call's result keeps the value.  "result"
    marks a call that returns a float computed from it; "none" one that
    keeps nothing to look at."""
    def rng():
        return np.random.default_rng(0)

    walk = adv.MultiScaleWalk(0.1, 8, master_seed=1)
    samples = np.arange(6.0).reshape(3, 2)
    cases = [
        ("ConvexBall", lambda v: core.ConvexBall(2, v, [(0.0, 0.0)]),
         "radius", "(0.0, inf)", 1.5, 2, "radius"),
        ("FkmLearner", lambda v: lrn.FkmLearner(2, v, 8, rng()),
         "radius", "(0.0, inf)", 1.5, 2, "radius"),
        ("drift_threshold-sigma", lambda v: adv.drift_threshold(v, 8, 0.1),
         "sigma", "(0.0, inf)", 0.1, 1, "result"),
        ("drift_threshold-delta_prob", lambda v: adv.drift_threshold(0.1, 8, v),
         "delta_prob", "(0.0, 1.0)", 0.1, None, "result"),
        ("MultiScaleWalk", lambda v: adv.MultiScaleWalk(v, 8), "sigma", "[0.0, inf)", 0.1, 0,
         "none"),
        ("MultiScaleWalk-increments", lambda v: adv.MultiScaleWalk(v, 1, increments=[0.0]),
         "sigma", "[0.0, inf)", 0.1, 0, "none"),
        ("walk_value_matrix", lambda v: adv.walk_value_matrix(v, 8, 2),
         "sigma", "[0.0, inf)", 0.1, 0, "none"),
        ("GapWalkLoss", lambda v: adv.GapWalkLoss(walk, 2, 0, v),
         "gap", "(0.0, 0.125]", 0.1, None, "gap"),
        ("switch_bound-gap", lambda v: adv.switch_bound(v, 10),
         "gap", "(0.0, 0.125)", 0.1, None, "result"),
        ("switch_bound-best_arm_pulls", lambda v: adv.switch_bound(0.1, v),
         "best_arm_pulls", "[0.0, inf)", 2.5, 3, "result"),
        ("ConstantLoss", adv.ConstantLoss, "value", "[0.0, 1.0]", 0.25, 1, "value"),
        ("CensoredGaussian-mu", lambda v: analysis.CensoredGaussian(v, 0.1),
         "mu", "(-inf, inf)", 0.7, 1, "mu"),
        ("CensoredGaussian-sigma", lambda v: analysis.CensoredGaussian(0.7, v),
         "sigma", "(0.0, inf)", 0.1, 1, "sigma"),
        ("CensoredGaussian-lower", lambda v: analysis.CensoredGaussian(0.7, 0.1, v, 2.0),
         "lower", "(-inf, inf)", 0.5, 0, "lower"),
        ("CensoredGaussian-upper", lambda v: analysis.CensoredGaussian(0.7, 0.1, 0.0, v),
         "upper", "(-inf, inf)", 1.5, 1, "upper"),
        ("gaussian_kl-mu_p", lambda v: analysis.gaussian_kl(v, 0.2, 0.1),
         "mu_p", "(-inf, inf)", 0.3, 1, "result"),
        ("gaussian_kl-mu_q", lambda v: analysis.gaussian_kl(0.2, v, 0.1),
         "mu_q", "(-inf, inf)", 0.3, 1, "result"),
        ("gaussian_kl-sigma", lambda v: analysis.gaussian_kl(0.2, 0.3, v),
         "sigma", "(0.0, inf)", 0.1, 1, "result"),
        ("pinsker_tv", analysis.pinsker_tv, "kl", "[0.0, inf]", 0.5, 2, "result"),
        ("observation_tv_bound-gap", lambda v: analysis.observation_tv_bound(v, 0.05, 2, 10),
         "gap", "(0.0, 0.125)", 0.1, None, "result"),
        ("observation_tv_bound-sigma", lambda v: analysis.observation_tv_bound(0.1, v, 2, 10),
         "sigma", "(0.0, inf)", 0.05, 1, "result"),
        ("observation_tv_bound-width_value",
         lambda v: analysis.observation_tv_bound(0.1, 0.05, v, 10),
         "width_value", "[0.0, inf)", 2.5, 2, "result"),
        ("observation_tv_bound-best_arm_pulls",
         lambda v: analysis.observation_tv_bound(0.1, 0.05, 2, v),
         "best_arm_pulls", "[0.0, inf)", 10.5, 10, "result"),
        ("marginal_tv", lambda v: analysis.marginal_tv(samples, samples + 0.5, v),
         "bin_width", "(0.0, inf)", 0.75, 1, "result"),
    ]
    return {case: rest for case, *rest in cases}


@pytest.mark.parametrize("case", sorted(_real_parameters()))
def test_real_parameters_follow_one_rule(case):
    call, name, interval, good, good_int, keep = _real_parameters()[case]
    for bad in (True, np.bool_(True), "1", None):
        with pytest.raises(ValueError,
                           match=f"^{name} must be a real number, got {re.escape(repr(bad))}$"):
            call(bad)
    low, high = map(float, interval[1:-1].split(", "))
    open_low, open_high = interval[0] == "(", interval[-1] == ")"
    outside = [math.nan, 10 ** 400]  # an int beyond every float is in no interval
    if math.isfinite(low):
        outside.append(low if open_low else float(np.nextafter(low, -math.inf)))
    if math.isfinite(high):
        outside.append(high if open_high else float(np.nextafter(high, math.inf)))
    if open_high or math.isfinite(high):
        outside.append(math.inf)
    else:
        call(math.inf)  # a closed infinite end takes infinity
    outside.append(-math.inf)
    for bad in outside:
        with pytest.raises(ValueError, match=re.escape(f"{name} must lie in {interval}, got "
                                                       f"{bad!r}") + "$"):
            call(bad)
    as_float = call(good)
    for value in (np.float64(good), good_int):
        if value is None:
            continue
        result = call(value)
        if keep == "result":
            assert type(result) is float
            if value == good:
                assert result == as_float
        elif keep != "none":
            assert type(getattr(result, keep)) is float and getattr(result, keep) == value


def _real_motivating_cases() -> dict:
    """Calls that took a bool for a number, let NaN or infinity through, or
    failed with a bare ``TypeError`` (or inside scipy or numpy) before every
    real parameter went through one check; each maps to the parameter it now
    names."""
    rng = np.random.default_rng(0)
    nan, inf = math.nan, math.inf
    samples = np.arange(6.0).reshape(3, 2)
    cg = analysis.CensoredGaussian
    return {
        "ConstantLoss(True)": (lambda: adv.ConstantLoss(True), "value"),
        "ConvexBall(2, True, [(0, 0)])": (lambda: core.ConvexBall(2, True, [(0, 0)]), "radius"),
        "CensoredGaussian(0.5, np.bool_(True))": (lambda: cg(0.5, np.bool_(True)), "sigma"),
        "drift_threshold(True, 8, 0.1)": (lambda: adv.drift_threshold(True, 8, 0.1), "sigma"),
        "switch_bound(0.1, True)": (lambda: adv.switch_bound(0.1, True), "best_arm_pulls"),
        "observation_tv_bound(0.1, 0.05, True, True)": (
            lambda: analysis.observation_tv_bound(0.1, 0.05, True, True), "width_value"),
        "gaussian_kl(0.1, 0.2, True)": (lambda: analysis.gaussian_kl(0.1, 0.2, True), "sigma"),
        "MultiScaleWalk(True, 8)": (lambda: adv.MultiScaleWalk(True, 8), "sigma"),
        "switch_bound(0.1, nan)": (lambda: adv.switch_bound(0.1, nan), "best_arm_pulls"),
        "observation_tv_bound(0.1, 0.05, 1, nan)": (
            lambda: analysis.observation_tv_bound(0.1, 0.05, 1, nan), "best_arm_pulls"),
        "pinsker_tv(nan)": (lambda: analysis.pinsker_tv(nan), "kl"),
        "CensoredGaussian(nan, 0.1)": (lambda: cg(nan, 0.1), "mu"),
        "FkmLearner(2, inf, 8, rng)": (lambda: lrn.FkmLearner(2, inf, 8, rng), "radius"),
        "ConvexBall(2, inf, [(0, 0)])": (lambda: core.ConvexBall(2, inf, [(0, 0)]), "radius"),
        "CensoredGaussian(0.5, 0.1, -inf, inf)": (lambda: cg(0.5, 0.1, -inf, inf), "lower"),
        "pinsker_tv('a')": (lambda: analysis.pinsker_tv("a"), "kl"),
        "gaussian_kl(0.1, 0.2, 'x')": (lambda: analysis.gaussian_kl(0.1, 0.2, "x"), "sigma"),
        "ConvexBall(2, '1', [(0, 0)])": (lambda: core.ConvexBall(2, "1", [(0, 0)]), "radius"),
        "marginal_tv(p, q, inf)": (lambda: analysis.marginal_tv(samples, samples, inf),
                                   "bin_width"),
    }


@pytest.mark.parametrize("case", sorted(_real_motivating_cases()))
def test_bools_nans_and_infinities_now_raise(case):
    call, name = _real_motivating_cases()[case]
    with pytest.raises(ValueError, match=f"^{name} must (be a real number|lie in [\\[(]).*, got "):
        call()


#: messages of checks on data, not on library parameters: a fit's values
_DATA_MESSAGES = {"values must be finite and strictly positive for a log-log fit"}


def _ad_hoc_parameter_checks(source: str) -> list:
    """(line, text) of each string in ``source``, docstrings and the bodies
    of ``check_int`` and ``check_real`` aside, that spells out a parameter
    rule on its own.  An f-string is read as its constant parts with "{}"
    for each formatted value, so a copy of a rule with its bound or name
    formatted in is found too."""
    retired = ("must be positive", "must be finite", "must be >= 0", "must be >= {}",
               "must lie in (", "must lie in [", "must be an integer")
    tree = ast.parse(source)
    skip = {id(node) for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
            and fn.name in ("check_int", "check_real") for node in ast.walk(fn)}
    skip.update(id(scope.body[0].value) for scope in ast.walk(tree)
                if isinstance(scope, (ast.Module, ast.ClassDef, ast.FunctionDef))
                and ast.get_docstring(scope) is not None)
    found = []
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.JoinedStr):
            skip.update(id(part) for part in node.values)
            text = "".join(part.value if isinstance(part, ast.Constant) else "{}"
                           for part in node.values)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            text = node.value
        else:
            continue
        if text not in _DATA_MESSAGES and any(phrase in text for phrase in retired):
            found.append((node.lineno, text))
    return found


def test_no_ad_hoc_parameter_checks():
    """No string in the package's code, docstrings aside, spells out a
    parameter rule on its own: those phrases belong to ``check_int`` and
    ``check_real``."""
    found = [f"{path.name}:{line}: {text!r}"
             for path in sorted(pathlib.Path(core.__file__).parent.glob("*.py"))
             for line, text in _ad_hoc_parameter_checks(path.read_text())]
    assert found == []


def test_ad_hoc_parameter_check_scan_reads_f_strings():
    # the two texts of the integer rule the run spec once spelled out itself
    copy = ('if isinstance(value, bool) or not isinstance(value, int):\n'
            '    raise UsageError(f"{flag} must be an integer, got {value!r}")\n'
            'if value < least:\n'
            '    raise UsageError(f"{flag} must be >= {least}, got {value!r}")\n')
    assert _ad_hoc_parameter_checks(copy) == [(2, "{} must be an integer, got {}"),
                                              (4, "{} must be >= {}, got {}")]


def test_parity_trap_and_gap_walk_keep_their_arm_ranges():
    with pytest.raises(ValueError, match="^parity trap is two-armed; best_arm must be 0 or 1$"):
        adv.ParityTrapLoss(2)
    walk = adv.MultiScaleWalk(0.1, 8, master_seed=1)
    with pytest.raises(ValueError, match=r"^best_arm 2 outside 0\.\.1$"):
        adv.GapWalkLoss(walk, 2, np.int64(2), 0.1)
    assert adv.GapWalkLoss(walk, 2, None, 0.1).best_arm is None


# ---------------------------------------------------------------------------
# splits and pending feedback


#: widths the named split cases run at: d = 2 takes the d <= 2 branch of
#: ``validate_split``, d = 3 and 32 its d >= 3 fast accept
SPLIT_WIDTHS = (2, 3, 32)


def last_slot_split(t, d, tail, lv):
    """A width-d split of zeros, then ``tail`` in the last slots, the shape
    ``LastSlotDelay`` makes."""
    return core.LossSplit(t, (0.0,) * (d - len(tail)) + tail, lv)


def zeros_with(d, placed, lv):
    """A width-d split of zeros with ``placed`` ({slot: value}) set."""
    comps = [0.0] * d
    for i, c in placed.items():
        comps[i] = c
    return core.LossSplit(4, tuple(comps), lv)


class TestValidateSplit:
    def test_good_split_passes_through(self):
        for d in SPLIT_WIDTHS:
            s = last_slot_split(3, d, (0.2, 0.3), 0.5)
            assert core.validate_split(s, d) is s, d

    def test_tiny_negative_component_clamps_to_zero(self):
        for d in SPLIT_WIDTHS:
            s = last_slot_split(1, d, (-1e-13, 0.5 + 1e-13), 0.5)
            out = core.validate_split(s, d)
            assert out.components == (0.0,) * (d - 1) + (0.5 + 1e-13,), d
            assert math.copysign(1.0, out.components[d - 2]) == 1.0, d

    def test_real_negative_component_rejected(self):
        for d in SPLIT_WIDTHS:
            with pytest.raises(core.SplitError, match=f"^round 1: component {d - 2} is negative"):
                core.validate_split(last_slot_split(1, d, (-1e-6, 0.5), 0.5 - 1e-6), d)

    def test_component_above_loss_rejected(self):
        for d in SPLIT_WIDTHS:
            with pytest.raises(core.SplitError, match=rf"^round 1: component {d - 2} \(0.6\) exceeds"):
                core.validate_split(last_slot_split(1, d, (0.6, -0.1), 0.5), d)

    def test_wrong_width_rejected(self):
        with pytest.raises(core.SplitError):
            core.validate_split(core.LossSplit(1, (0.5,), 0.5), 2)

    def test_sum_mismatch_rejected(self):
        for d in SPLIT_WIDTHS:
            with pytest.raises(core.SplitError, match="^round 1: components sum to 0.4, loss is 0.5"):
                core.validate_split(last_slot_split(1, d, (0.2, 0.2), 0.5), d)

    @pytest.mark.parametrize("comps", [
        (math.nan, 0.5), (math.nan,),
        (0.0, math.nan, 0.5), (0.0,) * 30 + (math.nan, 0.5),
        # in the middle of the zeros: the sort leaves the NaN where it is
        # and puts a 0.0 first, so only the fsum total can reject it
        (0.0,) * 15 + (math.nan,) + (0.0,) * 15 + (0.5,),
    ])
    def test_nan_component_rejected_with_round(self, comps):
        with pytest.raises(core.SplitError, match="round 4"):
            core.validate_split(core.LossSplit(4, comps, 0.5), len(comps))

    @pytest.mark.parametrize("d", [3, 32])
    def test_tiny_negative_among_zeros_clamps_to_positive_zero(self, d):
        mid = (d - 1) // 2
        out = core.validate_split(zeros_with(d, {mid: -1e-13, d - 1: 0.5}, 0.5), d)
        assert out.components == (0.0,) * (d - 1) + (0.5,)
        assert math.copysign(1.0, out.components[mid]) == 1.0

    @pytest.mark.parametrize("d", [3, 32])
    def test_negative_first_slot_rejected(self, d):
        with pytest.raises(core.SplitError, match=r"^round 4: component 0 is negative \(-1e-06\)"):
            core.validate_split(zeros_with(d, {0: -1e-6, d - 1: 0.5}, 0.5 - 1e-6), d)


ATOL = core.SPLIT_ATOL
#: what a perturbed component is set to; the named kinds depend on the split
PERTURBATIONS = (math.nan, -0.0, 0.0, math.inf, -math.inf, 1e308,
                 "tiny_negative", "above_cap", "jitter")


@st.composite
def adversarial_splits(draw):
    """A near-valid split of width 1..33, dense or with the loss in one or
    two of the first, middle and last slots and signed zeros elsewhere (as
    ``LastSlotDelay`` splits), with up to three components overwritten by
    values at or past the edges of what validation accepts."""
    d = draw(st.integers(min_value=1, max_value=33))
    lv = draw(st.one_of(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=ATOL, exclude_max=True),
        st.sampled_from([0.0, 1.0, math.nan, math.inf, 1e308]),
    ))
    if draw(st.booleans()):
        weights = draw(st.lists(st.floats(min_value=0.0, max_value=1.0),
                                min_size=d, max_size=d))
        total = math.fsum(weights)
        comps = [lv * w / total if total > 0.0 else lv / d for w in weights]
    else:
        comps = draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=d, max_size=d))
        slots = draw(st.lists(st.sampled_from([0, d // 2, d - 1]),
                              min_size=1, max_size=2, unique=True))
        share = lv * draw(st.floats(min_value=0.0, max_value=1.0))
        for s, c in zip(slots, (share, lv - share) if len(slots) == 2 else (lv,)):
            comps[s] = c
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
    return "ok", tuple((type(c), float(c).hex()) for c in out.components)


@given(adversarial_splits())
@example((2, (1e308, 1e308), 0.5))       # fsum overflows; the loop says "exceeds loss"
@example((2, (1e308, 1e308), math.inf))  # both leak fsum's OverflowError
@example((2, (math.inf, -math.inf), 0.5))
@example((3, (math.nan, 0.25, 0.25), 0.5))
@example((3, (0.25, 0.25, math.nan), 0.5))
@example((2, (-0.0, 0.5), 0.5))
@example((2, (0.5, -0.0), 0.5))
@example((2, (np.float64(0.25), np.float64(0.5)), 0.75))  # numpy floats are accepted
@example((2, (np.float32(0.25), 0.5), 0.75))
@example((2, (0, 1), 1.0))                                # so are ints
@example((2, (1, 0.0), 1.0))
@example((1, (True,), 1.0))                               # bools are not, at d <= 2
@example((1, (False,), 0.0))
@example((1, (np.bool_(True),), 1.0))
@example((2, (True, 0.0), 1.0))
@example((2, (0.5, False), 0.5))
@example((2, (np.bool_(True), 0.0), 1.0))
@example((2, (0.0, np.bool_(True)), 1.0))
@example((2, (-1.0, True), 1.0))                          # the first bad component is named
@example((3, (True, 0.0, 0.0), 1.0))                      # d >= 3 does not look for bools
@example((32, (0.0,) * 15 + (math.nan,) + (0.0,) * 15 + (0.5,), 0.5))  # a 0.0 sorts first
@example((32, (0.0,) * 15 + (-1e-13,) + (0.0,) * 15 + (0.5,), 0.5))    # clamps to +0.0
@example((32, (0.5,) + (0.0,) * 31, 0.5))                              # one-hot in slot 0
@example((32, (0,) * 15 + (np.float64(0.0),) + (-0.0,) * 14 + (np.float64(0.25), 0.25), 0.5))
@example((2, (-ATOL, 0.5 + ATOL), 0.5))
@example((1, (5e-13,), 0.0))
@settings(max_examples=600, deadline=None)
def test_validate_split_matches_component_loop(case):
    d, comps, lv = case
    assert (_split_outcome(core.validate_split, d, comps, lv)
            == _split_outcome(util.reference_validate_split, d, comps, lv))


#: zeros a split may carry, of either sign and type
ZERO_COMPONENTS = st.sampled_from([0.0, -0.0, np.float64(0.0), np.float64(-0.0), 0, np.int64(0)])
#: any component the buffer adds.  numpy floats are float64: adding a
#: float32 zero rounds a slot to float32, which the slot loop does and the
#: sparse shift, which skips zeros, does not.
BUFFER_COMPONENTS = st.one_of(
    ZERO_COMPONENTS,
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0).map(np.float64),
    st.sampled_from([1, np.int64(1)]),
)


@st.composite
def buffer_games(draw):
    """A delay span in 1..40 and 1..40 rows of that width, each all zeros,
    one-hot (like ``LastSlotDelay``'s) or dense."""
    d = draw(st.integers(min_value=1, max_value=40))
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=40))):
        kind = draw(st.sampled_from(("zeros", "one-hot", "dense")))
        row = draw(st.lists(BUFFER_COMPONENTS if kind == "dense" else ZERO_COMPONENTS,
                            min_size=d, max_size=d))
        if kind == "one-hot":
            row[draw(st.integers(min_value=0, max_value=d - 1))] = draw(BUFFER_COMPONENTS)
        rows.append(tuple(row))
    return d, rows


POSITIVE_COMPONENTS = st.one_of(st.floats(min_value=1e-3, max_value=0.25),
                                st.floats(min_value=1e-3, max_value=0.25).map(np.float64))


@st.composite
def shared_slot_games(draw):
    """A span in {3, 4, 32, 33} and 1..10 valid rows: one-hot, two-hot or
    dense, with zeros of mixed kinds and, in some rows, up to two
    components in [-SPLIT_ATOL, 0) that the check clamps.  The slots of
    the nonzero components move from row to row."""
    d = draw(st.sampled_from((3, 4, 32, 33)))
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=10))):
        kind = draw(st.sampled_from(("one-hot", "two-hot", "dense")))
        if kind == "dense":
            row = draw(st.lists(st.one_of(POSITIVE_COMPONENTS, ZERO_COMPONENTS),
                                min_size=d, max_size=d))
        else:
            zeros = draw(st.lists(ZERO_COMPONENTS, min_size=1, max_size=3))
            row = [zeros[s % len(zeros)] for s in range(d)]
            hot = draw(st.lists(st.integers(min_value=0, max_value=d - 1),
                                min_size=1 if kind == "one-hot" else 2,
                                max_size=1 if kind == "one-hot" else 2, unique=True))
            for s in hot:
                row[s] = draw(POSITIVE_COMPONENTS)
        for s in draw(st.lists(st.integers(min_value=0, max_value=d - 1), max_size=2)):
            row[s] = draw(st.floats(min_value=-ATOL, max_value=0.0, exclude_max=True))
        rows.append(tuple(row))
    return d, rows


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

    @pytest.mark.parametrize("d", [2, 3, 32])
    def test_negative_zero_component_is_stored_as_zero(self, d):
        pending = [0.0] * (d - 1)
        core.push_split(pending, core.LossSplit(1, (0.5,) + (-0.0,) * (d - 1), 0.5))
        assert all(math.copysign(1.0, p) == 1.0 for p in pending)

    def test_push_rejects_width_mismatch(self):
        with pytest.raises(core.SplitError):
            core.push_split([0.0, 0.0], core.LossSplit(1, (0.1, 0.1), 0.2))

    @given(
        d=st.integers(min_value=1, max_value=33),
        raw=st.lists(
            st.one_of(
                st.lists(st.floats(min_value=0.0, max_value=0.2), min_size=33, max_size=33),
                st.dictionaries(st.integers(min_value=0, max_value=32),
                                st.floats(min_value=0.0, max_value=0.2), max_size=3)
                .map(lambda hot: [hot.get(s, 0.0) for s in range(33)]),
            ),
            min_size=1,
            max_size=30,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_conservation_against_queue_model(self, d, raw):
        # Observed totals plus what is still pending must equal everything
        # scheduled.  The oracle is a literal per-round delivery queue.  Rows
        # are dense or have at most three nonzero components, so wide spans
        # reach the sparse shift.
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

    @given(buffer_games())
    @example((32, [(0.0,) * 31 + (0.5,)] * 40))          # wide-delay's rows
    @example((3, [(0.25, -0.0, 0.5), (-0.0, 0.5, -0.0), (0.0, -0.0, -0.0)]))
    @example((4, [(0, np.int64(1), np.float64(-0.0), 1), (np.float64(0.5), 0, -0.0, 0.25)]))
    @settings(max_examples=300, deadline=None)
    def test_push_split_matches_slot_loop_bit_for_bit(self, game):
        d, rows = game
        fast, slow = [0.0] * (d - 1), [0.0] * (d - 1)
        for t, comps in enumerate(rows, start=1):
            split = core.LossSplit(t, comps, 0.0)
            assert (float(core.observe_aggregate(fast, split)).hex()
                    == float(core.observe_aggregate(slow, split)).hex())
            core.push_split(fast, split)
            util.reference_push_split(slow, split)
            assert [float(p).hex() for p in fast] == [float(p).hex() for p in slow]

    @given(shared_slot_games())
    @example((32, [(0.0,) * 31 + (0.5,), (0.5,) + (0.0,) * 31, (-0.0,) * 16 + (0.5,) + (0,) * 15]))
    @example((3, [(0.25, -ATOL / 2, 0.25), (0.0, 0.5, np.int64(0)), (np.float64(-0.0), 0, 0.5)]))
    @settings(max_examples=150, deadline=None)
    def test_validated_nonzero_slots_never_go_stale(self, game):
        # One record, refilled as run_game refills it: the slots that
        # validate_split leaves for push_split are always this row's.
        d, rows = game
        split = core.LossSplit(0, (), 0.0)
        fast, slow = [0.0] * (d - 1), [0.0] * (d - 1)
        for t, comps in enumerate(rows, start=1):
            lv = math.fsum(c for c in comps if c > 0.0)
            split.t, split.components, split.loss_value = t, comps, lv
            split = core.validate_split(split, d)
            seen = core.observe_aggregate(fast, split)
            core.push_split(fast, split)
            ref = util.reference_validate_split(core.LossSplit(t, comps, lv), d)
            checked = ref.components
            assert [float(c).hex() for c in split.components] == [float(c).hex() for c in checked]
            assert split.nonzero == [s for s, c in enumerate(checked) if c]
            assert float(seen).hex() == float(checked[0] + slow[0]).hex()
            util.reference_push_split(slow, ref)
            assert [float(p).hex() for p in fast] == [float(p).hex() for p in slow]


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
    tr = core.run_game(make_config(4), spy, spy_loss, adv.NoDelay())
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


def tracked_objects_kept_by_a_run(horizon):
    """Objects the cyclic collector tracks that a held transcript of a
    d = 3 run adds, counted with no collection during the run."""
    seed = run_seed(5, horizon)
    learner = lrn.UniformRandomLearner(3, substream(seed, LEARNER_STREAM))
    loss = adv.TableLoss.from_seed(3, horizon, seed)
    delay = adv.SeededSplitDelay(3, horizon, seed)
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        tr = core.run_game(make_config(horizon, arms=3, seed=seed), learner, loss, delay)
        return len(gc.get_objects()) - before, tr
    finally:
        gc.enable()


def test_engine_keeps_no_tracked_object_per_round():
    # a collection after a run has nothing per round to walk: the held
    # transcript adds as many tracked objects at T = 4096 as at T = 256
    short, short_tr = tracked_objects_kept_by_a_run(256)
    long, long_tr = tracked_objects_kept_by_a_run(4096)
    assert len(long_tr.flat_components) == 4096 * 3
    assert abs(long - short) <= 8, (short, long)
    assert short <= 32, short


@pytest.mark.parametrize("enabled", [True, False])
def test_engine_leaves_the_collector_as_the_caller_set_it(enabled):
    seen = []

    class GcSpy(SpyLearner):
        def act(self, t):
            seen.append(gc.isenabled())
            return 0

    class Rogue(GcSpy):
        def act(self, t):
            return 7

    (gc.enable if enabled else gc.disable)()
    try:
        core.run_game(make_config(3), GcSpy(), adv.ConstantLoss(0.5), adv.NoDelay())
        assert seen == [enabled] * 3 and gc.isenabled() is enabled
        with pytest.raises(core.ActionError):
            core.run_game(make_config(2), Rogue(), adv.ConstantLoss(0.5), adv.NoDelay())
        assert gc.isenabled() is enabled
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


def test_engine_rejects_bad_split():
    class Cheat:
        delay_span = 2

        def split(self, t, actions, loss_value):
            return (loss_value, loss_value)

    # the error names the round, the seed and the pairing
    with pytest.raises(core.SplitError,
                       match=r"^round 1: .* \(seed 7, ConstantLoss\+Cheat\)$"):
        core.run_game(
            make_config(2, seed=7),
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
            make_config(4, seed=7), lrn.ScriptedLearner([0] * 4), loss, Forged(d, make)
        )


@pytest.mark.parametrize("span", [0, -1, True, 2.0, "2", None])
def test_engine_rejects_delay_span_that_is_not_a_positive_int(span):
    with pytest.raises(core.SplitError, match=r" \(seed 7, ConstantLoss\+Forged\)$"):
        core.run_game(make_config(4, seed=7), lrn.ScriptedLearner([0] * 4),
                      adv.ConstantLoss(0.5), Forged(span, lambda t, lv: (lv,)))


#: (d, slot) of a lone Decimal component: the first and the last slot
DECIMAL_SLOTS = ((1, 0), (2, 0), (2, 1), (3, 0), (3, 2), (32, 0), (32, 31))


# A Decimal compares with floats, so the split check can pass it; the
# buffer's add fails on it, and the engine names the component.
@pytest.mark.parametrize("comps", [
    ("a", 0.5), (None, 0.5), ("a",),
    *(tuple(Decimal("0.5") if s == slot else 0.0 for s in range(d)) for d, slot in DECIMAL_SLOTS),
], ids=["str", "none", "d1", *(f"decimal-d{d}-slot{slot}" for d, slot in DECIMAL_SLOTS)])
def test_engine_rejects_non_number_components(comps):
    d = len(comps)
    slot = next(i for i, c in enumerate(comps) if type(c) is not float)
    with pytest.raises(core.SplitError, match=rf"^round 1: component {slot} \(.*\) is not a number "
                                              r"\(seed 7, ConstantLoss\+Forged\)$"):
        core.run_game(make_config(4, seed=7), lrn.ScriptedLearner([0] * 4),
                      adv.ConstantLoss(0.5), Forged(d, lambda t, lv: comps))


# A Decimal NaN raises InvalidOperation, an ArithmeticError, on comparing;
# the check names it like any other component that is not a number.
@pytest.mark.parametrize("comps, slot", [
    ((Decimal("NaN"), 0.5), 0),
    ((0.0, 0.0, Decimal("NaN")), 2),
    ((0.5, 0.0, Decimal("sNaN")), 2),
], ids=["nan-d2", "nan-d3", "snan-d3"])
def test_engine_names_decimal_nan_components(comps, slot):
    message = (f"round 1: component {slot} ({comps[slot]!r}) is not a number "
               "(seed 7, ConstantLoss+Forged)")
    with pytest.raises(core.SplitError, match=f"^{re.escape(message)}$"):
        core.run_game(make_config(4, seed=7), lrn.ScriptedLearner([0] * 4),
                      adv.ConstantLoss(0.5), Forged(len(comps), lambda t, lv: comps))


#: (array, the loss left for the slot at the other end) of the array cases
ARRAY_COMPONENTS = {"two-element": (np.array([0.1, 0.2]), 0.5),
                    "one-element": (np.array([0.0]), 0.5),
                    "0d": (np.array(0.5), 0.0)}


def _array_case_params():
    for (name, (array, rest)), d, slot in product(ARRAY_COMPONENTS.items(), (2, 3), ("first", "last")):
        marks = ()
        if name == "0d" and d >= 3:
            marks = pytest.mark.xfail(strict=True, reason=(
                "a 0-d array converts in the fsum total and compares like a float, so the "
                "d >= 3 fast accept keeps it; no type test per slot (CHANGES.md FOUND)"))
        yield pytest.param(array, rest, d, 0 if slot == "first" else d - 1,
                           id=f"{name}-d{d}-{slot}", marks=marks)


# An array compares and converts elementwise: its truth value raises, or a
# one-element array slips through the comparisons and then fails fsum.  The
# check names it as not a number at every d.
@pytest.mark.parametrize("array, rest, d, slot", _array_case_params())
def test_engine_names_numpy_array_components(array, rest, d, slot):
    def make(t, lv):
        comps = [0.0] * d
        if t != 2:
            comps[0] = lv
            return tuple(comps)
        comps[slot] = array
        comps[d - 1 - slot] = rest
        return tuple(comps)

    message = (f"round 2: component {slot} ({array!r}) is not a number "
               "(seed 7, ConstantLoss+Forged)")
    with pytest.raises(core.SplitError, match=f"^{re.escape(message)}$"):
        core.run_game(make_config(4, seed=7), lrn.ScriptedLearner([0] * 4),
                      adv.ConstantLoss(0.5), Forged(d, make))


@pytest.mark.parametrize("d", [1, 2, 32])
def test_engine_builds_one_split_record_per_run(monkeypatch, d):
    built = []

    class CountedSplit(core.LossSplit):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(core, "LossSplit", CountedSplit)
    horizon = 64
    seed = run_seed(3, d)
    learner = lrn.UniformRandomLearner(3, substream(seed, LEARNER_STREAM))
    tr = core.run_game(make_config(horizon, arms=3, seed=seed), learner,
                       adv.TableLoss.from_seed(3, horizon, seed),
                       adv.SeededSplitDelay(d, horizon, seed))
    assert len(tr.components) == horizon and tr.delay_span == d
    assert len(built) == 1


def test_engine_refilled_split_record_leaks_nothing_between_rounds():
    # Round 2 returns a component of -1e-13, which the engine clamps; the
    # other rounds' tuples must come through as the very objects returned.
    script = {1: (0.1, 0.2, 0.2), 2: (0.5 + 1e-13, -1e-13, 0.0),
              3: (0.3, 0.1, 0.1), 4: (0.0, 0.25, 0.25)}
    tr = core.run_game(make_config(4, seed=7), lrn.ScriptedLearner([0] * 4),
                       adv.ConstantLoss(0.5), Forged(3, lambda t, lv: script[t]))
    assert tr.components[1] == (0.5 + 1e-13, 0.0, 0.0)
    assert math.copysign(1.0, tr.components[1][1]) == 1.0
    for t in (1, 3, 4):
        assert tr.components[t - 1] == script[t]
        assert all(c is r for c, r in zip(tr.components[t - 1], script[t]))
    assert tr.true_losses == (0.5,) * 4
    due = {}
    for t, comps in enumerate(tr.components, start=1):
        for s, c in enumerate(comps):
            due[t + s] = due.get(t + s, 0.0) + c
    assert tr.observed == pytest.approx([due[t] for t in (1, 2, 3, 4)], abs=1e-12)

    # an overfull split in a later round is named by that round
    script[3] = (0.3, 0.2, 0.1)
    with pytest.raises(core.SplitError, match=r"^round 3: components sum to .* "
                                              r"\(seed 7, ConstantLoss\+Forged\)$"):
        core.run_game(make_config(4, seed=7), lrn.ScriptedLearner([0] * 4),
                      adv.ConstantLoss(0.5), Forged(3, lambda t, lv: script[t]))


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_transcript_keeps_components_flat_in_round_order(d):
    # every fifth round at d >= 2 carries a -1e-13 in slot 1, which the
    # engine clamps; every other component is the very object returned
    horizon = 40
    seed = run_seed(6, d)
    inner = adv.SeededSplitDelay(d, horizon, seed)
    returned = {}

    class Recording:
        delay_span = d

        def split(self, t, actions, loss_value):
            comps = inner.split(t, actions, loss_value)
            if d >= 2 and t % 5 == 0:
                comps = (comps[0] + comps[1] + 1e-13, -1e-13) + comps[2:]
            returned[t] = comps
            return comps

    learner = lrn.UniformRandomLearner(3, substream(seed, LEARNER_STREAM))
    tr = core.run_game(make_config(horizon, arms=3, seed=seed), learner,
                       adv.TableLoss.from_seed(3, horizon, seed), Recording())
    assert len(tr.flat_components) == horizon * d
    assert tr.delay_span == d
    assert len(tr.components) == len(returned) == horizon
    for t, comps in returned.items():
        row = tr.components[t - 1]
        if d >= 2 and t % 5 == 0:
            assert row == (comps[0], 0.0) + comps[2:]
            assert math.copysign(1.0, row[1]) == 1.0
            continue
        assert row == comps
        for s, c in enumerate(comps):
            assert tr.flat_components[(t - 1) * d + s] is c
            assert row[s] is c


def test_engine_keeps_numpy_float_losses():
    for value in (np.float64(0.25), np.float32(0.5)):
        tr = core.run_game(make_config(3), lrn.ScriptedLearner([0] * 3),
                           ScriptedLoss([value] * 3), adv.NoDelay())
        assert tr.true_losses == (value,) * 3


def _admitted_pairings() -> list:
    pairings = []
    for adversary, (delay, span), learner, arms, memory in product(
            cli.ADVERSARIES, (("none", 0), ("parity", 0), ("statemachine", 0), ("lastslot", 0),
                              ("lastslot", 3), ("lastslot", 32)),
            cli.LEARNERS, (2, 3, 5), (0, 1)):
        try:
            pairings.append(cli.ExperimentSpec(adversary=adversary, delay=delay, learner=learner,
                                               arm_count=arms, delay_span=span,
                                               memory_bound=memory))
        except cli.UsageError:
            pass
    return pairings


#: every pairing ExperimentSpec admits, at K in {2, 3, 5}, d in {2, 3, 32}
#: for the last-slot delay, and memory bound 0 or 1
ADMITTED_PAIRINGS = _admitted_pairings()


class ClampedLastSlotDelay(adv.LastSlotDelay):
    """The last-slot split, with 1e-13 of the loss moved out of a zero slot
    every third round: a -1e-13 component, which the check clamps."""

    def split(self, t, actions, loss_value):
        comps = super().split(t, actions, loss_value)
        if t % 3:
            return comps
        s = t % (self.delay_span - 1)
        return comps[:s] + (-1e-13,) + comps[s + 1:-1] + (comps[-1] + 1e-13,)


@st.composite
def reference_games(draw):
    """(spec, delay kind, d, horizon, seed): a pairing ExperimentSpec admits,
    played with its own delay or with a seeded dense or a clamped last-slot
    delay of width d in {3, 32} in its place."""
    spec = draw(st.sampled_from(ADMITTED_PAIRINGS))
    horizon = draw(st.integers(min_value=3 if spec.adversary == "gapwalk" else 1, max_value=256))
    delay = draw(st.sampled_from(("spec", "seeded", "clamped")))
    return spec, delay, draw(st.sampled_from((3, 32))), horizon, draw(st.integers(0, 2 ** 32))


def _play(engine, spec, delay_kind, d, horizon, seed):
    config, learner, loss, delay, _ = cli._build_run(spec, horizon, seed)
    if delay_kind == "seeded":
        delay = adv.SeededSplitDelay(d, horizon, seed)
    elif delay_kind == "clamped":
        delay = ClampedLastSlotDelay(d)
    tr = engine(config, learner, loss, delay)
    state = getattr(getattr(learner, "inner", learner), "cum_loss_est", ())
    hexes = lambda xs: [float(x).hex() for x in xs]
    return (tr.actions, hexes(tr.true_losses), hexes(tr.observed), tr.delay_span,
            hexes(tr.flat_components), hexes(state))


@given(reference_games())
@example((cli.ExperimentSpec(adversary="iid", delay="lastslot", delay_span=32), "spec", 3, 256, 0))
@example((cli.ExperimentSpec(adversary="constant", delay="none", learner="exp3"), "clamped", 32, 40, 1))
@settings(max_examples=200, deadline=None)
def test_run_game_matches_the_reference_engine(game):
    # the whole run against the protocol written plainly: same actions, and
    # the same floats for every loss, observation, component and EXP3 state
    assert _play(core.run_game, *game) == _play(util.reference_run_game, *game)


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
@example((DISCRETE, 1, [0], [1.0], ["junk-component"], [True]))
@example((DISCRETE, 2, [0], [0.5], ["junk-component"], [False]))
@example((DISCRETE, 1, [1], [1.0], ["junk-component"], [np.bool_(True)]))
@settings(max_examples=300, deadline=None)
def test_engine_raises_only_typed_errors_on_junk(game):
    space, d, actions, losses, kinds, junk = game
    config = core.GameConfig(len(actions), space, master_seed=7)
    try:
        tr = core.run_game(config, lrn.ScriptedLearner(actions), ScriptedLoss(losses),
                           JunkDelay(d, kinds, junk))
    except core.SimulationError as e:
        assert str(e).endswith(" (seed 7, ScriptedLoss+JunkDelay)"), str(e)
        return
    assert not any(type(lv) in (bool, np.bool_, np.ndarray) for lv in tr.true_losses)
    assert all(type(c) is tuple and len(c) == d for c in tr.components)
    if d <= 2:
        assert not any(type(c) in (bool, np.bool_) for comps in tr.components for c in comps)


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_unobserved_mass_bounded_by_span(d):
    horizon = 200
    seed = run_seed(2, d)
    loss = adv.TableLoss.from_seed(3, horizon, seed)
    delay = adv.SeededSplitDelay(d, horizon, seed)
    learner = lrn.UniformRandomLearner(3, substream(seed, LEARNER_STREAM))
    tr = core.run_game(make_config(horizon, arms=3, seed=seed), learner, loss, delay)
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


def _uniform(arms):
    return core.Discrete(arms), lambda rng: lrn.UniformRandomLearner(arms, rng)


def _gapwalk_case():
    loss = adv.GapWalkLoss(adv.MultiScaleWalk(0.2, 300, master_seed=3), 3, best_arm=2, gap=0.1)
    return (loss, adv.DelayStateMachine(loss), *_uniform(3))


def _ball_case():
    space = core.ConvexBall(2, 1.0, [(0, 0), (0.3, -0.2), (-0.5, 0.5)])
    return (util.QuadLoss((0.3, -0.2)), adv.LastSlotDelay(3), space,
            lambda rng: lrn.MiniBatchWrapper(lrn.FkmLearner(2, 1.0, 60, rng), 5, 300))


#: name -> (loss, delay, action space, learner from its rng) at T = 300
REPLAY_CASES = {
    "ball": _ball_case,
    "lagged": lambda: (util.LaggedLoss(2), adv.NoDelay(), *_uniform(2)),
    "paritytrap": lambda: (adv.ParityTrapLoss(1), adv.ParityDelay(), *_uniform(2)),
    "gapwalk": _gapwalk_case,
}


@pytest.mark.parametrize("name", sorted(REPLAY_CASES))
def test_regret_replay_equals_swap_and_restore_oracle(name):
    loss, delay, space, make_learner = REPLAY_CASES[name]()
    comparators = space.comparators()
    seed = run_seed(6, len(comparators))
    learner = make_learner(substream(seed, LEARNER_STREAM))
    tr = core.run_game(core.GameConfig(300, space, master_seed=seed), learner, loss, delay)
    policy, pseudo = util.swap_and_restore_regret(loss, tr.actions, comparators)
    report = core.policy_regret(tr, loss)
    assert report.policy_regret == policy
    assert report.pseudo_regret == pseudo


def test_parity_trap_all_sequences_at_t4():
    # every deterministic policy: policy regret exactly zero, pseudo regret
    # counts odd-round mistakes
    for best in (0, 1):
        loss = adv.ParityTrapLoss(best)
        for seq in product((0, 1), repeat=4):
            tr = core.run_game(
                make_config(4), lrn.ScriptedLearner(seq), loss, adv.ParityDelay()
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
# regret by per-arm totals


class ReplayOnly:
    """A loss without ``arm_totals``: ``policy_regret`` replays it call by
    call."""

    def __init__(self, inner):
        self.loss = inner.loss


class ForwardingCounter(CountingLoss):
    """Counts loss calls and forwards every other attribute, ``arm_totals``
    included, as the benchmark's tracing proxy does."""

    def __getattr__(self, name):
        return getattr(self.inner, name)


#: one loss of each class in ``adversaries`` that prices itself, from a seed,
#: on arms 0..2 and rounds 1..64
PRICING_LOSSES = {
    "ConstantLoss": lambda seed: adv.ConstantLoss(float(np.random.default_rng(seed).random())),
    "GapWalkLoss": lambda seed: adv.GapWalkLoss(adv.MultiScaleWalk(0.2, 64, master_seed=seed),
                                                3, (None, 0, 1, 2)[seed % 4], 0.1),
    "ParityTrapLoss": lambda seed: adv.ParityTrapLoss(seed % 2),
    "TableLoss": lambda seed: adv.TableLoss.from_seed(3, 64, seed),
}


def test_every_loss_that_prices_itself_is_held_to_the_replay():
    """Each public class in ``adversaries`` with ``arm_totals`` answers the
    pricing call exactly as the call-by-call replay does, on random
    histories and comparator lists, so no pricing method skips the oracle."""
    pricing = {name for name, cls in vars(adv).items()
               if isinstance(cls, type) and not name.startswith("_") and hasattr(cls, "arm_totals")}
    assert pricing == set(PRICING_LOSSES)
    rng = np.random.default_rng(28)
    for name, make in sorted(PRICING_LOSSES.items()):
        for seed in range(8):
            loss = make(seed)
            for horizon in (1, 2, int(rng.integers(3, 65)), 64):
                actions = [int(a) for a in rng.integers(0, 3, horizon)]
                if seed % 2:
                    actions = [np.int64(a) for a in actions]
                draws = [int(a) for a in rng.integers(0, 3, int(rng.integers(1, 7)))]
                for comparators in ([0, 1, 2], [2, 1, 0], [1], draws,
                                    [np.int64(y) for y in draws] + [0, 0]):
                    priced = loss.arm_totals(actions, comparators)
                    assert priced == core._replay_totals(loss.loss, actions, comparators)
                    tr = core.run_game(make_config(horizon, arms=3), lrn.ScriptedLearner(actions),
                                       loss, adv.NoDelay())
                    assert (core.policy_regret(tr, loss, comparators)
                            == core.policy_regret(tr, ReplayOnly(loss), comparators))


#: (adversary, delay, delay_span, learner) for every oblivious CLI pairing
OBLIVIOUS_PAIRINGS = [
    (adversary, delay, span, learner)
    for adversary in ("constant", "iid", "gapwalk")
    for delay, span in (("none", 0), ("lastslot", 0), ("lastslot", 5), ("statemachine", 0))
    if delay != "statemachine" or adversary == "gapwalk"
    for learner in cli.LEARNERS
]


@pytest.mark.parametrize("adversary,delay,span,learner", OBLIVIOUS_PAIRINGS)
def test_row_path_equals_replay_on_oblivious_cli_pairings(adversary, delay, span, learner):
    for arms in (2, 3):
        spec = cli.ExperimentSpec(adversary=adversary, delay=delay, learner=learner,
                                  horizons=(150,), arm_count=arms, delay_span=span)
        for rep in range(3):
            tr, loss, _, _ = checks.play(spec, 150, run_seed(17, 10 * arms + rep))
            assert core.policy_regret(tr, loss) == core.policy_regret(tr, ReplayOnly(loss))
        # subsets, duplicates and reorderings read the same columns of every arm
        for comparators in ([arms - 1], [1, 0], [0, 1, 0, 1], list(range(arms))[::-1],
                            [arms - 1] * 3 + [0], [np.int64(1), 0]):
            assert (core.policy_regret(tr, loss, comparators)
                    == core.policy_regret(tr, ReplayOnly(loss), comparators))


def _two_arm_run(loss):
    tr = core.run_game(make_config(5), lrn.ScriptedLearner([0, 1, 1, 0, 1]), loss,
                       adv.NoDelay())
    return tr, loss


def _ball_run():
    loss, delay, space, make_learner = _ball_case()
    learner = make_learner(substream(run_seed(23, 0), LEARNER_STREAM))
    return core.run_game(core.GameConfig(300, space), learner, loss, delay), loss


#: name -> (transcript, loss) and a comparator list whose last entry lies
#: outside the action space
OUTSIDE_COMPARATORS = {
    "table-negative": (lambda: _two_arm_run(adv.TableLoss.from_seed(2, 5, 1)), [0, 1, -1]),
    "table-past-k": (lambda: _two_arm_run(adv.TableLoss.from_seed(2, 5, 1)), [0, 1, 5]),
    "gapwalk-past-k": (lambda: _two_arm_run(adv.GapWalkLoss(
        adv.MultiScaleWalk(0.2, 5, master_seed=3), 2, best_arm=1, gap=0.1)), [0, 1, 7]),
    "ball": (_ball_run, [(0.0, 0.0), (0.3, -0.2), (2.0, 0.0)]),
}


@pytest.mark.parametrize("name", sorted(OUTSIDE_COMPARATORS))
def test_comparators_outside_the_action_space_are_rejected(name):
    make_run, comparators = OUTSIDE_COMPARATORS[name]
    tr, loss = make_run()
    match = rf"^comparator {re.escape(repr(comparators[-1]))} is not in the action space$"
    inside = []
    for path in (loss, ReplayOnly(loss)):
        with pytest.raises(ValueError, match=match):
            core.policy_regret(tr, path, comparators)
        inside.append(core.policy_regret(tr, path, comparators[:-1]))
    assert inside[0] == inside[1]


@pytest.mark.parametrize("arms", [2, 3])
def test_row_path_equals_replay_on_gapwalk_without_hidden_arm(arms):
    loss = adv.GapWalkLoss(adv.MultiScaleWalk(0.2, 300, master_seed=4), arms, None, 0.1)
    for rep in range(3):
        seed = run_seed(18, 10 * arms + rep)
        learner = lrn.Exp3Learner(arms, 300, substream(seed, LEARNER_STREAM))
        tr = core.run_game(make_config(300, arms=arms, seed=seed), learner, loss,
                           adv.DelayStateMachine(loss))
        report = core.policy_regret(tr, loss)
        assert report == core.policy_regret(tr, ReplayOnly(loss))
        assert report.policy_regret == report.pseudo_regret == 0.0


@pytest.mark.parametrize("adversary", ["constant", "iid", "gapwalk"])
def test_row_path_makes_no_loss_calls(adversary):
    spec = cli.ExperimentSpec(adversary=adversary, delay="none", learner="exp3",
                              horizons=(64,), arm_count=3)
    tr, loss, _, _ = checks.play(spec, 64, run_seed(19, 0))
    counting = ForwardingCounter(loss)
    assert core.policy_regret(tr, counting) == core.policy_regret(tr, ReplayOnly(loss))
    assert counting.calls == 0
    # a comparator subset reads the same tables: still no loss call
    assert (core.policy_regret(tr, counting, comparators=[0])
            == core.policy_regret(tr, ReplayOnly(loss), comparators=[0]))
    assert counting.calls == 0


@pytest.mark.parametrize("adversary", ["iid", "gapwalk"])
def test_row_path_names_the_tampered_round(adversary):
    spec = cli.ExperimentSpec(adversary=adversary, delay="none", learner="uniform",
                              horizons=(80,))
    tr, loss, _, _ = checks.play(spec, 80, run_seed(20, 0))
    true_losses = list(tr.true_losses)
    true_losses[36] = true_losses[36] / 2
    tampered = dataclasses.replace(tr, true_losses=tuple(true_losses))
    match = rf"^round 37: replayed loss {tr.true_losses[36]!r} != recorded {true_losses[36]!r}"
    for path in (loss, ReplayOnly(loss)):
        with pytest.raises(core.ReplayError, match=match):
            core.policy_regret(tampered, path)


@pytest.mark.parametrize("adversary", ["iid", "gapwalk"])
def test_row_path_rejects_a_horizon_beyond_the_loss(adversary):
    spec = cli.ExperimentSpec(adversary=adversary, delay="none", learner="uniform",
                              horizons=(60,))
    seed = run_seed(21, 0)
    tr, _, _, _ = checks.play(spec, 60, seed)
    short = cli._build_run(spec, 50, seed)[2]
    for path in (short, ReplayOnly(short)):
        with pytest.raises(ValueError, match=r"^t=51 outside 1\.\.50$"):
            core.policy_regret(tr, path)


#: two-armed oblivious losses narrower than a three-armed space
NARROW_LOSSES = {
    "table": lambda: adv.TableLoss.from_seed(2, 64, 1),
    "gapwalk": lambda: adv.GapWalkLoss(adv.MultiScaleWalk(0.2, 64, master_seed=3), 2, 1, 0.1),
    "gapwalk-nobest": lambda: adv.GapWalkLoss(adv.MultiScaleWalk(0.2, 64, master_seed=3), 2,
                                              None, 0.1),
}


@pytest.mark.parametrize("name", sorted(NARROW_LOSSES))
def test_a_loss_narrower_than_the_space_names_the_arm_it_lacks(name):
    loss = NARROW_LOSSES[name]()
    match = r"^arm 2 outside 0\.\.1$"
    learner = lrn.UniformRandomLearner(3, substream(run_seed(22, 0), LEARNER_STREAM))
    with pytest.raises(ValueError, match=match):
        core.run_game(make_config(64, arms=3), learner, loss, adv.NoDelay())
    # a history that never plays arm 2 runs, and pricing arm 2 names it on
    # either path
    tr = core.run_game(make_config(64, arms=3), lrn.ScriptedLearner([0, 1] * 32), loss,
                       adv.NoDelay())
    for comparators in (None, [2], [0, 2, 1]):
        for path in (loss, ReplayOnly(loss)):
            with pytest.raises(ValueError, match=match):
                core.policy_regret(tr, path, comparators)
    # comparators the loss has are priced alike on either path
    for comparators in ([0, 1], [1, 0]):
        assert (core.policy_regret(tr, loss, comparators)
                == core.policy_regret(tr, ReplayOnly(loss), comparators))


def test_constant_loss_prices_ball_points_without_loss_calls():
    # a constant loss prices any comparator alike, a point of a ball included
    space = core.ConvexBall(2, 1.0, [(0.0, 0.0), (0.5, 0.0)])
    points = [np.array([0.1 * t, 0.0]) for t in range(1, 5)]
    loss = ForwardingCounter(adv.ConstantLoss(0.5))
    tr = core.run_game(core.GameConfig(4, space), lrn.ScriptedLearner(points), loss,
                       adv.NoDelay())
    loss.calls = 0
    report = core.policy_regret(tr, loss)
    assert loss.calls == 0
    assert report == core.RegretReport(2.0, 0.0, 0.0)
    assert report == core.policy_regret(tr, ReplayOnly(loss.inner))


def _trap_run(learner, horizon, seed):
    spec = cli.ExperimentSpec(adversary="paritytrap", delay="parity", learner=learner,
                              horizons=(horizon,), memory_bound=1)
    tr, loss, _, _ = checks.play(spec, horizon, seed)
    return tr, loss


@pytest.mark.parametrize("horizon", [1, 2, 3, 7, 64, 1001, 2 ** 13])
@pytest.mark.parametrize("learner", ["exp3", "uniform"])
def test_trap_totals_equal_replay(learner, horizon):
    hidden = set()
    for rep in range(6):
        tr, loss = _trap_run(learner, horizon, run_seed(24, rep))
        hidden.add(loss.best_arm)
        assert core.policy_regret(tr, loss) == core.policy_regret(tr, ReplayOnly(loss))
        # subsets, duplicates, reorderings and numpy integers price the same
        for comparators in ([0], [1], [1, 0], [0, 1, 0, 1], [1] * 3 + [0],
                            [np.int64(1), 0], [np.int64(0)]):
            assert (core.policy_regret(tr, loss, comparators)
                    == core.policy_regret(tr, ReplayOnly(loss), comparators))
    assert hidden == {0, 1}


@settings(max_examples=200, deadline=None)
@given(best=st.integers(0, 1), actions=st.lists(st.integers(0, 1), min_size=1, max_size=40),
       numpy_actions=st.booleans())
def test_trap_totals_equal_replay_on_any_history(best, actions, numpy_actions):
    script = [np.int64(a) for a in actions] if numpy_actions else actions
    loss = adv.ParityTrapLoss(best)
    tr = core.run_game(make_config(len(actions)), lrn.ScriptedLearner(script), loss,
                       adv.ParityDelay())
    assert core.policy_regret(tr, loss) == core.policy_regret(tr, ReplayOnly(loss))


def test_trap_totals_price_a_third_arm_like_the_arm_that_is_not_hidden():
    # the trap compares actions with its hidden arm only, so on Discrete(3)
    # arm 2 costs what the other arm that is not hidden costs
    for best in (0, 1):
        loss = adv.ParityTrapLoss(best)
        for rep in range(3):
            seed = run_seed(25, 10 * best + rep)
            learner = lrn.UniformRandomLearner(3, substream(seed, LEARNER_STREAM))
            tr = core.run_game(make_config(101, arms=3, seed=seed), learner, loss,
                               adv.ParityDelay())
            assert 2 in tr.actions
            for comparators in (None, [2], [2, best], [1 - best, 2]):
                assert (core.policy_regret(tr, loss, comparators)
                        == core.policy_regret(tr, ReplayOnly(loss), comparators))
            _, constant, swapped = loss.arm_totals(tr.actions, [2, 1 - best])
            assert constant[0] == constant[1]
            assert swapped[0] == swapped[1]


def test_trap_totals_name_the_tampered_round():
    tr, loss = _trap_run("exp3", 64, run_seed(26, 0))
    true_losses = list(tr.true_losses)
    true_losses[40] = 1.0 - true_losses[40]
    tampered = dataclasses.replace(tr, true_losses=tuple(true_losses))
    match = rf"^round 41: replayed loss {tr.true_losses[40]!r} != recorded {true_losses[40]!r}"
    for path in (loss, ReplayOnly(loss)):
        with pytest.raises(core.ReplayError, match=match):
            core.policy_regret(tampered, path)


def test_trap_totals_make_no_loss_calls():
    tr, loss = _trap_run("exp3", 64, run_seed(27, 0))
    counting = ForwardingCounter(loss)
    assert core.policy_regret(tr, counting) == core.policy_regret(tr, ReplayOnly(loss))
    assert (core.policy_regret(tr, counting, comparators=[1])
            == core.policy_regret(tr, ReplayOnly(loss), comparators=[1]))
    assert counting.calls == 0


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
    loss = util.LaggedLoss(lag=2)
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
    loss = util.LaggedLoss(lag=2)
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
    loss = util.LaggedLoss(lag)
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
        adv.ConstantLoss(), 5, action_space=core.Discrete(2), horizon=4,
        rng=np.random.default_rng(0),
    )
    assert res.passed and res.trials == 0
