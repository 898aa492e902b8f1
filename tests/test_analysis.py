"""Censored-Gaussian KL, total-variation budgets, scaling fits, audits."""

import math
import warnings

import numpy as np
import pytest
from scipy.stats import norm

import util
from delaybandits import adversaries as adv
from delaybandits import analysis, checks, cli
from delaybandits import core
from delaybandits import learners as lrn
from delaybandits.seeding import LEARNER_STREAM, run_seed, substream

MUS = (0.6, 0.7, 0.8, 0.9)
SIGMAS = (0.01, 0.05, 0.1, 0.5)


# ---------------------------------------------------------------------------
# censored Gaussians


class TestCensoredGaussian:
    def test_default_window(self):
        p = analysis.CensoredGaussian(0.7, 0.1)
        assert (p.lower, p.upper) == (0.5, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            analysis.CensoredGaussian(0.7, 0.0)
        with pytest.raises(ValueError):
            analysis.CensoredGaussian(0.7, 0.1, 1.0, 0.5)

    def test_atoms_are_tail_masses(self):
        lower, upper = analysis.CensoredGaussian(0.7, 0.1).log_atoms()
        assert lower == pytest.approx(norm.logcdf(0.5, 0.7, 0.1), rel=1e-12)
        assert upper == pytest.approx(norm.logsf(1.0, 0.7, 0.1), rel=1e-12)

    def test_deep_tail_atom_stays_finite_in_log_space(self):
        # the upper atom is Phi(-40), which underflows to 0 in plain form
        lower, upper = analysis.CensoredGaussian(0.6, 0.01).log_atoms()
        assert norm.sf(1.0, 0.6, 0.01) == 0.0
        assert math.isfinite(upper)
        assert upper == pytest.approx(norm.logsf(1.0, 0.6, 0.01), rel=1e-12)
        assert lower == pytest.approx(norm.logcdf(0.5, 0.6, 0.01), rel=1e-12)

    def test_density_vanishes_outside_window(self):
        p = analysis.CensoredGaussian(0.7, 0.1)
        assert p.density(0.4) == 0.0
        assert p.density(1.1) == 0.0
        assert p.density(0.7) == pytest.approx(norm.pdf(0.7, 0.7, 0.1), rel=1e-12)

    @pytest.mark.parametrize("mu", [0.3, 0.6, 0.75, 0.9, 1.4])
    @pytest.mark.parametrize("sigma", [0.01, 0.1, 0.5])
    def test_total_mass_is_one(self, mu, sigma):
        p = analysis.CensoredGaussian(mu, sigma)
        assert p.total_mass() == pytest.approx(1.0, abs=1e-9)


def test_mass_and_kl_read_the_one_set_of_atoms_and_density(monkeypatch):
    calls = {"log_atoms": 0, "density": 0}
    for name in calls:
        method = getattr(analysis.CensoredGaussian, name)

        def counted(self, *args, _name=name, _method=method):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(analysis.CensoredGaussian, name, counted)
    analysis.CensoredGaussian(0.7, 0.1).total_mass()
    assert calls["log_atoms"] >= 1 and calls["density"] >= 1
    calls.update(log_atoms=0, density=0)
    analysis.censored_kl(analysis.CensoredGaussian(0.7, 0.1),
                         analysis.CensoredGaussian(0.8, 0.1))
    assert calls["log_atoms"] >= 2 and calls["density"] >= 1


class TestCensoredKl:
    def test_equal_means_is_exactly_zero(self):
        p = analysis.CensoredGaussian(0.7, 0.1)
        q = analysis.CensoredGaussian(0.7, 0.1)
        assert analysis.censored_kl(p, q) == 0.0

    def test_requires_shared_shape(self):
        p = analysis.CensoredGaussian(0.7, 0.1)
        with pytest.raises(ValueError):
            analysis.censored_kl(p, analysis.CensoredGaussian(0.8, 0.2))
        with pytest.raises(ValueError):
            analysis.censored_kl(p, analysis.CensoredGaussian(0.8, 0.1, 0.4, 1.0))

    def test_grid_agrees_with_both_oracles(self):
        for mp in MUS:
            for mq in MUS:
                for s in SIGMAS:
                    impl = analysis.censored_kl(
                        analysis.CensoredGaussian(mp, s),
                        analysis.CensoredGaussian(mq, s),
                    )
                    cf = util.closed_form_censored_kl(mp, mq, s, 0.5, 1.0)
                    si = util.simpson_censored_kl(mp, mq, s, 0.5, 1.0)
                    assert impl == pytest.approx(cf, abs=1e-9)
                    assert impl == pytest.approx(si, abs=1e-8)

    def test_censoring_never_exceeds_gaussian_kl(self):
        for mp in MUS:
            for mq in MUS:
                for s in SIGMAS:
                    impl = analysis.censored_kl(
                        analysis.CensoredGaussian(mp, s),
                        analysis.CensoredGaussian(mq, s),
                    )
                    assert impl <= analysis.gaussian_kl(mp, mq, s) + 1e-9

    def test_wide_window_recovers_gaussian_kl(self):
        s = 0.02
        mp, mq = 0.6, 0.64
        lo, hi = mp - 10 * s, mp + 10 * s
        impl = analysis.censored_kl(
            analysis.CensoredGaussian(mp, s, lo, hi),
            analysis.CensoredGaussian(mq, s, lo, hi),
        )
        assert impl == pytest.approx(analysis.gaussian_kl(mp, mq, s), abs=1e-6)

    def test_deep_tail_atoms_stay_finite(self):
        # q's upper atom underflows to 0 in plain double precision; the
        # log-space route keeps the term finite and tiny
        impl = analysis.censored_kl(
            analysis.CensoredGaussian(0.9, 0.01),
            analysis.CensoredGaussian(0.6, 0.01),
        )
        assert math.isfinite(impl)
        assert impl == pytest.approx(450.0, abs=1e-6)

    def test_mean_far_outside_window(self):
        impl = analysis.censored_kl(
            analysis.CensoredGaussian(0.75, 0.5),
            analysis.CensoredGaussian(5.0, 0.5),
        )
        cf = util.closed_form_censored_kl(0.75, 5.0, 0.5, 0.5, 1.0)
        assert impl == pytest.approx(cf, abs=1e-9)


def test_gaussian_kl_and_pinsker():
    assert analysis.gaussian_kl(0.8, 0.6, 0.1) == pytest.approx(2.0, rel=1e-15)
    assert analysis.pinsker_tv(2.0) == pytest.approx(1.0, rel=1e-15)
    with pytest.raises(ValueError):
        analysis.gaussian_kl(0.5, 0.5, 0.0)
    with pytest.raises(ValueError):
        analysis.pinsker_tv(-0.1)


def test_observation_tv_bound_formula():
    got = analysis.observation_tv_bound(0.05, 0.02, 4, 100)
    want = (0.05 / 0.02) * math.sqrt(4 * (2 + 8 * 0.05 * 100 / (1 - 0.4)) / 4)
    assert got == pytest.approx(want, rel=1e-15)
    with pytest.raises(ValueError):
        analysis.observation_tv_bound(0.2, 0.02, 4, 100)
    with pytest.raises(ValueError):
        analysis.observation_tv_bound(0.05, 0.0, 4, 100)
    with pytest.raises(ValueError):
        analysis.observation_tv_bound(0.05, 0.02, -1, 100)


# ---------------------------------------------------------------------------
# empirical stream distance


def test_marginal_tv_detects_known_shift():
    rng = np.random.default_rng(0)
    p = rng.normal(0.0, 1.0, (20000, 2))
    q = rng.normal(0.0, 1.0, (20000, 2))
    q[:, 1] += 1.0
    tv = analysis.marginal_tv(p, q, 0.25)
    want = 2 * norm.cdf(0.5) - 1  # exact TV of unit shift at unit variance
    assert tv == pytest.approx(want, abs=0.05)


def test_marginal_tv_identical_samples_is_zero():
    x = np.random.default_rng(1).normal(size=(100, 3))
    assert analysis.marginal_tv(x, x, 0.1) == 0.0


def test_marginal_tv_validation():
    x = np.zeros((10, 2))
    with pytest.raises(ValueError):
        analysis.marginal_tv(x, np.zeros((10, 3)), 0.1)
    with pytest.raises(ValueError):
        analysis.marginal_tv(x, x, 0.0)


@pytest.mark.parametrize("p,q,width,match", [
    ([[math.inf]], [[0.0]], 0.1, r"^samples_p holds a non-finite sample, inf$"),
    ([[0.0]], [[math.nan]], 0.1, r"^samples_q holds a non-finite sample, nan$"),
    ([[0.0]], [[1e300]], 1e-300,
     r"^bin count over \[0\.0, 1e\+300\] at width 1e-300 overflows$"),
    ([[-1e308]], [[1e308]], 1.0, r"^bin count over .* overflows$"),
], ids=["inf-sample", "nan-sample", "width-tiny-next-to-range", "range-overflows"])
def test_marginal_tv_names_bad_samples_and_overflowing_bins(p, q, width, match):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match):
            analysis.marginal_tv(p, q, width)


def test_masked_streams_stay_within_analytic_budget():
    """Paired simulation: hidden-arm observation stream vs no-hidden-arm
    stream, same walks and same actions.  The empirical per-round marginal
    distance must sit under twice the analytic budget (factor covers the
    histogram's finite-sample bias)."""
    horizon, n = 32, 4000
    gap, sigma = adv.gap_walk_defaults(2, horizon)
    obs_plain = np.empty((n, horizon))
    obs_masked = np.empty((n, horizon))
    pulls = 0
    for rep in range(n):
        master = run_seed(60, rep)
        walk = adv.MultiScaleWalk(sigma, horizon, master)
        plain = adv.GapWalkLoss(walk, 2, None, gap)
        masked = adv.GapWalkLoss(walk, 2, 0, gap)
        cfg = core.GameConfig(horizon, core.Discrete(2), master_seed=master)
        tr0 = core.run_game(
            cfg, lrn.UniformRandomLearner(2, substream(master, LEARNER_STREAM)),
            plain, adv.DelayStateMachine(plain),
        )
        tr1 = core.run_game(
            cfg, lrn.UniformRandomLearner(2, substream(master, LEARNER_STREAM)),
            masked, adv.DelayStateMachine(masked),
        )
        assert tr0.actions == tr1.actions  # feedback never leaks into play
        obs_plain[rep] = tr0.observed
        obs_masked[rep] = tr1.observed
        pulls += sum(1 for a in tr1.actions if a == 0)
    budget = analysis.observation_tv_bound(
        gap, sigma, adv.width(adv.walk_parent, horizon), pulls / n
    )
    tv = analysis.marginal_tv(obs_plain, obs_masked, sigma)
    assert tv <= 2 * budget


# ---------------------------------------------------------------------------
# scaling fits


def test_fit_exponent_recovers_exact_power_law():
    pts = [(2 ** k, 3.5 * (2 ** k) ** 0.66) for k in range(6, 12)]
    fit = analysis.fit_exponent(pts)
    assert fit.exponent == pytest.approx(0.66, abs=1e-12)
    assert fit.multiplier == pytest.approx(3.5, rel=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.points == tuple((int(t), float(v)) for t, v in pts)


def test_fit_exponent_with_noise_keeps_high_r2():
    rng = np.random.default_rng(2)
    pts = [(2 ** k, 2.0 * (2 ** k) ** 0.5 * math.exp(rng.normal(0, 0.01))) for k in range(8, 14)]
    fit = analysis.fit_exponent(pts)
    assert fit.exponent == pytest.approx(0.5, abs=0.02)
    assert fit.r_squared > 0.99


def test_fit_exponent_validation():
    with pytest.raises(ValueError):
        analysis.fit_exponent([(10, 1.0), (20, 2.0)])
    with pytest.raises(ValueError):
        analysis.fit_exponent([(10, 1.0), (10, 2.0), (30, 3.0)])
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and strictly positive"):
            analysis.fit_exponent([(10, 1.0), (20, bad), (30, 3.0)])


def test_fit_exponent_rejects_fractional_horizons():
    # each horizon is checked, not truncated: 1.5 and 2.5 once fit as 1 and 2
    with pytest.raises(ValueError, match=r"^horizon must be an integer, got 1\.5$"):
        analysis.fit_exponent([(1.5, 1.0), (2.5, 2.0), (4, 4.0)])
    with pytest.raises(ValueError, match=r"^horizon must be an integer, got 2\.5$"):
        analysis.fit_exponent([(1, 1.0), (2.5, 2.0), (4, 4.0)])
    fit = analysis.fit_exponent([(np.int64(1), 1.0), (2, 2.0), (4, 4.0)])
    assert fit.points == ((1, 1.0), (2, 2.0), (4, 4.0))
    assert type(fit.points[0][0]) is int


# ---------------------------------------------------------------------------
# delay accounting audit


def run_wrapped(horizon, tau, d, seed_tag):
    spec = cli.ExperimentSpec("iid", "none" if d == 1 else "lastslot", "wrapper-exp3",
                              delay_span=0 if d == 1 else d, batch_size=tau)
    return checks.play(spec, horizon, run_seed(70, seed_tag))[0]


def test_audit_no_delay_is_exactly_tight():
    tr = run_wrapped(128, 4, 1, 0)
    audit = analysis.audit_delay_accounting(tr, 4)
    assert audit.passed
    assert audit.aggregate_gap == pytest.approx(0.0, abs=1e-12)
    assert audit.batch_count == 32


@pytest.mark.parametrize("tau,d", [(4, 2), (8, 4), (5, 5)])
def test_audit_passes_under_full_delay(tau, d):
    tr = run_wrapped(200, tau, d, 10 * tau + d)
    audit = analysis.audit_delay_accounting(tr, tau)
    assert audit.passed, audit.failures
    assert audit.batch_sum_max <= tau + d - 1 + 1e-9
    assert audit.batch_count == 200 // tau


def test_audit_counts_only_complete_batches():
    tr = run_wrapped(130, 4, 2, 99)
    audit = analysis.audit_delay_accounting(tr, 4)
    assert audit.batch_count == 32  # two leftover rounds are not a batch


def fake_transcript(observed, true_losses, d):
    cfg = core.GameConfig(len(observed), core.Discrete(2))
    return core.Transcript(
        config=cfg,
        actions=(0,) * len(observed),
        true_losses=tuple(true_losses),
        observed=tuple(observed),
        delay_span=d,
        flat_components=[0.0] * (d * len(observed)),
    )


def test_audit_flags_overfull_batch():
    # a batch summing to exactly tau + d - 1 sits on the boundary and passes
    boundary = fake_transcript([1.5, 1.5], [1.5, 1.5], 2)
    assert analysis.audit_delay_accounting(boundary, 2).passed
    # 2.0 per round with tau = 2, d = 2 gives batch sums of 4 > 3: one
    # failure line per overfull batch, and the aggregate gap 0 passes
    over = fake_transcript([2.0] * 4, [2.0] * 4, 2)
    audit = analysis.audit_delay_accounting(over, 2)
    assert not audit.passed
    assert audit.failures == ("batch 0: observed sum 4.0 exceeds 3",
                              "batch 1: observed sum 4.0 exceeds 3")


def test_audit_flags_negative_aggregate_gap():
    tr = fake_transcript([0.9, 0.9], [0.5, 0.5], 2)
    audit = analysis.audit_delay_accounting(tr, 1)
    assert not audit.passed
    assert any("aggregate" in f for f in audit.failures)


def test_audit_validation():
    tr = fake_transcript([0.5], [0.5], 1)
    with pytest.raises(ValueError):
        analysis.audit_delay_accounting(tr, 0)
