"""Numeric verification tools: censored-Gaussian information bounds,
regret-scaling fits, and the observation accounting audit of wrapped runs.

The censored Gaussian here is the law of a truncated observation: a
Gaussian whose mass below the window collapses to an atom at the lower
edge and above it to an atom at the upper edge, with the untouched density
in between.  One :class:`CensoredGaussian` holds its log-space atoms and
its density, which both the KL and the unit-mass check read.  The KL bounds
how distinguishable two observation streams are; it never exceeds the plain
Gaussian KL of the means.

scipy is imported inside the censored-Gaussian functions, on their first
call, so importing the package (and running ``run``, ``sweep`` or
``analyze``) never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .adversaries import switch_bound
from .core import check_int, check_real

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_AUDIT_ATOL = 1e-9


# ---------------------------------------------------------------------------
# censored Gaussians


@dataclass(frozen=True)
class CensoredGaussian:
    """N(mu, sigma^2) censored to [lower, upper].

    Censoring, not conditioning: mass outside the window piles up as atoms
    at the edges instead of being renormalized away.
    """

    mu: float
    sigma: float
    lower: float = 0.5
    upper: float = 1.0

    def __post_init__(self):
        for name, low in (("mu", -math.inf), ("sigma", 0.0), ("lower", -math.inf),
                          ("upper", -math.inf)):
            value = check_real(name, getattr(self, name), low, math.inf,
                               open_low=True, open_high=True)
            object.__setattr__(self, name, value)
        if not self.lower < self.upper:
            raise ValueError("need lower < upper")

    def log_atoms(self) -> tuple:
        """Logs of the masses collapsed onto the lower and the upper edge,
        Phi((lower - mu) / sigma) and Phi((mu - upper) / sigma).  Log-CDFs
        keep them finite far into the tails, where the masses underflow."""
        from scipy.special import log_ndtr
        return (float(log_ndtr((self.lower - self.mu) / self.sigma)),
                float(log_ndtr((self.mu - self.upper) / self.sigma)))

    def density(self, x: float) -> float:
        """Continuous density inside the open window, 0 outside."""
        if not self.lower < x < self.upper:
            return 0.0
        z = (x - self.mu) / self.sigma
        return math.exp(-0.5 * z * z) / (self.sigma * _SQRT_2PI)

    def total_mass(self) -> float:
        """Atoms plus quadrature of the density; equals 1 up to the
        integrator's tolerance."""
        from scipy.integrate import quad
        cont, _ = quad(self.density, self.lower, self.upper, epsabs=1e-10, limit=200)
        lower, upper = self.log_atoms()
        return math.exp(lower) + math.exp(upper) + cont


def censored_kl(p: CensoredGaussian, q: CensoredGaussian) -> float:
    """KL divergence between two censored Gaussians sharing sigma and
    window.

    Exact atom terms from both measures' :meth:`~CensoredGaussian.log_atoms`
    plus adaptive quadrature of ``p``'s density times the log density
    ratio, which is evaluated in closed form, so the integrand is benign.
    Returns 0.0 exactly when the means coincide.
    """
    if p.sigma != q.sigma:
        raise ValueError("distributions must share sigma")
    if p.lower != q.lower or p.upper != q.upper:
        raise ValueError("distributions must share the censoring window")
    if p.mu == q.mu:
        return 0.0
    from scipy.integrate import quad

    a, b = p.lower, p.upper
    inv2s2 = 1.0 / (2.0 * p.sigma * p.sigma)

    def integrand(x: float) -> float:
        log_ratio = ((x - q.mu) ** 2 - (x - p.mu) ** 2) * inv2s2
        return p.density(x) * log_ratio

    interior = sorted(x for x in (p.mu, q.mu) if a < x < b)
    cont, _ = quad(integrand, a, b, epsabs=1e-10, limit=200, points=interior or None)

    total = cont
    for lp, lq in zip(p.log_atoms(), q.log_atoms()):
        if lp == -math.inf:
            continue  # zero mass contributes zero regardless of q
        if lq == -math.inf:
            return math.inf
        total += math.exp(lp) * (lp - lq)
    return total


def gaussian_kl(mu_p: float, mu_q: float, sigma: float) -> float:
    """KL between the uncensored Gaussians; censoring only shrinks it."""
    mu_p = check_real("mu_p", mu_p, -math.inf, math.inf, open_low=True, open_high=True)
    mu_q = check_real("mu_q", mu_q, -math.inf, math.inf, open_low=True, open_high=True)
    sigma = check_real("sigma", sigma, 0.0, math.inf, open_low=True, open_high=True)
    d = mu_p - mu_q
    return d * d / (2.0 * sigma * sigma)


def pinsker_tv(kl: float) -> float:
    """Total-variation bound sqrt(kl / 2)."""
    return math.sqrt(0.5 * check_real("kl", kl, 0.0, math.inf))


def observation_tv_bound(gap, sigma, width_value, best_arm_pulls) -> float:
    """Total-variation budget between the no-hidden-arm observation stream
    and the hidden-arm-i stream.

    (gap / sigma) * sqrt(width * switch_bound(gap, pulls) / 4) where
    ``pulls`` is the expected number of hidden-arm selections: each state
    switch leaks at most a gap-sized mean shift through ``width`` parent
    links, and :func:`~.adversaries.switch_bound` budgets the switches.
    """
    gap = check_real("gap", gap, 0.0, 0.125, open_low=True, open_high=True)
    sigma = check_real("sigma", sigma, 0.0, math.inf, open_low=True, open_high=True)
    width_value = check_real("width_value", width_value, 0.0, math.inf, open_high=True)
    best_arm_pulls = check_real("best_arm_pulls", best_arm_pulls, 0.0, math.inf, open_high=True)
    return (gap / sigma) * math.sqrt(width_value * switch_bound(gap, best_arm_pulls) / 4)


def marginal_tv(samples_p: np.ndarray, samples_q: np.ndarray, bin_width: float) -> float:
    """Largest per-coordinate histogram distance between two sample sets of
    shape (n, T).

    Projections and binning only discard information, so in the exact
    (infinite-sample) limit this lower-bounds the stream total variation;
    at finite n it carries an upward sampling bias of order
    sqrt(bins / n) per coordinate.  Diagnostic, not a proof.
    """
    p = np.asarray(samples_p, dtype=float)
    q = np.asarray(samples_q, dtype=float)
    if p.ndim != 2 or q.ndim != 2 or p.shape[1] != q.shape[1]:
        raise ValueError("need two (n, T) sample arrays with matching T")
    bin_width = check_real("bin_width", bin_width, 0.0, math.inf, open_low=True, open_high=True)
    for name, x in (("samples_p", p), ("samples_q", q)):
        bad = x[~np.isfinite(x)]
        if bad.size:
            raise ValueError(f"{name} holds a non-finite sample, {float(bad[0])!r}")
    worst = 0.0
    for col in range(p.shape[1]):
        lo = float(min(p[:, col].min(), q[:, col].min()))
        hi = float(max(p[:, col].max(), q[:, col].max()))
        stop = hi + 2 * bin_width
        if not math.isfinite((stop - lo) / bin_width):
            raise ValueError(f"bin count over [{lo!r}, {hi!r}] at width {bin_width!r} overflows")
        edges = np.arange(lo, stop, bin_width)
        hp, _ = np.histogram(p[:, col], bins=edges)
        hq, _ = np.histogram(q[:, col], bins=edges)
        tv = 0.5 * np.abs(hp / len(p) - hq / len(q)).sum()
        worst = max(worst, float(tv))
    return worst


# ---------------------------------------------------------------------------
# scaling fits


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares fit of value ~ multiplier * T^exponent on log scales."""

    exponent: float
    multiplier: float
    r_squared: float
    points: tuple


def fit_exponent(points: Sequence) -> ScalingFit:
    """Fit a power law to (horizon, value) pairs.

    Requires at least three points; horizons that are integers (see
    :func:`delaybandits.core.check_int`), at least 1 and strictly
    increasing; and finite, strictly positive values.
    """
    pts = [(check_int("horizon", t, 1), float(v)) for t, v in points]
    if len(pts) < 3:
        raise ValueError("need at least 3 points to fit an exponent")
    for (t0, _), (t1, _) in zip(pts, pts[1:]):
        if t1 <= t0:
            raise ValueError("horizons must be strictly increasing")
    if not all(0 < v < math.inf for _, v in pts):
        raise ValueError("values must be finite and strictly positive for a log-log fit")
    x = np.log([t for t, _ in pts])
    y = np.log([v for _, v in pts])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(np.dot(resid, resid))
    centered = y - y.mean()
    ss_tot = float(np.dot(centered, centered))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return ScalingFit(
        exponent=float(slope),
        multiplier=float(math.exp(intercept)),
        r_squared=r2,
        points=tuple(pts),
    )


def horizon_groups(rows, metric: str) -> dict:
    """Values of ``metric`` per horizon ``T``, from result rows as the CLI
    writes or reads them (numbers may be strings)."""
    groups: dict = {}
    for row in rows:
        groups.setdefault(int(row["T"]), []).append(float(row[metric]))
    return groups


def horizon_means(groups: dict) -> list:
    """(horizon, mean value) points of :func:`horizon_groups` output,
    horizons ascending."""
    return [(t, float(np.mean(vs))) for t, vs in sorted(groups.items())]


def bootstrap_exponent_ci(groups: dict, resamples: int) -> Optional[tuple]:
    """90 % bootstrap interval (5th, 95th percentile) of the fitted exponent.

    Each resample redraws the runs within every horizon with replacement
    from ``default_rng(0)``.  Resamples the fit rejects (an all-zero
    horizon) are skipped; None when every one is, or ``resamples`` is 0.
    """
    resamples = check_int("resamples", resamples, 0)
    rng = np.random.default_rng(0)
    alphas = []
    for _ in range(resamples):
        resampled = {
            t: [vs[i] for i in rng.integers(0, len(vs), size=len(vs))]
            for t, vs in sorted(groups.items())
        }
        try:
            alphas.append(fit_exponent(horizon_means(resampled)).exponent)
        except ValueError:
            continue
    if not alphas:
        return None
    return float(np.percentile(alphas, 5)), float(np.percentile(alphas, 95))


# ---------------------------------------------------------------------------
# delay accounting audit


@dataclass(frozen=True)
class DelayAudit:
    """Outcome of the two accounting checks on a wrapped run.

    aggregate: total true loss minus total observed loss lies in
    [0, d - 1] (only the final d - 1 rounds can still be in flight).
    batch sums: each complete batch observes at most tau + d - 1, so the
    wrapper's clip of the batch average to 1 drops at most d - 1.
    """

    passed: bool
    aggregate_gap: float
    batch_sum_max: float
    batch_count: int
    failures: tuple


def audit_delay_accounting(transcript, batch_size: int) -> DelayAudit:
    """Run the accounting checks on a transcript played in batches.

    ``batch_size`` must match the wrapper that produced the run (1 for
    unwrapped runs); the delay span is the transcript's.  Leftover rounds
    beyond the last complete batch are excluded from the per-batch checks
    but included in the aggregate one.
    """
    batch_size = check_int("batch_size", batch_size, 1)
    slack = transcript.delay_span - 1
    failures = []

    true_total = math.fsum(transcript.true_losses)
    obs_total = math.fsum(transcript.observed)
    gap = true_total - obs_total
    if not -_AUDIT_ATOL <= gap <= slack + _AUDIT_ATOL:
        failures.append(
            f"aggregate gap {gap!r} outside [0, {slack}]"
        )

    observed = transcript.observed
    n_batches = len(observed) // batch_size
    batch_sum_max = 0.0
    for j in range(n_batches):
        s = math.fsum(observed[j * batch_size : (j + 1) * batch_size])
        batch_sum_max = max(batch_sum_max, s)
        if s > batch_size + slack + _AUDIT_ATOL:
            failures.append(
                f"batch {j}: observed sum {s!r} exceeds {batch_size + slack}"
            )

    return DelayAudit(
        passed=not failures,
        aggregate_gap=gap,
        batch_sum_max=batch_sum_max,
        batch_count=n_batches,
        failures=tuple(failures),
    )
