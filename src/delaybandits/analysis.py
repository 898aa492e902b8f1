"""Numeric verification tools: censored-Gaussian information bounds,
regret-scaling fits, and accounting audits for wrapped runs.

The censored Gaussian here is the law of a truncated observation: a
Gaussian whose mass below the window collapses to an atom at the lower
edge and above it to an atom at the upper edge, with the untouched density
in between.  Its KL divergence is what bounds how distinguishable two
observation streams are, and it never exceeds the plain Gaussian KL of the
means.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.integrate import quad
from scipy.special import log_ndtr, ndtr

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
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")
        if not self.lower < self.upper:
            raise ValueError("need lower < upper")

    def atom_lower(self) -> float:
        """Mass collapsed onto the lower edge."""
        return float(ndtr((self.lower - self.mu) / self.sigma))

    def atom_upper(self) -> float:
        """Mass collapsed onto the upper edge."""
        return float(ndtr((self.mu - self.upper) / self.sigma))

    def density(self, x) -> np.ndarray:
        """Continuous density inside the open window, 0 outside."""
        x = np.asarray(x, dtype=float)
        z = (x - self.mu) / self.sigma
        vals = np.exp(-0.5 * z * z) / (self.sigma * _SQRT_2PI)
        return np.where((x > self.lower) & (x < self.upper), vals, 0.0)

    def total_mass(self) -> float:
        """Atoms plus quadrature of the density; equals 1 up to the
        integrator's tolerance."""
        cont, _ = quad(
            lambda x: float(self.density(x)), self.lower, self.upper,
            epsabs=1e-10, limit=200,
        )
        return self.atom_lower() + self.atom_upper() + cont


def censored_kl(p: CensoredGaussian, q: CensoredGaussian) -> float:
    """KL divergence between two censored Gaussians sharing sigma and
    window.

    Exact atom terms plus adaptive quadrature of the continuous part (the
    log density ratio is evaluated in closed form, so the integrand is
    benign).  Atom logs go through log-CDFs to stay finite far into the
    tails.  Returns 0.0 exactly when the means coincide.
    """
    if p.sigma != q.sigma:
        raise ValueError("distributions must share sigma")
    if p.lower != q.lower or p.upper != q.upper:
        raise ValueError("distributions must share the censoring window")
    if p.mu == q.mu:
        return 0.0

    sigma = p.sigma
    a, b = p.lower, p.upper
    inv2s2 = 1.0 / (2.0 * sigma * sigma)

    def integrand(x: float) -> float:
        zp = (x - p.mu) / sigma
        dens = math.exp(-0.5 * zp * zp) / (sigma * _SQRT_2PI)
        log_ratio = ((x - q.mu) ** 2 - (x - p.mu) ** 2) * inv2s2
        return dens * log_ratio

    interior = sorted(x for x in (p.mu, q.mu) if a < x < b)
    cont, _ = quad(
        integrand, a, b, epsabs=1e-10, limit=200,
        points=interior if interior else None,
    )

    total = cont
    # lower atoms: Phi((a - mu) / sigma); upper atoms: Phi((mu - b) / sigma)
    for zp, zq in (
        ((a - p.mu) / sigma, (a - q.mu) / sigma),
        ((p.mu - b) / sigma, (q.mu - b) / sigma),
    ):
        lp = float(log_ndtr(zp))
        if lp == -math.inf:
            continue  # zero mass contributes zero regardless of q
        lq = float(log_ndtr(zq))
        if lq == -math.inf:
            return math.inf
        total += math.exp(lp) * (lp - lq)
    return total


def gaussian_kl(mu_p: float, mu_q: float, sigma: float) -> float:
    """KL between the uncensored Gaussians; censoring only shrinks it."""
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    d = mu_p - mu_q
    return d * d / (2.0 * sigma * sigma)


def pinsker_tv(kl: float) -> float:
    """Total-variation bound sqrt(kl / 2)."""
    if kl < 0:
        raise ValueError("kl must be >= 0")
    return math.sqrt(0.5 * kl)


def observation_tv_bound(gap, sigma, width_value, best_arm_pulls) -> float:
    """Total-variation budget between the no-hidden-arm observation stream
    and the hidden-arm-i stream.

    (gap / sigma) * sqrt(2 * width * gap * pulls / (1 - 8 gap)) where
    ``pulls`` is the expected number of hidden-arm selections: each state
    switch leaks at most a gap-sized mean shift through ``width`` parent
    links, and switches are budgeted by the carry dynamics.
    """
    if not 0.0 < gap < 0.125:
        raise ValueError(f"gap must lie in (0, 1/8), got {gap}")
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    if width_value < 0 or best_arm_pulls < 0:
        raise ValueError("width and pulls must be >= 0")
    inner = 2.0 * width_value * gap * best_arm_pulls / (1.0 - 8.0 * gap)
    return (gap / sigma) * math.sqrt(inner)


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
    if not bin_width > 0:
        raise ValueError("bin_width must be positive")
    worst = 0.0
    for col in range(p.shape[1]):
        lo = min(p[:, col].min(), q[:, col].min())
        hi = max(p[:, col].max(), q[:, col].max())
        edges = np.arange(lo, hi + 2 * bin_width, bin_width)
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

    Requires at least three points, strictly increasing horizons, and
    finite, strictly positive values.
    """
    pts = [(int(t), float(v)) for t, v in points]
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
    horizon) are skipped; None when every one is.
    """
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
    """Outcome of the three accounting checks on a wrapped run.

    aggregate: total true loss minus total observed loss lies in
    [0, d - 1] (only the final d - 1 rounds can still be in flight).
    batch sums: each complete batch observes at most tau + d - 1.
    residuals: per batch, observed sum minus tau times the clipped batch
    average lies in [0, d - 1].
    """

    passed: bool
    aggregate_gap: float
    batch_sum_max: float
    residual_max: float
    batch_count: int
    failures: tuple


def audit_delay_accounting(transcript, batch_size: int) -> DelayAudit:
    """Run the accounting checks on a transcript played in batches.

    ``batch_size`` must match the wrapper that produced the run (1 for
    unwrapped runs); the delay span is the transcript's.  Leftover rounds
    beyond the last complete batch are excluded from the per-batch checks
    but included in the aggregate one.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
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
    residual_max = 0.0
    for j in range(n_batches):
        s = math.fsum(observed[j * batch_size : (j + 1) * batch_size])
        batch_sum_max = max(batch_sum_max, s)
        if s > batch_size + slack + _AUDIT_ATOL:
            failures.append(
                f"batch {j}: observed sum {s!r} exceeds {batch_size + slack}"
            )
        estimate = min(s / batch_size, 1.0)
        residual = s - batch_size * estimate
        residual_max = max(residual_max, residual)
        if not -_AUDIT_ATOL <= residual <= slack + _AUDIT_ATOL:
            failures.append(
                f"batch {j}: clip residual {residual!r} outside [0, {slack}]"
            )

    return DelayAudit(
        passed=not failures,
        aggregate_gap=gap,
        batch_sum_max=batch_sum_max,
        residual_max=residual_max,
        batch_count=n_batches,
        failures=tuple(failures),
    )
