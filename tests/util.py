"""Independent oracles and small fixture losses used by the test suite.

The oracles are deliberately written from first principles, in a
different style from the package code, so that agreement between the two
routes actually means something.  Slow is fine; these run at small sizes.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.stats import norm

from delaybandits.core import (SPLIT_ATOL, ActionError, LossRangeError, LossSplit,
                               SimulationError, SplitError, Transcript, check_int)


def naive_constant_regret(loss_adversary, actions, comparators):
    """Policy regret by replaying each constant action sequence in full."""
    horizon = len(actions)
    realized = sum(loss_adversary.loss(t, list(actions[:t])) for t in range(1, horizon + 1))
    totals = []
    for y in comparators:
        hist = [y] * horizon
        totals.append(sum(loss_adversary.loss(t, hist) for t in range(1, horizon + 1)))
    return realized - min(totals)


def naive_one_swap_regret(loss_adversary, actions, comparators):
    """Pseudo regret: swap only the current round's action, keep the
    realized prefix, sum per comparator, subtract the best."""
    horizon = len(actions)
    realized = sum(loss_adversary.loss(t, list(actions[:t])) for t in range(1, horizon + 1))
    totals = []
    for y in comparators:
        total = 0.0
        for t in range(1, horizon + 1):
            hist = list(actions[:t])
            hist[t - 1] = y
            total += loss_adversary.loss(t, hist)
        totals.append(total)
    return realized - min(totals)


def reference_validate_split(split, delay_span):
    """The component-by-component split check that ``core.validate_split``
    must agree with: same returned components, or the same ``SplitError``
    message.  A numpy array component is not a number at any d, and at
    d <= 2 neither is a bool or numpy bool; nor is a component whose
    comparison with a float raises, or that cannot be added to a float
    from either side.  The first bad component in slot order is named."""
    comps = split.components
    if len(comps) != delay_span:
        raise SplitError(
            f"round {split.t}: expected {delay_span} components, got {len(comps)}"
        )
    lv = split.loss_value
    clamped = None
    for i, c in enumerate(comps):
        verdict = _component_verdict(c, lv, delay_span)
        if verdict == "not a number":
            raise SplitError(f"round {split.t}: component {i} ({c!r}) is not a number")
        if verdict == "negative":
            raise SplitError(f"round {split.t}: component {i} is negative ({c!r})")
        if verdict == "over":
            raise SplitError(
                f"round {split.t}: component {i} ({c!r}) exceeds loss {lv!r}"
            )
        if verdict == "clamp":
            if clamped is None:
                clamped = list(comps)
            clamped[i] = 0.0
    if clamped is not None:
        split.components = comps = tuple(clamped)
    total = comps[0] if len(comps) == 1 else math.fsum(comps)
    if not abs(total - lv) <= SPLIT_ATOL:
        raise SplitError(
            f"round {split.t}: components sum to {total!r}, loss is {lv!r}"
        )
    return split


def _component_verdict(c, lv, delay_span):
    """What the split check makes of one component: "ok", "clamp",
    "negative", "over" or "not a number"."""
    if isinstance(c, np.ndarray) or delay_span <= 2 and isinstance(c, (bool, np.bool_)):
        return "not a number"
    try:
        if c < -SPLIT_ATOL:
            return "negative"
        if c > lv + SPLIT_ATOL:
            return "over"
        c + 0.0
        0.0 + c
        return "clamp" if c < 0.0 else "ok"
    except (TypeError, ValueError, ArithmeticError):
        return "not a number"


def reference_push_split(pending, split):
    """The slot-by-slot shift that ``core.push_split`` must match bit for
    bit: every slot takes the next one plus its component, zero or not,
    and the new last slot is ``0.0 + c``, so a -0.0 component lands as 0.0."""
    comps = split.components
    d = len(pending) + 1
    for k in range(d - 2):
        pending[k] = pending[k + 1] + comps[k + 1]
    if d > 1:
        pending[d - 2] = 0.0 + comps[d - 1]


def _is_unit_loss(lv):
    """Whether ``lv`` is a real number in [0, 1]: not a bool, a numpy bool
    or an array, in range by comparisons that do not raise (a ``Decimal``
    NaN's do), and addable to a float (a ``Decimal`` is not)."""
    if isinstance(lv, (bool, np.bool_, np.ndarray)):
        return False
    try:
        if not 0.0 <= lv <= 1.0:
            return False
        lv + 0.0
    except (TypeError, ValueError, ArithmeticError):
        return False
    return True


def reference_run_game(config, learner, loss_adversary, delay_adversary):
    """The game that ``core.run_game`` must play bit for bit, written with
    no fast path: each round the learner acts, the loss adversary prices
    the history (a loss that :func:`_is_unit_loss` refuses is an error),
    and the delay adversary cuts the loss into d components.
    A fresh record of the round is checked by ``reference_validate_split``;
    the learner observes component 0 plus what earlier rounds left due now,
    and the slot-by-slot buffer shifts, adding every component.  One
    tuple of checked components is kept per round.  A
    protocol violation gets the seed and the pairing."""
    d = delay_adversary.delay_span
    pending = [0.0] * (d - 1)
    actions, losses, observed, rows = [], [], [], []
    try:
        for t in range(1, config.horizon + 1):
            action = learner.act(t)
            if not config.action_space.contains(action):
                raise ActionError(f"round {t}: action {action!r} outside the action space")
            actions.append(action)
            lv = loss_adversary.loss(t, actions)
            if not _is_unit_loss(lv):
                raise LossRangeError(f"round {t}: loss {lv!r} is not a real number in [0, 1]")
            comps = delay_adversary.split(t, actions, lv)
            if type(comps) is not tuple:
                raise SplitError(f"round {t}: delay adversary returned {comps!r}, not a tuple")
            split = LossSplit(t, comps, lv)
            reference_validate_split(split, d)
            seen = split.components[0] + (pending[0] if d > 1 else 0.0)
            reference_push_split(pending, split)
            learner.observe(t, action, seen)
            losses.append(lv)
            observed.append(seen)
            rows.append(split.components)
    except SimulationError as e:
        raise type(e)(f"{e} (seed {config.master_seed}, "
                      f"{type(loss_adversary).__name__}+{type(delay_adversary).__name__})") from e
    return Transcript(config, tuple(actions), tuple(losses), tuple(observed), d,
                      [c for row in rows for c in row])


def swap_and_restore_regret(loss_adversary, actions, comparators):
    """(policy regret, pseudo regret) with every total summed by
    ``math.fsum``: constant histories for the policy comparators, and for
    the pseudo comparators a forward pass over one buffer that swaps in
    the comparator at round t and puts the realized action back after."""
    horizon = len(actions)
    realized = math.fsum(loss_adversary.loss(t, list(actions)) for t in range(1, horizon + 1))
    constant = [
        math.fsum(loss_adversary.loss(t, [y] * horizon) for t in range(1, horizon + 1))
        for y in comparators
    ]
    swapped = []
    for y in comparators:
        hist = list(actions)
        vals = []
        for t in range(1, horizon + 1):
            saved = hist[t - 1]
            hist[t - 1] = y
            vals.append(loss_adversary.loss(t, hist))
            hist[t - 1] = saved
        swapped.append(math.fsum(vals))
    return realized - min(constant), realized - min(swapped)


def replay_state_machine(loss, actions):
    """Re-derive the carry machine's trajectory from scratch.

    Returns a list of (low, carry, immediate, held) tuples, one per round.
    Only the loss object's public values (gap, best_arm, masked_baseline,
    loss) are consulted; no incremental state is shared with the package
    implementation.
    """
    rows = []
    low = False
    carry = 0.0
    for t in range(1, len(actions) + 1):
        played = loss.loss(t, list(actions[:t]))
        if loss.best_arm is None:
            rows.append((False, 0.0, played, 0.0))
            continue
        if low:
            if carry > 0.25 - loss.gap:
                low = False
        else:
            if carry < loss.gap:
                low = True
        immediate = loss.masked_baseline(t, low) - carry
        held = played - immediate
        carry = held
        rows.append((low, carry, immediate, held))
    return rows


def closed_form_censored_kl(mu_p, mu_q, sigma, lower, upper) -> float:
    """Censored-Gaussian KL via Gaussian moment identities.

    Continuous piece: the log ratio is linear in x, so the integral reduces
    to the window mass and the first truncated moment.  Atom pieces use the
    exact tail probabilities.
    """
    if mu_p == mu_q:
        return 0.0

    def window_mass(mu):
        return norm.cdf(upper, mu, sigma) - norm.cdf(lower, mu, sigma)

    def window_first_moment(mu):
        # integral of x * pdf over the window
        z = window_mass(mu)
        return mu * z + sigma ** 2 * (norm.pdf(lower, mu, sigma) - norm.pdf(upper, mu, sigma))

    zp = window_mass(mu_p)
    cont = (mu_p - mu_q) / (2 * sigma ** 2) * (
        2 * window_first_moment(mu_p) - (mu_p + mu_q) * zp
    )
    return cont + _atom_terms(mu_p, mu_q, sigma, lower, upper)


def _atom_terms(mu_p, mu_q, sigma, lower, upper) -> float:
    # log-space: the atoms underflow to double-precision zero long before
    # they are mathematically zero
    total = 0.0
    for p_log, q_log in (
        (norm.logcdf(lower, mu_p, sigma), norm.logcdf(lower, mu_q, sigma)),
        (norm.logsf(upper, mu_p, sigma), norm.logsf(upper, mu_q, sigma)),
    ):
        if p_log == -math.inf:
            continue
        if q_log == -math.inf:
            return math.inf
        total += math.exp(p_log) * (p_log - q_log)
    return total


def simpson_censored_kl(mu_p, mu_q, sigma, lower, upper, n=8193) -> float:
    """Censored-Gaussian KL with the continuous piece on a Simpson grid."""
    xs = np.linspace(lower, upper, n)
    p = norm.pdf(xs, mu_p, sigma)
    q = norm.pdf(xs, mu_q, sigma)
    ratio = ((xs - mu_q) ** 2 - (xs - mu_p) ** 2) / (2 * sigma ** 2)
    integrand = p * ratio
    h = (upper - lower) / (n - 1)
    weights = np.ones(n)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    total = float(h / 3 * np.dot(weights, integrand))
    return total + _atom_terms(mu_p, mu_q, sigma, lower, upper)


class LaggedLoss:
    """Loss that reads the action ``lag`` rounds back; bounded-memory probes
    with a window narrower than ``lag`` must flag it."""

    def __init__(self, lag: int = 2):
        self.lag = check_int("lag", lag, 1)

    def loss(self, t: int, actions) -> float:
        if t <= self.lag:
            return 0.5
        return 0.25 if actions[t - 1 - self.lag] == 0 else 0.75


class QuadLoss:
    """Memoryless convex loss, distance squared to a target, capped at 1."""

    def __init__(self, target):
        self.target = np.asarray(target, dtype=float)

    def loss(self, t, actions):
        d = np.asarray(actions[t - 1], dtype=float) - self.target
        v = float(d @ d)
        return v if v < 1.0 else 1.0
