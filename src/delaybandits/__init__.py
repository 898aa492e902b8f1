"""Simulation and verification toolkit for bandit games whose feedback
arrives as anonymous sums of delayed loss components.

The package has five layers:

- :mod:`delaybandits.core` runs the game loop and computes exact policy
  and pseudo regret by counterfactual replay of recorded transcripts.
- :mod:`delaybandits.adversaries` builds the loss and delay constructions:
  a two-armed parity trap with forced observations, and a random-walk
  loss masked by a carry state machine.
- :mod:`delaybandits.learners` provides exponential-weights and
  gradient-free convex learners plus the mini-batch wrapper that makes
  them robust to delayed aggregate feedback.
- :mod:`delaybandits.analysis` holds the numeric certificates: censored
  Gaussian KL, total-variation budgets, scaling-law fits, and the delay
  accounting audit.
- :mod:`delaybandits.checks` states each invariant of the constructions
  once, parameterized by scale and seeds; ``delaybandits verify`` runs it
  small and the acceptance tests run it at full scale.  It builds the CLI
  pairings it plays with ``cli._build_run``, the CLI's own builder.

All randomness is derived from named child streams of a single master
seed, so every run, sweep, and figure is reproducible bit for bit.
"""

from .core import (
    ActionError,
    ConvexBall,
    Discrete,
    GameConfig,
    LossSplit,
    MemoryCheckResult,
    RegretReport,
    ReplayError,
    SimulationError,
    SplitError,
    Transcript,
    check_bounded_memory,
    observe_aggregate,
    policy_regret,
    push_split,
    run_game,
    validate_split,
)
from .adversaries import (
    DelayStateMachine,
    GapWalkLoss,
    LastSlotDelay,
    MultiScaleWalk,
    NoDelay,
    ParityDelay,
    ParityTrapLoss,
    TableLoss,
    drift_threshold,
    gap_walk_defaults,
    switch_bound,
    walk_parent,
    walk_value_matrix,
    width,
)
from .learners import (
    Exp3Learner,
    FkmLearner,
    MiniBatchWrapper,
    ScriptedLearner,
    UniformRandomLearner,
    choose_tau,
    choose_tau_bco,
)
from .analysis import (
    CensoredGaussian,
    DelayAudit,
    ScalingFit,
    audit_delay_accounting,
    censored_kl,
    fit_exponent,
    gaussian_kl,
    observation_tv_bound,
    pinsker_tv,
)
from .seeding import run_seed, substream

__version__ = "0.1.0"
