"""Deterministic derivation of named random streams from one master seed.

Every source of randomness in a run (adversary draws, walk increments,
learner sampling, probe perturbations) pulls from its own child stream of
the run's master seed.  Child streams are keyed by fixed integer ids, so a
value drawn for a given (seed, stream, index) is the same no matter what
else has been sampled before it.  That property is what lets counterfactual
replays see exactly the randomness of the original run.  Seeds, run
indices and stream ids are integers of any sign (see ``core.check_int``).
"""

from __future__ import annotations

import math

import numpy as np

from .core import check_int

_UINT64 = (1 << 64) - 1

# stream ids; never renumber, or archived runs stop being reproducible.
# Id 5 is reserved: it belonged to a retired probe stream.
BEST_ARM_STREAM = 1
WALK_STREAM = 2
LEARNER_STREAM = 3
LOSS_TABLE_STREAM = 4
SPLIT_STREAM = 6


def substream(master_seed: int, *path: int) -> np.random.Generator:
    """Generator for the child stream identified by ``path``.

    Identical (master_seed, path) pairs always yield generators producing
    identical draws, independent of creation order.
    """
    entropy = ((check_int("master_seed", master_seed, -math.inf) & _UINT64,)
               + tuple(check_int("path id", p, -math.inf) & _UINT64 for p in path))
    return np.random.default_rng(np.random.SeedSequence(entropy))


def run_seed(seed_base: int, run_index: int) -> int:
    """Stable per-run master seed.

    Depends only on (seed_base, run_index): adding more repetitions to a
    sweep never reshuffles the seeds of runs that already exist.
    """
    ss = np.random.SeedSequence((check_int("seed_base", seed_base, -math.inf) & _UINT64,
                                 check_int("run_index", run_index, -math.inf) & _UINT64))
    return int(ss.generate_state(1, np.uint64)[0])
