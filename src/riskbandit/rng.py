"""Deterministic random number plumbing.

Every random quantity in the package is drawn from a ``numpy.random.Generator``
backed by PCG64.  Reproducibility across runs and process boundaries comes
from *derived streams*: instead of sharing one generator, each
logical unit of work gets its own generator seeded by
``SeedSequence([seed, *path])``, where ``path`` is a tuple of non-negative
integers identifying the unit.

The seeding layout used by the toolkit:

* problem instance ``i`` is generated from ``substream(master_seed, PROBLEM_DOMAIN, i)``
* the per-instance episode seed is ``derive_seed(master_seed, EPISODE_DOMAIN, i)``
* within an episode batch, the reward stream of arm ``a`` in run ``r`` is
  ``substream(episode_seed, r, a)``; it fills row ``[r, a]`` of the batch's
  one ``(runs, k, horizon)`` reward array, which every policy and sweep cell
  of the batch then plays, one run per kernel lane

Because streams are keyed by index rather than by draw order, adding runs or
arms never perturbs the draws of existing ones, and neither the order in
which rows are drawn nor which policies share them can change any of them.
"""

from __future__ import annotations

import numpy as np

# Domain tags keep the instance-level derivations disjoint from the
# (run, arm) paths used inside an episode batch.
PROBLEM_DOMAIN = 101
EPISODE_DOMAIN = 202

MAX_SEED = 2**64 - 1


def make_rng(seed: int) -> np.random.Generator:
    """Fresh PCG64 generator for a bare integer seed."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def substream(seed: int, *path: int) -> np.random.Generator:
    """Generator for the derived stream identified by ``(seed, *path)``."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *path])))


def derive_seed(seed: int, *path: int) -> int:
    """Collapse ``(seed, *path)`` into a single 64-bit integer seed."""
    state = np.random.SeedSequence([seed, *path]).generate_state(1, np.uint64)
    return int(state[0])


def validate_seed(seed: int) -> int:
    """Check that ``seed`` fits in an unsigned 64-bit integer and return it."""
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if not 0 <= seed <= MAX_SEED:
        raise ValueError(f"seed must be in [0, 2**64 - 1], got {seed}")
    return int(seed)
