"""Arm-selection policies.

Five policies share one entry point, :func:`select_arm`:

* ``UCB`` -- optimism on the mean: maximise ``mean + C * sqrt(log t / n)``.
* ``MaRaB`` -- pessimism on the lower tail: maximise the empirical tail mean
  at level ``alpha`` minus ``C * sqrt(log(ceil(t * alpha)) / n_alpha)``.
* ``MIN`` -- maximise the lowest reward seen so far.  This is the limit of
  ``MaRaB`` as ``alpha -> 0`` with ``C = 0``: the tail shrinks to the single
  smallest observation and the confidence term vanishes.
* ``MVLCB`` -- minimise ``variance - rho * mean`` minus a
  ``(5 + rho) * sqrt(log(1 / delta) / (2 n))`` confidence width.
* ``ExpExp`` -- explore uniformly for ``tau`` rounds, then commit to the arm
  with the lowest ``variance - rho * mean`` for good.

Rounds ``t`` are 1-based.  Every policy starts by pulling each arm once (in
index order); ties in an index are broken toward the lowest arm index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar, Optional, Sequence, Union

from .estimators import ArmStats, tail_count
from .exceptions import ConfigError


@dataclass(frozen=True)
class UCB:
    """Upper confidence bound on the mean with exploration scale ``c``."""

    c: float
    kind: ClassVar[str] = "ucb"

    def __post_init__(self) -> None:
        if not 0.0 < self.c < math.inf:
            raise ValueError(f"c must be positive and finite, got {self.c}")


@dataclass(frozen=True)
class MIN:
    """Greedy maximisation of the lowest observed reward."""

    kind: ClassVar[str] = "min"


@dataclass(frozen=True)
class MaRaB:
    """Lower confidence bound on the empirical tail mean at level ``alpha``."""

    c: float
    alpha: float
    kind: ClassVar[str] = "marab"

    def __post_init__(self) -> None:
        if not 0.0 <= self.c < math.inf:
            raise ValueError(f"c must be non-negative and finite, got {self.c}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")


@dataclass(frozen=True)
class MVLCB:
    """Lower confidence bound on the variance-minus-mean objective."""

    rho: float
    delta: float
    kind: ClassVar[str] = "mvlcb"

    def __post_init__(self) -> None:
        if not 0.0 < self.rho < math.inf:
            raise ValueError(f"rho must be positive and finite, got {self.rho}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")


@dataclass(frozen=True)
class ExpExp:
    """Uniform exploration for ``tau`` rounds, then a frozen commitment."""

    rho: float
    tau: int
    kind: ClassVar[str] = "expexp"

    def __post_init__(self) -> None:
        if not 0.0 < self.rho < math.inf:
            raise ValueError(f"rho must be positive and finite, got {self.rho}")
        if not (isinstance(self.tau, int) and self.tau >= 1):
            raise ValueError(f"tau must be a positive integer, got {self.tau!r}")


PolicyConfig = Union[UCB, MIN, MaRaB, MVLCB, ExpExp]

POLICY_KINDS = {cls.kind: cls for cls in (UCB, MIN, MaRaB, MVLCB, ExpExp)}


def check_fits(policy: PolicyConfig, k: int, horizon: int) -> None:
    """Reject a policy that cannot play ``k`` arms for ``horizon`` rounds.

    Only ExpExp can: its exploration length ``tau`` must cover one pull of
    each arm and end within the horizon.
    """
    if isinstance(policy, ExpExp):
        if policy.tau < k:
            raise ValueError(f"tau={policy.tau} cannot cover one pull of each of {k} arms")
        if policy.tau > horizon:
            raise ValueError(f"tau={policy.tau} exceeds horizon {horizon}; the policy would never commit")


def expexp_tau(k: int, horizon: int) -> int:
    """Exploration length ``K * (T / 14)^(2/3)``, rounded, never below ``k``."""
    if k < 1 or horizon < 1:
        raise ValueError(f"need k >= 1 and horizon >= 1, got k={k}, horizon={horizon}")
    return max(k, int(round(k * (horizon / 14.0) ** (2.0 / 3.0))))


# ---------------------------------------------------------------------------
# index functions


def _check_round(t: int) -> None:
    if t < 1:
        raise ValueError(f"round index must be >= 1, got {t}")


def ucb_index(stats: ArmStats, t: int, c: float) -> float:
    """``mean + c * sqrt(log t / n)``; with ``c = 0`` just the mean."""
    _check_round(t)
    return stats.empirical_mean() + c * math.sqrt(math.log(t) / stats.count)


def marab_index(stats: ArmStats, t: int, c: float, alpha: float) -> float:
    """Empirical tail mean minus ``c * sqrt(log(ceil(t * alpha)) / n_alpha)``.

    The log argument is clamped to at least 1 so the penalty is well defined
    (and zero) in the earliest rounds where ``t * alpha < 1``.
    """
    _check_round(t)
    n_alpha = tail_count(stats.count, alpha)
    horizon_tail = tail_count(t, alpha)
    return stats.empirical_cvar(alpha) - c * math.sqrt(math.log(horizon_tail) / n_alpha)


def min_index(stats: ArmStats) -> float:
    return stats.empirical_min()


def mvlcb_index(stats: ArmStats, rho: float, delta: float) -> float:
    """``variance - rho * mean`` minus its confidence width.  Minimised, not maximised."""
    width = (5.0 + rho) * math.sqrt(math.log(1.0 / delta) / (2.0 * stats.count))
    return stats.mv_value(rho) - width


# ---------------------------------------------------------------------------
# selection


@dataclass
class PolicyState:
    """Per-episode mutable policy state.

    ``frozen_choice`` is only used by ``ExpExp``: the arm committed to at the
    first exploitation-phase call, reused ever after.
    """

    config: PolicyConfig
    frozen_choice: Optional[int] = field(default=None)


def _argmax(values: Sequence[float]) -> int:
    best, best_i = values[0], 0
    for i in range(1, len(values)):
        if values[i] > best:
            best, best_i = values[i], i
    return best_i


def _argmin(values: Sequence[float]) -> int:
    best, best_i = values[0], 0
    for i in range(1, len(values)):
        if values[i] < best:
            best, best_i = values[i], i
    return best_i


def select_arm(state: PolicyState, all_stats: Sequence[ArmStats], t: int) -> int:
    """Pick the arm to pull in round ``t`` (1-based).

    Apart from the ``ExpExp`` commitment, this is a pure function of the
    statistics and the round: calling it again with the same inputs returns
    the same arm.
    """
    k = len(all_stats)
    if k < 2:
        raise ConfigError(f"need at least 2 arms, got {k}")
    _check_round(t)
    cfg = state.config

    if isinstance(cfg, ExpExp) and t <= cfg.tau:
        return (t - 1) % k

    # initialisation: pull each arm once, in index order
    for i, stats in enumerate(all_stats):
        if stats.count == 0:
            return i

    if isinstance(cfg, UCB):
        return _argmax([ucb_index(s, t, cfg.c) for s in all_stats])
    if isinstance(cfg, MaRaB):
        return _argmax([marab_index(s, t, cfg.c, cfg.alpha) for s in all_stats])
    if isinstance(cfg, MIN):
        return _argmax([min_index(s) for s in all_stats])
    if isinstance(cfg, MVLCB):
        return _argmin([mvlcb_index(s, cfg.rho, cfg.delta) for s in all_stats])
    if isinstance(cfg, ExpExp):
        if state.frozen_choice is None:
            state.frozen_choice = _argmin([s.mv_value(cfg.rho) for s in all_stats])
        return state.frozen_choice
    raise TypeError(f"unknown policy config type: {type(cfg).__name__}")
