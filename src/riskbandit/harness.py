"""Seeded episode execution, regret accounting, and aggregation.

An episode plays one policy for ``horizon`` rounds against one problem.  The
reward an arm would yield on its ``u``-th pull is drawn up front into a
``(k, horizon)`` table, one derived RNG stream per ``(run, arm)`` pair (see
:mod:`riskbandit.rng`), and the episode kernel consumes the table.  Two
consequences worth relying on:

* runs are reproducible bit for bit, and adding runs never changes the
  draws of existing ones;
* policies compared under the same ``(problem, seed)`` face identical reward
  tables, so policy differences are not confounded by sampling noise.

Regret is tracked two ways, both cumulative: against the analytic means
(``regret``, the gap of the chosen arm's true mean to the best arm's, summed
over rounds) and against the observed rewards (``regret_emp``, the best
mean times ``t`` minus the collected reward).  Arms never pulled contribute
nothing to either.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import kernels
from .distributions import sample_many
from .exceptions import ConfigError
from .generators import BanditProblem
from .policies import ExpExp, MIN, MaRaB, MVLCB, PolicyConfig, UCB
from .rng import substream, validate_seed


@dataclass(frozen=True, eq=False)
class RunConfig:
    """One batch of identically configured runs."""

    problem: BanditProblem
    policy: PolicyConfig
    horizon: int
    seed: int
    n_runs: int

    def __post_init__(self) -> None:
        if self.horizon < self.problem.k:
            raise ConfigError(
                f"horizon {self.horizon} is shorter than the {self.problem.k}-arm "
                "initialisation pass"
            )
        if self.n_runs < 1:
            raise ConfigError(f"n_runs must be >= 1, got {self.n_runs}")
        try:
            validate_seed(self.seed)
        except ValueError as err:
            raise ConfigError(str(err)) from None
        if isinstance(self.policy, ExpExp):
            if self.policy.tau < self.problem.k:
                raise ConfigError(
                    f"tau={self.policy.tau} cannot cover one pull of each of "
                    f"{self.problem.k} arms"
                )
            if self.policy.tau > self.horizon:
                raise ConfigError(
                    f"tau={self.policy.tau} exceeds horizon {self.horizon}; "
                    "the policy would never commit"
                )


@dataclass(frozen=True, eq=False)
class RegretLedger:
    """Everything recorded about one episode.

    ``chosen[t-1]`` and ``rewards[t-1]`` are the arm pulled and reward seen in
    round ``t``; ``regret`` and ``regret_emp`` are the cumulative analytic-mean
    and observed-reward regrets at each round; ``pull_counts`` sums to the
    horizon.
    """

    chosen: np.ndarray
    rewards: np.ndarray
    regret: np.ndarray
    regret_emp: np.ndarray
    pull_counts: np.ndarray

    @property
    def horizon(self) -> int:
        return len(self.chosen)


def draw_reward_table(problem: BanditProblem, seed: int, run_index: int, horizon: int) -> np.ndarray:
    """Pre-draw the ``(k, horizon)`` reward table for one run.

    Row ``a`` comes from the derived stream ``(seed, run_index, a)``, so the
    table depends only on those indices, not on execution order.
    """
    table = np.empty((problem.k, horizon), dtype=np.float64)
    for a, spec in enumerate(problem.arms):
        table[a] = sample_many(spec, substream(seed, run_index, a), horizon)
    return table


def _play(table: np.ndarray, policy: PolicyConfig):
    if isinstance(policy, UCB):
        return kernels.episode_ucb(table, policy.c)
    if isinstance(policy, MIN):
        return kernels.episode_min(table)
    if isinstance(policy, MaRaB):
        return kernels.episode_marab(table, policy.c, policy.alpha)
    if isinstance(policy, MVLCB):
        return kernels.episode_mvlcb(table, policy.rho, policy.delta)
    if isinstance(policy, ExpExp):
        return kernels.episode_expexp(table, policy.rho, policy.tau)
    raise TypeError(f"unknown policy config type: {type(policy).__name__}")


def run_episode(cfg: RunConfig, run_index: int) -> RegretLedger:
    """Play run ``run_index`` of the batch and account its regret."""
    if run_index < 0:
        raise ValueError(f"run_index must be >= 0, got {run_index}")
    table = draw_reward_table(cfg.problem, cfg.seed, run_index, cfg.horizon)
    chosen, rewards = _play(table, cfg.policy)
    regret = np.cumsum(cfg.problem.margins_mean[chosen])
    t = np.arange(1, cfg.horizon + 1, dtype=np.float64)
    regret_emp = t * cfg.problem.mu_star - np.cumsum(rewards)
    pull_counts = np.bincount(chosen, minlength=cfg.problem.k)
    for arr in (chosen, rewards, regret, regret_emp, pull_counts):
        arr.flags.writeable = False
    return RegretLedger(
        chosen=chosen,
        rewards=rewards,
        regret=regret,
        regret_emp=regret_emp,
        pull_counts=pull_counts,
    )


def run_many(cfg: RunConfig) -> list[RegretLedger]:
    """All ``cfg.n_runs`` episodes, ordered by run index."""
    return [run_episode(cfg, r) for r in range(cfg.n_runs)]


@dataclass(frozen=True, eq=False)
class RegretCurve:
    """Pointwise aggregate of a batch: round index, mean cumulative regrets, spread."""

    t: np.ndarray
    mean_regret: np.ndarray
    mean_regret_emp: np.ndarray
    std_regret: np.ndarray  # population std of the analytic-mean regret across runs


def _equal_horizons(ledgers: Sequence[RegretLedger]) -> int:
    if not ledgers:
        raise ValueError("need at least one ledger")
    horizon = ledgers[0].horizon
    for i, led in enumerate(ledgers):
        if led.horizon != horizon:
            raise ValueError(f"ledger {i} has horizon {led.horizon}, expected {horizon}")
    return horizon


def aggregate_regret(ledgers: Sequence[RegretLedger]) -> RegretCurve:
    """Pointwise mean and spread of the regret curves of a batch."""
    horizon = _equal_horizons(ledgers)
    reg = np.stack([led.regret for led in ledgers])
    emp = np.stack([led.regret_emp for led in ledgers])
    return RegretCurve(
        t=np.arange(1, horizon + 1),
        mean_regret=reg.mean(axis=0),
        mean_regret_emp=emp.mean(axis=0),
        std_regret=reg.std(axis=0),
    )


def sorted_reward_cdf(ledgers: Sequence[RegretLedger]) -> np.ndarray:
    """Mean reward at each round across the batch, sorted increasing.

    The low end of the curve shows how hard the policy was hit while probing
    poor arms.
    """
    _equal_horizons(ledgers)
    mean_per_round = np.stack([led.rewards for led in ledgers]).mean(axis=0)
    return np.sort(mean_per_round)


def sorted_final_regret(per_instance_regrets: Sequence[float]) -> np.ndarray:
    """Sorted copy of per-instance final regrets (one curve point per instance)."""
    values = np.asarray(list(per_instance_regrets), dtype=np.float64)
    if values.size == 0:
        raise ValueError("need at least one value")
    return np.sort(values)


@dataclass(frozen=True, eq=False)
class SweepCell:
    """Aggregate of one grid cell: the overridden parameters and final regrets."""

    params: dict
    mean_final_regret: float
    mean_final_regret_emp: float
    std_final_regret: float


def sweep(base: RunConfig, grid: dict) -> list[SweepCell]:
    """Run the Cartesian product of ``grid`` overrides on ``base``.

    Keys must be field names of the policy config (unknown names are
    rejected).  Every cell reuses the base seed, so all cells face the same
    reward tables and differ only in the policy parameters.  An empty grid
    yields the single base cell.
    """
    valid = {f.name for f in dataclasses.fields(base.policy)}
    for name in grid:
        if name not in valid:
            raise ConfigError(
                f"unknown sweep parameter {name!r} for policy "
                f"{type(base.policy).kind!r}; valid: {sorted(valid)}"
            )
    names = list(grid)
    combos = itertools.product(*(grid[n] for n in names)) if names else [()]
    cells = []
    for combo in combos:
        params = dict(zip(names, combo))
        try:
            policy = dataclasses.replace(base.policy, **params)
        except ValueError as err:
            raise ConfigError(f"sweep cell {params}: {err}") from None
        cfg = dataclasses.replace(base, policy=policy)
        ledgers = run_many(cfg)
        finals = np.array([led.regret[-1] for led in ledgers])
        finals_emp = np.array([led.regret_emp[-1] for led in ledgers])
        cells.append(
            SweepCell(
                params=params,
                mean_final_regret=float(finals.mean()),
                mean_final_regret_emp=float(finals_emp.mean()),
                std_final_regret=float(finals.std()),
            )
        )
    return cells
