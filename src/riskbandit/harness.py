"""Seeded episode execution, regret accounting, and aggregation.

An episode plays one policy for ``horizon`` rounds against one problem.  The
reward an arm would yield on its ``u``-th pull is drawn up front into a
``(k, horizon)`` table, one derived RNG stream per ``(run, arm)`` pair (see
:mod:`riskbandit.rng`).  A batch stacks its runs' tables into one
``(runs, k, horizon)`` array (:func:`draw_tables`), drawn once and shared by
every policy and every sweep cell played on it, and the kernels of
:mod:`riskbandit.kernels` play all runs of the batch in one call, one run
per *lane*.  One rule lays out every call (:func:`_play_batches`): lane
``cell * rows + i * runs + r`` plays run ``r`` of instance ``i``, of the
``rows`` stacked table rows, under the call's policy ``cell``.  A run plays
one policy on stacked instances, a sweep MaRaB grid cells of one tail
schedule on one instance.  A command's calls are planned once, as each
call's instances or cells (:func:`run_plan`, :func:`sweep_plan`), under one
budget: a call may allocate at most :data:`STACK_FLOATS` floats, counting
the reward rows it draws, what each lane allocates and what a kernel that
works one lane at a time allocates for that lane (:func:`_call_floats`); a
sweep draws its array before any call.

Two consequences worth relying on:

* runs are reproducible bit for bit, and adding runs never changes the
  draws or the episodes of existing ones;
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
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import kernels
from .distributions import sample_many
from .exceptions import ConfigError
from .generators import BanditProblem
from .policies import PolicyConfig, check_fits
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
        try:
            check_fits(self.policy, self.problem.k, self.horizon)
        except ValueError as err:
            raise ConfigError(str(err)) from None


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


def draw_tables(cfg: RunConfig | Sequence[RunConfig]) -> np.ndarray:
    """Every run's reward table of the batch, stacked: shape ``(n_runs, k, horizon)``.

    Given the configs of several instances, their batches are stacked in
    order into shape ``(instances * n_runs, k, horizon)``.  The array
    depends only on the problems, seeds, run count and horizon, so one draw
    serves every policy and every sweep cell of those.  It is allocated
    once and filled one run at a time.
    """
    configs = _instances(cfg)
    runs, k, horizon = configs[0].n_runs, configs[0].problem.k, configs[0].horizon
    tables = np.empty((len(configs) * runs, k, horizon), dtype=np.float64)
    for i, c in enumerate(configs):
        for r in range(runs):
            tables[i * runs + r] = draw_reward_table(c.problem, c.seed, r, horizon)
    return tables


def _play(tables: np.ndarray, *policies: PolicyConfig):
    """Play every table row of ``tables`` under each of ``policies`` in one
    kernel call: lane ``cell * rows + row`` plays ``row``.  Several policies
    must be MaRaB cells of one tail schedule (:func:`_schedule`), which
    differ only in ``c``.  Cells in the MIN limit play MIN once, on the
    ``rows`` lanes alone, whatever their number."""
    # kernel parameters are named after the policy's fields
    first = policies[0]
    params = {f.name: getattr(first, f.name) for f in dataclasses.fields(first)}
    horizon = tables.shape[2]
    if len(policies) > 1:
        if {p.kind for p in policies} != {"marab"} or len({_schedule(p, horizon) for p in policies}) > 1:
            raise ValueError("a kernel call takes MaRaB cells of one alpha, or cells all in the MIN limit")
        params["c"] = [p.c for p in policies]
    if _min_limit(first, horizon):
        # every tail is the lowest reward and log 1 = 0 zeroes the exploration
        # term for any c, so every cell is MIN
        return kernels.episode_min(tables)
    return getattr(kernels, f"episode_{first.kind}")(tables, **params)


def call_lanes(policies: Sequence[PolicyConfig], rows: int, horizon: int) -> int:
    """Lanes one kernel call of ``policies`` on ``rows`` table rows plays: a
    row per policy, or the rows once for MaRaB cells in the MIN limit
    (:func:`_play`)."""
    return rows * (1 if _min_limit(policies[0], horizon) else len(policies))


def _min_limit(policy: PolicyConfig, horizon: int) -> bool:
    return policy.kind == "marab" and _schedule(policy, horizon) is None


def _schedule(policy: PolicyConfig, horizon: int) -> float | None:
    """The tail schedule a MaRaB cell plays: its ``alpha``, or ``None`` in the
    MIN limit (``alpha * horizon <= 1``), where every tail is one reward."""
    return policy.alpha if kernels.tail_sizes(policy.alpha, horizon)[-1] > 1 else None


def _ledgers(cfg: RunConfig, chosen: np.ndarray, rewards: np.ndarray) -> list[RegretLedger]:
    """Account each run's regret from its ``(runs, horizon)`` records, summing in place."""
    regret = cfg.problem.margins_mean[chosen]
    np.cumsum(regret, axis=1, out=regret)
    t = np.arange(1, cfg.horizon + 1, dtype=np.float64)
    regret_emp = np.cumsum(rewards, axis=1)
    np.subtract(t * cfg.problem.mu_star, regret_emp, out=regret_emp)
    pull_counts = np.array([np.bincount(row, minlength=cfg.problem.k) for row in chosen])
    for arr in (chosen, rewards, regret, regret_emp, pull_counts):
        arr.flags.writeable = False
    return [
        RegretLedger(
            chosen=chosen[r],
            rewards=rewards[r],
            regret=regret[r],
            regret_emp=regret_emp[r],
            pull_counts=pull_counts[r],
        )
        for r in range(len(chosen))
    ]


def _play_batches(
    tables: np.ndarray, configs: list[RunConfig], policies: Sequence[PolicyConfig]
) -> Iterator[list[RegretLedger]]:
    """Play ``policies`` on the stacked batches of ``configs`` in one kernel
    call and account every lane's regret.

    Each instance has ``runs = len(tables) // len(configs)`` table rows, and
    lane ``cell * len(tables) + i * runs + r`` plays run ``r`` of instance
    ``i`` under ``policies[cell]``.  Yields each policy's ledgers,
    instance-major, each accounted against its instance's problem; a policy
    is accounted only when its turn comes, so a caller that reduces each
    policy's ledgers before taking the next holds one policy's at a time.
    MaRaB cells in the MIN limit play one set of lanes (:func:`_play`), so
    they are accounted once and every cell gets the same read-only ledgers.
    """
    chosen, rewards = _play(tables, *policies)
    shape = (-1, len(configs), len(tables) // len(configs), chosen.shape[1])
    chosen, rewards = chosen.reshape(shape), rewards.reshape(shape)
    for cell in range(len(policies)):
        if cell < len(chosen):
            records = zip(configs, chosen[cell], rewards[cell])
            ledgers = [led for c, ch, rw in records for led in _ledgers(c, ch, rw)]
        yield ledgers


def run_episode(cfg: RunConfig, run_index: int) -> RegretLedger:
    """Play run ``run_index`` of the batch, as a batch of one, and account its regret."""
    if run_index < 0:
        raise ValueError(f"run_index must be >= 0, got {run_index}")
    table = draw_reward_table(cfg.problem, cfg.seed, run_index, cfg.horizon)
    (ledgers,) = _play_batches(table[np.newaxis], [cfg], [cfg.policy])
    return ledgers[0]


def run_many(cfg: RunConfig | Sequence[RunConfig], tables: np.ndarray | None = None) -> list[RegretLedger]:
    """All ``n_runs`` episodes of one instance's batch, or of several, in one kernel call.

    Given the configs of several instances, which must share policy,
    horizon, run count and arm count, the ledgers are instance-major: run
    ``r`` of instance ``i`` is ledger ``i * n_runs + r``, accounted against
    that instance's problem.  ``tables`` is the :func:`draw_tables` array of
    the same configs, drawn here when not given; pass it to play several
    policies on one draw.
    """
    configs = _instances(cfg)
    (ledgers,) = _play_batches(_tables(configs, tables), configs, [configs[0].policy])
    return ledgers


def _instances(cfg: RunConfig | Sequence[RunConfig]) -> list[RunConfig]:
    """``cfg`` as a non-empty list of configs whose batches can share one kernel call."""
    configs = [cfg] if isinstance(cfg, RunConfig) else list(cfg)
    if not configs:
        raise ValueError("need at least one run config")
    if len({(c.policy, c.horizon, c.n_runs, c.problem.k) for c in configs}) > 1:
        raise ValueError("run configs played in one call must share policy, horizon, n_runs and arm count")
    return configs


def _tables(configs: list[RunConfig], tables: np.ndarray | None) -> np.ndarray:
    """``tables`` checked against the stacked batches' shape, or drawn when not given."""
    if tables is None:
        return draw_tables(configs)
    first = configs[0]
    shape = (len(configs) * first.n_runs, first.problem.k, first.horizon)
    if tables.shape != shape:
        raise ValueError(f"reward tables have shape {tables.shape}, expected {shape}")
    return tables


@dataclass(frozen=True, eq=False)
class RegretCurve:
    """Pointwise aggregate of a batch: round index, mean cumulative regrets, spread."""

    t: np.ndarray
    mean_regret: np.ndarray
    mean_regret_emp: np.ndarray
    std_regret: np.ndarray  # population std of the analytic-mean regret across runs


class RegretTotals:
    """A policy's episodes reduced to what its curves need, in run order.

    Keeps every run's regret row, which the spread needs, in one
    ``(runs, horizon)`` array, but only running sums of ``regret_emp`` and
    ``rewards``, so a long experiment holds one row per run instead of a
    whole ledger.  Given ``rows``, the number of runs to come, the array is
    allocated once at the first ledger; past its end it doubles.  The sums
    add one row at a time, the order in which ``mean(axis=0)`` of the
    stacked rows adds them, so the means equal the stacked ones bit for bit.
    """

    def __init__(self, ledgers: Iterable[RegretLedger] = (), rows: int = 1) -> None:
        self.runs = 0
        self._regret = np.empty((0, 0))
        self._rows = max(1, rows)
        self.regret_emp_sum = None
        self.rewards_sum = None
        self.add(ledgers)

    @property
    def regret(self) -> np.ndarray:
        """Every run's regret row so far, as a ``(runs, horizon)`` view."""
        return self._regret[: self.runs]

    def add(self, ledgers: Iterable[RegretLedger]) -> None:
        for led in ledgers:
            if not self.runs:
                self._regret = np.empty((self._rows, led.horizon))
                self.regret_emp_sum = led.regret_emp.copy()
                self.rewards_sum = led.rewards.copy()
            elif led.horizon != len(self.rewards_sum):
                raise ValueError(
                    f"ledger {self.runs} has horizon {led.horizon}, expected {len(self.rewards_sum)}"
                )
            else:
                self.regret_emp_sum += led.regret_emp
                self.rewards_sum += led.rewards
            if self.runs == len(self._regret):
                self._regret = np.concatenate((self._regret, np.empty_like(self._regret)))
            self._regret[self.runs] = led.regret
            self.runs += 1


def _totals(ledgers: Iterable[RegretLedger] | RegretTotals) -> RegretTotals:
    totals = ledgers if isinstance(ledgers, RegretTotals) else RegretTotals(ledgers)
    if not totals.runs:
        raise ValueError("need at least one ledger")
    return totals


def aggregate_regret(ledgers: Iterable[RegretLedger] | RegretTotals) -> RegretCurve:
    """Pointwise mean and spread of the regret curves of a batch."""
    totals = _totals(ledgers)
    reg = totals.regret
    return RegretCurve(
        t=np.arange(1, reg.shape[1] + 1),
        mean_regret=reg.mean(axis=0),
        mean_regret_emp=totals.regret_emp_sum / len(reg),
        std_regret=reg.std(axis=0),
    )


def sorted_reward_cdf(ledgers: Iterable[RegretLedger] | RegretTotals) -> np.ndarray:
    """Mean reward at each round across the batch, sorted increasing.

    The low end of the curve shows how hard the policy was hit while probing
    poor arms.
    """
    totals = _totals(ledgers)
    return np.sort(totals.rewards_sum / totals.runs)


def sorted_final_regret(per_instance_regrets: Sequence[float]) -> np.ndarray:
    """Sorted copy of per-instance final regrets (one curve point per instance)."""
    values = np.asarray(list(per_instance_regrets), dtype=np.float64)
    if values.size == 0:
        raise ValueError("need at least one value")
    return np.sort(values)


@dataclass(frozen=True, eq=False)
class SweepCell:
    """Aggregate of one grid cell: its parameters, final regrets, and the call that played it."""

    params: dict
    mean_final_regret: float
    mean_final_regret_emp: float
    std_final_regret: float
    call: int


def expand_grid(base: RunConfig, grid: dict) -> list[tuple[dict, RunConfig]]:
    """Every cell of the Cartesian product of ``grid`` overrides on ``base``.

    Keys must be field names of the policy config (unknown names are
    rejected), and every cell's policy is validated.  Each cell is its
    overridden parameters and its run config; an empty grid yields the
    single base cell.
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
            cells.append((params, dataclasses.replace(base, policy=policy)))
        except ValueError as err:
            raise ConfigError(f"sweep cell {params}: {err}") from None
    return cells


# Floats one kernel call may allocate (16 MiB): the reward rows it draws,
# plus :func:`_call_floats` for the lanes it plays.
STACK_FLOATS = 2**21


def _call_floats(policies: Sequence[PolicyConfig], rows: int, k: int, horizon: int) -> int:
    """Floats a kernel call of ``policies`` on ``rows`` table rows allocates.
    Each lane has two ``horizon``-long records, and the larger of two ledger
    regret rows and MaRaB's arena of sorted segments
    (:func:`~riskbandit.kernels.arena_size`) with five rows of
    :func:`~riskbandit.kernels.buffer_width` floats of temporaries, and
    nine ``k``-long rows of MaRaB's per-arm state.  MIN, MV-LCB and ExpExp
    work on one lane at a time, which adds three ``(k, horizon)`` arrays and
    four ``horizon`` rows."""
    policy, lanes = policies[0], call_lanes(policies, rows, horizon)
    if policy.kind == "ucb":
        return lanes * 4 * horizon
    if policy.kind != "marab" or _min_limit(policy, horizon):
        return lanes * 4 * horizon + (3 * k + 4) * horizon
    arena = kernels.arena_size(policy.alpha, horizon, k)
    width = kernels.buffer_width(policy.alpha, horizon)
    return lanes * (2 * horizon + max(2 * horizon, arena + 5 * width) + 9 * k)


def _pack(keys: Sequence, floats: Callable[[list[int]], int]) -> list[list[int]]:
    """Kernel calls of items ``0..n-1``, as lists of item indices in order
    of their first items.  An item joins the last call of its key while
    ``floats(call)`` keeps within :data:`STACK_FLOATS`, and always when it
    adds no floats; otherwise it opens a call of its own."""
    calls, last = [], {}
    for i, key in enumerate(keys):
        call = last.get(key)
        if call and floats(call + [i]) <= max(STACK_FLOATS, floats(call)):
            call.append(i)
        else:
            last[key] = [i]
            calls.append(last[key])
    return calls


def run_plan(configs: Sequence[RunConfig], instances: int) -> list[list[int]]:
    """The kernel calls of a run, as lists of instance indices, given one
    instance's run configs, one per policy.  Every policy plays the same
    calls, each on one :func:`draw_tables` array, so a call counts its
    instances' reward rows and the largest :func:`_call_floats` of any
    policy on their lanes."""
    first = configs[0]
    k, horizon = first.problem.k, first.horizon

    def floats(call: list[int]) -> int:
        rows = len(call) * first.n_runs
        return rows * k * horizon + max(_call_floats([c.policy], rows, k, horizon) for c in configs)

    return _pack([None] * instances, floats)


def sweep_plan(policies: Sequence[PolicyConfig], shape: tuple[int, int, int]) -> list[list[int]]:
    """The kernel calls of sweep cells on a ``(runs, k, horizon)`` array, as
    lists of cell indices.  MaRaB cells of one tail schedule may share a
    call; any other cell plays alone.  The array is drawn before any call,
    so a call counts only its lanes."""
    runs, k, horizon = shape
    keys = [_schedule(p, horizon) if p.kind == "marab" else ("alone", i) for i, p in enumerate(policies)]
    return _pack(keys, lambda call: _call_floats([policies[i] for i in call], runs, k, horizon))


def sweep(base: RunConfig, grid: dict, tables: np.ndarray | None = None) -> list[SweepCell]:
    """Run every cell of :func:`expand_grid` on ``base``.

    Every cell reuses the base seed, so all cells play the one ``tables``
    array (drawn here when not given) and differ only in the policy
    parameters.  The cells are played as the lanes of :func:`sweep_plan`'s
    kernel calls and returned in grid order, each with its call's index;
    each call's records are dropped before the next call starts.
    """
    cells = expand_grid(base, grid)
    tables = _tables([base], tables)
    policies = [cfg.policy for _, cfg in cells]
    results = [None] * len(cells)
    for n, call in enumerate(sweep_plan(policies, tables.shape)):
        for i, ledgers in zip(call, _play_batches(tables, [base], [policies[i] for i in call])):
            results[i] = _sweep_cell(cells[i][0], n, ledgers)
    return results


def _sweep_cell(params: dict, call: int, ledgers: list[RegretLedger]) -> SweepCell:
    finals = np.array([led.regret[-1] for led in ledgers])
    finals_emp = np.array([led.regret_emp[-1] for led in ledgers])
    return SweepCell(
        params=params,
        mean_final_regret=float(finals.mean()),
        mean_final_regret_emp=float(finals_emp.mean()),
        std_final_regret=float(finals.std()),
        call=call,
    )
