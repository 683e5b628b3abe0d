import dataclasses
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from riskbandit import (
    ConfigError,
    ExpExp,
    MIN,
    MVLCB,
    MaRaB,
    RunConfig,
    UCB,
    aggregate_regret,
    gen_from_matrix,
    gen_proof_of_concept,
    run_episode,
    run_many,
    sorted_final_regret,
    sorted_reward_cdf,
    sweep,
)
import riskbandit.harness as harness
from riskbandit.config import load_experiment_spec, resolve_policy
from riskbandit.harness import (
    RegretTotals,
    draw_reward_table,
    draw_tables,
    expand_grid,
    run_plan,
    sweep_plan,
)
from riskbandit.kernels import tail_sizes

ROOT = Path(__file__).resolve().parents[1]
ALPHA_SWEEP_SPEC = ROOT / "perfbench" / "specs" / "alpha_sweep.yaml"


@pytest.fixture(scope="module")
def small_cfg():
    problem = gen_proof_of_concept(k=4, r_max=0.3)
    return RunConfig(problem=problem, policy=UCB(c=0.001), horizon=200, seed=11, n_runs=6)


class TestRunConfigValidation:
    def test_horizon_below_k(self, poc_problem):
        with pytest.raises(ConfigError, match="horizon"):
            RunConfig(problem=poc_problem, policy=MIN(), horizon=10, seed=0, n_runs=1)

    def test_runs_positive(self, poc_problem):
        with pytest.raises(ConfigError, match="n_runs"):
            RunConfig(problem=poc_problem, policy=MIN(), horizon=100, seed=0, n_runs=0)

    def test_seed_checked(self, poc_problem):
        with pytest.raises(ConfigError, match="seed"):
            RunConfig(problem=poc_problem, policy=MIN(), horizon=100, seed=-1, n_runs=1)

    def test_expexp_tau_bounds(self, poc_problem):
        with pytest.raises(ConfigError, match="tau"):
            RunConfig(
                problem=poc_problem, policy=ExpExp(rho=1.0, tau=5), horizon=100, seed=0, n_runs=1
            )
        with pytest.raises(ConfigError, match="tau"):
            RunConfig(
                problem=poc_problem, policy=ExpExp(rho=1.0, tau=500), horizon=100, seed=0, n_runs=1
            )


class TestRewardTables:
    def test_shape_and_support(self, poc_problem):
        table = draw_reward_table(poc_problem, seed=5, run_index=0, horizon=40)
        assert table.shape == (poc_problem.k, 40)
        for a, arm in enumerate(poc_problem.arms):
            assert table[a].min() >= arm.low
            assert table[a].max() <= arm.high

    def test_extending_horizon_keeps_prefix(self, poc_problem):
        short = draw_reward_table(poc_problem, seed=5, run_index=2, horizon=30)
        long = draw_reward_table(poc_problem, seed=5, run_index=2, horizon=90)
        assert np.array_equal(long[:, :30], short)

    def test_runs_draw_distinct_tables(self, poc_problem):
        a = draw_reward_table(poc_problem, seed=5, run_index=0, horizon=30)
        b = draw_reward_table(poc_problem, seed=5, run_index=1, horizon=30)
        assert not np.array_equal(a, b)


class TestRunEpisode:
    def test_regret_identities(self, small_cfg):
        led = run_episode(small_cfg, 0)
        problem = small_cfg.problem
        np.testing.assert_allclose(
            led.regret, np.cumsum(problem.margins_mean[led.chosen]), atol=0
        )
        t = np.arange(1, small_cfg.horizon + 1)
        np.testing.assert_allclose(
            led.regret_emp, t * problem.mu_star - np.cumsum(led.rewards), atol=0
        )
        assert led.pull_counts.sum() == small_cfg.horizon
        assert led.horizon == small_cfg.horizon

    def test_regret_monotone_nondecreasing(self, small_cfg):
        led = run_episode(small_cfg, 1)
        assert np.all(np.diff(led.regret) >= 0)
        assert led.regret[0] == 0.0  # init pass starts on the best arm

    def test_identical_arms_zero_regret(self):
        problem = gen_from_matrix([[0.4, 0.6], [0.4, 0.6], [0.4, 0.6]])
        cfg = RunConfig(problem=problem, policy=UCB(c=0.1), horizon=150, seed=3, n_runs=1)
        led = run_episode(cfg, 0)
        assert np.all(led.regret == 0.0)

    def test_run_index_validation(self, small_cfg):
        with pytest.raises(ValueError, match="run_index"):
            run_episode(small_cfg, -1)

    def test_outputs_read_only(self, small_cfg):
        led = run_episode(small_cfg, 0)
        with pytest.raises(ValueError):
            led.regret[0] = 1.0


class TestRoundRobinClosedForm:
    def test_linear_regret_of_pure_alternation(self):
        # two deterministic arms, tau = horizon: strict alternation pulls the
        # worse arm exactly half the rounds, each pull costing its mean gap
        problem = gen_from_matrix([[0.5], [0.4]])
        horizon = 400
        cfg = RunConfig(
            problem=problem,
            policy=ExpExp(rho=1.0, tau=horizon),
            horizon=horizon,
            seed=0,
            n_runs=1,
        )
        led = run_episode(cfg, 0)
        expected = pytest.approx(0.1 * horizon / 2, abs=1e-9)
        assert led.regret[-1] == expected
        assert led.regret_emp[-1] == expected


class TestRunMany:
    def test_adding_runs_keeps_existing(self, small_cfg):
        import dataclasses

        fewer = run_many(small_cfg)
        more = run_many(dataclasses.replace(small_cfg, n_runs=small_cfg.n_runs + 3))
        for a, b in zip(fewer, more):
            assert np.array_equal(a.chosen, b.chosen)
            assert np.array_equal(a.rewards, b.rewards)

    def test_same_table_across_policies(self, small_cfg):
        import dataclasses

        led_ucb = run_episode(small_cfg, 0)
        led_min = run_episode(dataclasses.replace(small_cfg, policy=MIN()), 0)
        # same (seed, run, arm) streams: wherever pull ranks line up, rewards agree
        table = draw_reward_table(small_cfg.problem, small_cfg.seed, 0, small_cfg.horizon)
        for led in (led_ucb, led_min):
            counts = np.zeros(small_cfg.problem.k, dtype=int)
            for t in range(small_cfg.horizon):
                a = led.chosen[t]
                assert led.rewards[t] == table[a, counts[a]]
                counts[a] += 1


    def test_given_tables_equal_own_draw(self, small_cfg):
        import dataclasses

        tables = draw_tables(small_cfg)
        assert tables.shape == (small_cfg.n_runs, small_cfg.problem.k, small_cfg.horizon)
        for policy in (small_cfg.policy, MIN()):
            cfg = dataclasses.replace(small_cfg, policy=policy)
            for a, b in zip(run_many(cfg), run_many(cfg, tables)):
                assert np.array_equal(a.chosen, b.chosen)
                assert np.array_equal(a.rewards, b.rewards)

    def test_tables_shape_checked(self, small_cfg):
        import dataclasses

        tables = draw_tables(dataclasses.replace(small_cfg, n_runs=2))
        with pytest.raises(ValueError, match="shape"):
            run_many(small_cfg, tables)


@st.composite
def stacked_configs(draw, kind):
    """The configs of 1-4 instances that share one ``kind`` policy, on
    proof-of-concept problems of different gaps and seeds."""
    runs = draw(st.integers(1, 3))
    k = draw(st.integers(2, 5))
    horizon = draw(st.integers(k, 40))
    policy = draw(
        {
            "ucb": st.builds(UCB, c=st.floats(0.001, 2.0)),
            "min": st.just(MIN()),
            "marab": st.builds(MaRaB, c=st.floats(0.0, 2.0), alpha=st.floats(0.01, 0.99)),
            "mvlcb": st.builds(MVLCB, rho=st.floats(0.1, 2.0), delta=st.floats(0.001, 0.5)),
            "expexp": st.builds(ExpExp, rho=st.floats(0.1, 2.0), tau=st.integers(k, horizon)),
        }[kind]
    )
    instances = draw(st.integers(1, 4))
    return [
        RunConfig(
            problem=gen_proof_of_concept(
                k=k, delta_max=draw(st.floats(0.01, 0.1)), r_max=draw(st.floats(0.05, 0.35))
            ),
            policy=policy,
            horizon=horizon,
            seed=draw(st.integers(0, 2**32 - 1)),
            n_runs=runs,
        )
        for _ in range(instances)
    ]


class TestStackedInstances:
    @pytest.mark.parametrize("kind", ["ucb", "min", "marab", "mvlcb", "expexp"])
    def test_stacked_equals_per_instance(self, kind):
        @settings(max_examples=40, deadline=None, derandomize=True, database=None)
        @given(configs=stacked_configs(kind))
        def check(configs):
            tables = draw_tables(configs)
            assert np.array_equal(tables, np.concatenate([draw_tables(cfg) for cfg in configs]))
            stacked = run_many(configs, tables)
            alone = [led for cfg in configs for led in run_many(cfg)]
            assert len(stacked) == len(alone) == len(configs) * configs[0].n_runs
            for got, want in zip(stacked, alone):
                for field in ("chosen", "rewards", "regret", "regret_emp", "pull_counts"):
                    a, b = getattr(got, field), getattr(want, field)
                    assert a.dtype == b.dtype and np.array_equal(a, b)

        check()

    def test_draws_when_tables_not_given(self, small_cfg):
        import dataclasses

        configs = [small_cfg, dataclasses.replace(small_cfg, seed=12)]
        for a, b in zip(run_many(configs), run_many(configs, draw_tables(configs))):
            assert np.array_equal(a.chosen, b.chosen)

    @pytest.mark.parametrize(
        "change",
        [
            {"policy": MIN()},
            {"horizon": 150},
            {"n_runs": 5},
            {"problem": gen_proof_of_concept(k=5, r_max=0.3)},
        ],
        ids=["policy", "horizon", "n_runs", "k"],
    )
    def test_mismatched_configs_rejected(self, small_cfg, change):
        import dataclasses

        configs = [small_cfg, dataclasses.replace(small_cfg, seed=12, **change)]
        with pytest.raises(ValueError, match="must share"):
            run_many(configs)

    def test_no_configs_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            run_many([])

    def test_stacked_tables_shape_checked(self, small_cfg):
        import dataclasses

        configs = [small_cfg, dataclasses.replace(small_cfg, seed=12)]
        with pytest.raises(ValueError, match="shape"):
            run_many(configs, draw_tables(small_cfg))


def _lane_floats(policy, k, horizon):
    """Floats one lane allocates by the budget's rule: two ``horizon``-long
    records, plus the larger of two ledger regret rows and MaRaB's arena of
    ``min(k * L, 4 * (horizon + k))`` floats with five rows of ``L + 1``
    floats of temporaries, and nine ``k``-long rows of MaRaB's per-arm
    state."""
    if policy.kind == "marab":
        L = int(tail_sizes(policy.alpha, horizon)[-1])
        # a one-reward tail plays MIN and keeps no arena
        if L > 1:
            return 2 * horizon + max(2 * horizon, min(k * L, 4 * (horizon + k)) + 5 * (L + 1)) + 9 * k
    return 4 * horizon


def _one_lane_floats(policy, k, horizon):
    """Floats a call adds once for the one lane at a time that the MIN,
    MV-LCB and ExpExp kernels work on: three ``(k, horizon)`` arrays and four
    ``horizon`` rows.  UCB and MaRaB outside the MIN limit add none."""
    stepped = policy.kind == "marab" and _tail_key(policy, horizon) is not None
    return 0 if policy.kind == "ucb" or stepped else (3 * k + 4) * horizon


def _run_call_floats(configs, instances):
    """Floats a run's call of ``instances`` instances counts: their reward
    rows, and the largest of any policy's lanes and one-lane floats."""
    first = configs[0]
    k, horizon = first.problem.k, first.horizon
    lanes = instances * first.n_runs
    return lanes * k * horizon + max(
        lanes * _lane_floats(c.policy, k, horizon) + _one_lane_floats(c.policy, k, horizon) for c in configs
    )


def _tail_key(policy, horizon):
    """Cells with equal keys play one tail schedule: one alpha, or the MIN limit."""
    return None if tail_sizes(policy.alpha, horizon)[-1] == 1 else policy.alpha


def _cell_lanes(policies, horizon):
    """How many sets of lanes a call of ``policies`` plays: MaRaB cells in the
    MIN limit play one, whatever their number."""
    min_limit = policies[0].kind == "marab" and _tail_key(policies[0], horizon) is None
    return 1 if min_limit else len(policies)


def _sizes(calls):
    return [len(call) for call in calls]


@st.composite
def marab_grids(draw):
    """Up to 12 MaRaB cells whose alphas repeat from a pool of up to four,
    and a ``(runs, k, horizon)`` shape."""
    pool = draw(st.lists(st.floats(0.001, 0.999), min_size=1, max_size=4))
    alphas = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    policies = [MaRaB(c=draw(st.sampled_from([0.0, 0.5, 2.0])), alpha=a) for a in alphas]
    return policies, draw(st.tuples(st.integers(1, 5), st.integers(2, 12), st.integers(12, 300)))


@st.composite
def run_plans(draw):
    """One instance's run configs (1-5 policies of any kind on one problem)
    and an instance count."""
    runs = draw(st.integers(1, 4))
    k = draw(st.integers(2, 8))
    horizon = draw(st.integers(k, 200))
    policy = st.one_of(
        st.builds(UCB, c=st.just(0.5)),
        st.just(MIN()),
        st.builds(MaRaB, c=st.just(0.5), alpha=st.floats(0.001, 0.999)),
        st.builds(MVLCB, rho=st.just(1.0), delta=st.just(0.1)),
        st.builds(ExpExp, rho=st.just(1.0), tau=st.integers(k, horizon)),
    )
    problem = gen_proof_of_concept(k=k)
    configs = [
        RunConfig(problem=problem, policy=p, horizon=horizon, seed=1, n_runs=runs)
        for p in draw(st.lists(policy, min_size=1, max_size=5))
    ]
    return configs, draw(st.integers(0, 12))


class TestPackInstances:
    # small_cfg's instance: 6 runs of 4 arms, horizon 200, UCB
    SIZE = 6 * (4 * 200 + 4 * 200)

    def test_small_instances_share_one_call(self, small_cfg, monkeypatch):
        assert _run_call_floats([small_cfg], 1) == self.SIZE
        assert run_plan([small_cfg], 5) == [[0, 1, 2, 3, 4]]
        monkeypatch.setattr(harness, "STACK_FLOATS", 2 * self.SIZE)
        assert run_plan([small_cfg], 5) == [[0, 1], [2, 3], [4]]

    def test_oversized_instance_plays_alone(self, small_cfg, monkeypatch):
        monkeypatch.setattr(harness, "STACK_FLOATS", self.SIZE - 1)
        assert run_plan([small_cfg], 1) == [[0]]
        assert run_plan([small_cfg], 3) == [[0], [1], [2]]
        monkeypatch.setattr(harness, "STACK_FLOATS", self.SIZE)
        assert run_plan([small_cfg], 2) == [[0], [1]]

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(plan=run_plans(), budget=st.integers(1, 20000))
    def test_groups_fill_in_order_within_the_cap(self, plan, budget):
        configs, n = plan
        with mock.patch.object(harness, "STACK_FLOATS", budget):
            calls = run_plan(configs, n)
        # every instance plays once, consecutive instances share calls
        assert [i for call in calls for i in call] == list(range(n))
        for i, g in enumerate(_sizes(calls)):
            if g > 1:
                assert _run_call_floats(configs, g) <= budget
            # a call ends only where the next instance would break the cap
            if i < len(calls) - 1:
                assert _run_call_floats(configs, g + 1) > budget


# every spec's kernel call plan: call sizes for each policy of a run, per
# policy label for a sweep
SPEC_PLANS = [
    ("perfbench/specs/mixture_run.yaml", "run", [3]),
    ("perfbench/specs/plateau_run.yaml", "run", [1]),
    ("perfbench/specs/alpha_sweep.yaml", "sweep", {"marab": [2, 2, 2, 2], "min": [1]}),
    ("recipes/mixture_regret.yaml", "run", [1] * 10),
    ("recipes/battery.yaml", "run", [1] * 10),
    ("recipes/plateau.yaml", "run", [1]),
    (
        "recipes/marab_alpha_sweep.yaml",
        "sweep",
        {"marab": [4, 4, 4, 4, 3, 1, 3, 1, 2, 2], "min": [1]},
    ),
]


class TestPack:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        items=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 200)), max_size=30),
        budget=st.integers(1, 100),
    )
    def test_calls_fill_in_order_within_the_budget(self, items, budget):
        # the one packer, on items of a key and a size each; a call's floats
        # are the sum of its items' sizes
        keys = [key for key, _ in items]
        sizes = [size for _, size in items]
        with mock.patch.object(harness, "STACK_FLOATS", budget):
            calls = harness._pack(keys, lambda call: sum(sizes[i] for i in call))
        # every item plays once, calls keep item order and open in it
        assert sorted(i for call in calls for i in call) == list(range(len(items)))
        assert all(call == sorted(call) for call in calls)
        assert [call[0] for call in calls] == sorted(call[0] for call in calls)
        for n, call in enumerate(calls):
            assert len({keys[i] for i in call}) == 1
            total = sum(sizes[i] for i in call)
            # a call of several items keeps the budget, unless all but its
            # first add nothing
            if total > budget:
                assert all(sizes[i] == 0 for i in call[1:])
            # a later call of the same key opened only where its first item
            # would have broken this one's budget
            later = [c for c in calls[n + 1 :] if keys[c[0]] == keys[call[0]]]
            if later:
                assert sizes[later[0][0]] > 0 and total + sizes[later[0][0]] > max(budget, total)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(plan=run_plans(), grid=marab_grids(), budget=st.integers(1, 20000))
    def test_no_call_exceeds_the_budget(self, plan, grid, budget):
        # the one rule, for both planners: a call of several items allocates
        # at most STACK_FLOATS floats; a run's call counts its instances'
        # reward rows and lanes, a sweep's call (its array drawn beforehand)
        # its lanes only, and MIN-limit cells, which play one set of lanes,
        # share one call whatever the budget
        configs, n = plan
        policies, (runs, k, horizon) = grid
        with mock.patch.object(harness, "STACK_FLOATS", budget):
            groups = run_plan(configs, n)
            calls = sweep_plan(policies, (runs, k, horizon))
        assert all(_run_call_floats(configs, len(g)) <= budget for g in groups if len(g) > 1)
        for call in calls:
            cells = [policies[i] for i in call]
            if len(call) > 1 and _cell_lanes(cells, horizon) > 1:
                assert sum(runs * _lane_floats(p, k, horizon) for p in cells) <= budget
        min_limit = [i for i, p in enumerate(policies) if _tail_key(p, horizon) is None]
        assert not min_limit or min_limit in calls

    @pytest.mark.parametrize(
        "path, command, plan",
        SPEC_PLANS,
        ids=[Path(path).stem for path, _, _ in SPEC_PLANS],
    )
    def test_spec_call_plan(self, path, command, plan):
        # the plans the CLI plays: a run stacks instances into calls (one plan
        # for every policy), a sweep groups each policy's grid cells by tail
        # schedule and fills their calls, both against STACK_FLOATS
        spec = load_experiment_spec(ROOT / path)
        k = spec.problem.params.get("k", spec.problem.params.get("n_arms"))
        bases = [
            RunConfig(
                problem=gen_proof_of_concept(k=k),
                policy=resolve_policy(entry, k, spec.horizon),
                horizon=spec.horizon,
                seed=spec.seed,
                n_runs=spec.runs,
            )
            for entry in spec.policies
        ]
        if command == "run":
            assert _sizes(run_plan(bases, spec.instances)) == plan
            return
        plans = {}
        for entry, base in zip(spec.policies, bases):
            policies = [cfg.policy for _, cfg in expand_grid(base, entry.sweep or {})]
            plans[entry.label] = _sizes(sweep_plan(policies, (spec.runs, k, spec.horizon)))
        assert plans == plan


class TestAggregation:
    def test_single_ledger_identity(self, small_cfg):
        led = run_episode(small_cfg, 0)
        curve = aggregate_regret([led])
        assert np.array_equal(curve.mean_regret, led.regret)
        assert np.array_equal(curve.mean_regret_emp, led.regret_emp)
        assert np.all(curve.std_regret == 0.0)
        assert curve.t[0] == 1 and curve.t[-1] == small_cfg.horizon

    def test_mean_and_population_std(self, small_cfg):
        ledgers = run_many(small_cfg)
        curve = aggregate_regret(ledgers)
        stacked = np.stack([led.regret for led in ledgers])
        np.testing.assert_allclose(curve.mean_regret, stacked.mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(curve.std_regret, stacked.std(axis=0), atol=1e-12)

    def test_totals_equal_stacked_means_bitwise(self, small_cfg):
        import dataclasses

        ledgers = run_many(small_cfg) + run_many(dataclasses.replace(small_cfg, seed=12))
        totals = RegretTotals(ledgers[:4])
        totals.add(ledgers[4:])
        curve = aggregate_regret(totals)
        assert np.array_equal(curve.mean_regret, np.stack([led.regret for led in ledgers]).mean(axis=0))
        assert np.array_equal(curve.mean_regret_emp, np.stack([led.regret_emp for led in ledgers]).mean(axis=0))
        want_cdf = np.sort(np.stack([led.rewards for led in ledgers]).mean(axis=0))
        assert np.array_equal(sorted_reward_cdf(totals), want_cdf)
        assert np.array_equal(sorted_reward_cdf(ledgers), want_cdf)

    def test_mismatched_horizons_rejected(self, small_cfg):
        import dataclasses

        a = run_episode(small_cfg, 0)
        b = run_episode(dataclasses.replace(small_cfg, horizon=100), 0)
        with pytest.raises(ValueError, match="horizon"):
            aggregate_regret([a, b])
        with pytest.raises(ValueError, match="ledger"):
            aggregate_regret([])

    def test_empirical_tracks_theoretical(self, small_cfg):
        import dataclasses

        cfg = dataclasses.replace(small_cfg, horizon=500, n_runs=20)
        curve = aggregate_regret(run_many(cfg))
        gap = abs(curve.mean_regret[-1] - curve.mean_regret_emp[-1])
        assert gap / cfg.horizon <= 0.05


class TestSortedCurves:
    def test_reward_cdf_is_sorted_mean_per_round(self, small_cfg):
        ledgers = run_many(small_cfg)
        curve = sorted_reward_cdf(ledgers)
        assert curve.shape == (small_cfg.horizon,)
        assert np.all(np.diff(curve) >= 0)
        want = np.sort(np.stack([led.rewards for led in ledgers]).mean(axis=0))
        assert np.array_equal(curve, want)

    def test_final_regret_sorting(self):
        assert list(sorted_final_regret([5.0, 1.0, 3.0])) == [1.0, 3.0, 5.0]
        with pytest.raises(ValueError, match="at least one"):
            sorted_final_regret([])


class TestSweep:
    def test_grid_product_order_and_reuse(self, small_cfg):
        import dataclasses

        base = dataclasses.replace(small_cfg, policy=MaRaB(c=0.001, alpha=0.2), n_runs=3)
        cells = sweep(base, {"c": [0.001, 1.0], "alpha": [0.1, 0.4]})
        assert [c.params for c in cells] == [
            {"c": 0.001, "alpha": 0.1},
            {"c": 0.001, "alpha": 0.4},
            {"c": 1.0, "alpha": 0.1},
            {"c": 1.0, "alpha": 0.4},
        ]
        # cell equals a direct run with the overridden policy
        direct = run_many(dataclasses.replace(base, policy=MaRaB(c=1.0, alpha=0.4)))
        finals = np.array([led.regret[-1] for led in direct])
        assert cells[3].mean_final_regret == pytest.approx(finals.mean(), abs=1e-12)
        assert cells[3].std_final_regret == pytest.approx(finals.std(), abs=1e-12)

    def test_empty_grid_is_base_cell(self, small_cfg):
        cells = sweep(small_cfg, {})
        assert len(cells) == 1
        assert cells[0].params == {}

    def test_unknown_parameter_rejected(self, small_cfg):
        with pytest.raises(ConfigError, match="unknown sweep parameter"):
            sweep(small_cfg, {"alpha": [0.1]})  # UCB has no alpha


class TestPackCells:
    def test_sweep_keeps_grid_order_across_calls(self, small_cfg, monkeypatch):
        import dataclasses

        base = dataclasses.replace(small_cfg, policy=MaRaB(c=0.001, alpha=0.2), n_runs=2)
        grid = {"c": [0.0, 1.0], "alpha": [0.01, 0.999, 0.3]}
        # a budget of two alpha = 0.3 cells: a pair of alpha = 0.01 cells fits
        # too, while one alpha = 0.999 cell keeps 201 sorted floats per arm and
        # plays alone, so the grid takes several calls, some with several cells
        k, horizon = base.problem.k, base.horizon
        sizes = {a: 2 * _lane_floats(MaRaB(c=0.0, alpha=a), k, horizon) for a in grid["alpha"]}
        monkeypatch.setattr(harness, "STACK_FLOATS", 2 * sizes[0.3])
        assert 2 * sizes[0.01] <= harness.STACK_FLOATS < 2 * sizes[0.999]
        cells = sweep(base, grid)
        assert [c.params for c in cells] == [params for params, _ in expand_grid(base, grid)]
        # cells play grouped by alpha, out of grid order, and each knows its call
        policies = [cfg.policy for _, cfg in expand_grid(base, grid)]
        calls = sweep_plan(policies, (2, k, horizon))
        assert calls == [[0, 3], [1], [2, 5], [4]]
        assert [cell.call for cell in cells] == [0, 1, 2, 0, 3, 2]
        for cell, (_, cfg) in zip(cells, expand_grid(base, grid)):
            finals = np.array([led.regret[-1] for led in run_many(cfg)])
            assert cell.mean_final_regret == finals.mean()
            assert cell.std_final_regret == finals.std()

    def test_oversized_cell_runs_alone(self, monkeypatch):
        # budget 200 floats on (2, 10, 10); alpha = 0.999 keeps L = 10, so a
        # cell's 2 * (2 * 10 + 15 * 11 + 7 * 10) = 510 floats exceed it on
        # their own, while alpha = 0.1 is in the MIN limit and plays one set
        # of lanes, 2 * 4 * 10 + 34 * 10 = 420 floats, for all its cells
        monkeypatch.setattr(harness, "STACK_FLOATS", 200)
        small, big = MaRaB(c=0.0, alpha=0.1), MaRaB(c=0.0, alpha=0.999)
        assert sweep_plan([small, small, big, small], (2, 10, 10)) == [[0, 1, 3], [2]]
        assert sweep_plan([big], (2, 10, 10)) == [[0]]
        assert sweep_plan([big, big], (2, 10, 10)) == [[0], [1]]

    def test_records_bound_cells_without_sorted_rows(self, monkeypatch):
        # alpha * horizon <= 1 keeps no sorted rows, and every such cell plays
        # the same 3 lanes of 4 * 50 floats: any number share one call, even
        # under a budget that one cell breaks
        for budget in (600, 1):
            monkeypatch.setattr(harness, "STACK_FLOATS", budget)
            assert sweep_plan([MaRaB(c=0.5, alpha=0.01)] * 7, (3, 4, 50)) == [list(range(7))]

    def test_other_kinds_play_one_cell_per_call(self):
        assert sweep_plan([UCB(c=0.5), MIN()], (3, 4, 50)) == [[0], [1]]
        assert sweep_plan([UCB(c=0.5)] * 3, (3, 4, 50)) == [[0], [1], [2]]
        assert sweep_plan([MIN()], (3, 4, 50)) == [[0]]

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(grid=marab_grids(), budget=st.integers(1, 50000))
    def test_no_call_breaks_a_bound(self, grid, budget):
        policies, shape = grid
        runs, k, horizon = shape
        with mock.patch.object(harness, "STACK_FLOATS", budget):
            calls = sweep_plan(policies, shape)
        # every cell plays exactly once
        assert sorted(i for call in calls for i in call) == list(range(len(policies)))
        for n, call in enumerate(calls):
            keys = {_tail_key(policies[i], horizon) for i in call}
            # a call holds one schedule
            assert len(keys) == 1
            # a call of several cells keeps the budget, unless they play one
            # set of lanes
            size = runs * _lane_floats(policies[call[0]], k, horizon)
            if len(call) > 1 and keys != {None}:
                assert len(call) * size <= budget
            # only a schedule's last call is short: a later call of the same
            # schedule means this one could take no more cells
            if any(_tail_key(policies[j[0]], horizon) in keys for j in calls[n + 1 :]):
                assert keys != {None} and (len(call) + 1) * size > budget

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(grid=marab_grids(), budget=st.integers(1, 50000))
    def test_marab_sizes_are_sorted_rows_and_records(self, grid, budget):
        # a buffered cell's size is its lanes' sorted rows and records, or
        # ledger rows; a call holds as many cells as fit in STACK_FLOATS, and
        # at least one; the cells of a schedule keep grid order
        policies, shape = grid
        runs, k, horizon = shape
        with mock.patch.object(harness, "STACK_FLOATS", budget):
            calls = sweep_plan(policies, shape)
        for call in calls:
            size = runs * _lane_floats(policies[call[0]], k, horizon)
            if _tail_key(policies[call[0]], horizon) is not None:
                assert len(call) <= max(1, budget // size)
            assert call == sorted(call)


@st.composite
def kernel_calls(draw, kind, command):
    """One kernel call of ``kind`` on 1-16 runs: a run's call, 1-4 instances
    under one policy, or a sweep's, 1-4 MaRaB cells of one tail schedule on
    one instance (MIN limit included) or one cell of another kind.  Horizons
    reach 1000, where a temporary row per lane outweighs the slack."""
    runs = draw(st.integers(1, 16))
    k = draw(st.integers(2, 8))
    horizon = draw(st.integers(k, 1000))
    policy = {
        "ucb": st.builds(UCB, c=st.floats(0.01, 2.0)),
        "min": st.just(MIN()),
        "mvlcb": st.builds(MVLCB, rho=st.floats(0.1, 2.0), delta=st.floats(0.001, 0.5)),
        "expexp": st.builds(ExpExp, rho=st.floats(0.1, 2.0), tau=st.integers(k, horizon)),
        "marab": st.builds(
            MaRaB,
            c=st.floats(0.0, 2.0),
            alpha=st.one_of(st.floats(1e-4, 1.0 / horizon), st.sampled_from([0.01, 0.05, 0.3, 0.999])),
        ),
    }[kind]
    instances, cells = 1, 1
    if command == "run":
        instances = draw(st.integers(1, 4))
    elif kind == "marab":
        cells = draw(st.integers(1, 4))
    first = draw(policy)
    policies = [first] + [
        dataclasses.replace(first, c=draw(st.floats(0.0, 2.0))) for _ in range(cells - 1)
    ]
    problem = gen_proof_of_concept(k=k)
    configs = [
        RunConfig(problem=problem, policy=first, horizon=horizon, seed=i, n_runs=runs)
        for i in range(instances)
    ]
    return configs, policies


# tracemalloc's peak over one call may pass the rule by numpy's ufunc buffer
# (np.getbufsize() elements), by two ``horizon``-long rows per call (the
# rounds and the best mean's regret line in _ledgers), and per played lane by
# its RegretLedger, five array views and some (lanes, k) kernel state
LANE_SLACK_FLOATS = 128


def test_call_lanes():
    # a row per policy, but MaRaB cells in the MIN limit play the rows once
    assert harness.call_lanes([UCB(c=0.5)], 4, 100) == 4
    assert harness.call_lanes([MaRaB(c=0.0, alpha=0.3), MaRaB(c=1.0, alpha=0.3)], 4, 100) == 8
    assert harness.call_lanes([MaRaB(c=0.0, alpha=0.001), MaRaB(c=1.0, alpha=0.005)], 4, 100) == 4


class TestCallMemory:
    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("kind", ["ucb", "min", "marab", "mvlcb", "expexp"])
    def test_peak_keeps_the_budget_rule(self, kind, command):
        # a run's call draws its instances' reward rows, which the rule
        # counts; a sweep's call plays an array drawn before it.  MIN-limit
        # cells play one set of lanes and are accounted once
        @settings(max_examples=12, deadline=None, derandomize=True, database=None)
        @given(call=kernel_calls(kind, command))
        def check(call):
            assert_peak_keeps_the_rule(*call, command)

        check()

    @pytest.mark.parametrize(
        "policy",
        [MIN(), MVLCB(rho=1.0, delta=0.1), ExpExp(rho=1.0, tau=990), MaRaB(c=0.5, alpha=1e-4)],
        ids=lambda p: p.kind,
    )
    def test_one_lane_of_many_arms_keeps_the_rule(self, policy):
        # one lane of 8 arms: the (k, horizon) temporaries of the kernels that
        # work one lane at a time outweigh the lane's own rows
        cfg = RunConfig(problem=gen_proof_of_concept(k=8), policy=policy, horizon=1000, seed=1, n_runs=1)
        assert_peak_keeps_the_rule([cfg], [policy], "sweep")

    def test_large_alpha_holds_less_than_k_tails_per_lane(self):
        # at alpha 0.999 a tail holds up to L = 999 rewards, but a lane holds
        # at most horizon rewards across its 20 arms: the whole call peaks
        # below the lanes * k * L floats of one L-long sorted row per arm
        policy = MaRaB(c=0.5, alpha=0.999)
        cfg = RunConfig(problem=gen_proof_of_concept(k=20), policy=policy, horizon=1000, seed=1, n_runs=8)
        assert assert_peak_keeps_the_rule([cfg], [policy], "sweep") < 8 * 20 * 999


def assert_peak_keeps_the_rule(configs, policies, command):
    """tracemalloc's peak over one call of ``policies`` on ``configs`` stays
    within the budget rule plus the slack below; returns the peak in floats."""
    import tracemalloc

    first = configs[0]
    k, horizon = first.problem.k, first.horizon
    shape = (len(configs) * first.n_runs, k, horizon)
    lanes = shape[0] * _cell_lanes(policies, horizon)
    rule = lanes * _lane_floats(policies[0], k, horizon) + _one_lane_floats(policies[0], k, horizon)
    rng = np.random.default_rng(horizon)
    tables = None if command == "run" else rng.random(shape)
    tracemalloc.start()
    try:
        if tables is None:
            tables = rng.random(shape)
            rule += tables.size
        for ledgers in harness._play_batches(tables, configs, policies):
            assert len(ledgers) == shape[0]
        peak = tracemalloc.get_traced_memory()[1] / 8
    finally:
        tracemalloc.stop()
    assert peak <= rule + np.getbufsize() + 2 * horizon + LANE_SLACK_FLOATS * lanes
    return peak
