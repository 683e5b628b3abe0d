import math
from pathlib import Path

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
from riskbandit.config import load_experiment_spec, resolve_policy
from riskbandit.harness import (
    STACK_FLOATS,
    RegretTotals,
    draw_reward_table,
    draw_tables,
    expand_grid,
    pack,
    sweep_sizes,
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


class TestPackInstances:
    def test_small_instances_share_one_call(self):
        assert pack([(1000,)] * 5, STACK_FLOATS) == [5]
        assert pack([(STACK_FLOATS // 2,)] * 5, STACK_FLOATS) == [2, 2, 1]

    def test_oversized_instance_plays_alone(self):
        big = (STACK_FLOATS + 1,)
        assert pack([big], STACK_FLOATS) == [1]
        assert pack([(10,), big, (10,), (10,)], STACK_FLOATS) == [1, 1, 2]
        assert pack([(STACK_FLOATS,), (1,)], STACK_FLOATS) == [1, 1]

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(sizes=st.lists(st.integers(1, 2 * STACK_FLOATS), max_size=12))
    def test_groups_fill_in_order_within_the_cap(self, sizes):
        groups = pack([(size,) for size in sizes], STACK_FLOATS)
        assert sum(groups) == len(sizes) and all(g >= 1 for g in groups)
        start = 0
        for size in groups:
            floats = sum(sizes[start : start + size])
            start += size
            if size > 1:
                assert floats <= STACK_FLOATS
            # a group ends only where the next instance would break the cap
            if start < len(sizes):
                assert floats + sizes[start] > STACK_FLOATS


@st.composite
def packed_sizes(draw):
    """A budget and up to 12 items of 1-3 sizes each, some of them "alone"."""
    budget = draw(st.integers(1, 100))
    size = st.tuples(*[st.integers(0, 2 * budget)] * draw(st.integers(1, 3)))
    return draw(st.lists(st.none() | size, max_size=12)), budget


# every spec's kernel call plan: call sizes for each policy of a run, per
# policy label for a sweep
SPEC_PLANS = [
    ("perfbench/specs/mixture_run.yaml", "run", [3]),
    ("perfbench/specs/plateau_run.yaml", "run", [1]),
    ("perfbench/specs/alpha_sweep.yaml", "sweep", {"marab": [6, 1, 1], "min": [1]}),
    ("recipes/mixture_regret.yaml", "run", [1] * 10),
    ("recipes/battery.yaml", "run", [1] * 10),
    ("recipes/plateau.yaml", "run", [1]),
    ("recipes/marab_alpha_sweep.yaml", "sweep", {"marab": [10, 7, 3] + [1] * 8, "min": [1]}),
]


class TestPack:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(items=packed_sizes())
    def test_calls_fill_in_order_within_the_budget(self, items):
        sizes, budget = items
        calls = pack(sizes, budget)
        assert sum(calls) == len(sizes) and all(n >= 1 for n in calls)
        start = 0
        for n in calls:
            call = sizes[start : start + n]
            start += n
            if n > 1:
                # an "alone" item never shares a call
                assert None not in call
                assert all(sum(column) <= budget for column in zip(*call))
            # a call ends only where the next item would break the budget
            if start < len(sizes):
                grown = call + [sizes[start]]
                assert None in grown or any(sum(column) > budget for column in zip(*grown))

    @pytest.mark.parametrize(
        "path, command, plan",
        SPEC_PLANS,
        ids=[Path(path).stem for path, _, _ in SPEC_PLANS],
    )
    def test_spec_call_plan(self, path, command, plan):
        # the plans the CLI plays: a run stacks instances against STACK_FLOATS
        # (one plan for every policy), a sweep packs each policy's grid cells
        # against the size of the shared reward array
        spec = load_experiment_spec(ROOT / path)
        k = spec.problem.params.get("k", spec.problem.params.get("n_arms"))
        shape = (spec.runs, k, spec.horizon)
        if command == "run":
            assert pack([(math.prod(shape),)] * spec.instances, STACK_FLOATS) == plan
            return
        plans = {}
        for entry in spec.policies:
            base = RunConfig(
                problem=gen_proof_of_concept(k=k),
                policy=resolve_policy(entry, k, spec.horizon),
                horizon=spec.horizon,
                seed=spec.seed,
                n_runs=spec.runs,
            )
            policies = [cfg.policy for _, cfg in expand_grid(base, entry.sweep or {})]
            plans[entry.label] = pack(sweep_sizes(policies, shape), math.prod(shape))
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


def _cell_floats(policy, shape):
    """A cell's MaRaB sorted rows and per-round records, in floats."""
    runs, k, horizon = shape
    rows = 0
    if policy.kind == "marab":
        L = int(tail_sizes(policy.alpha, horizon)[-1])
        # a one-reward tail is a running minimum and keeps no buffer
        rows = 0 if L == 1 else runs * k * (L + 1)
    return rows, 2 * runs * horizon


class TestPackCells:
    def test_sweep_keeps_grid_order_across_calls(self, small_cfg):
        import dataclasses

        base = dataclasses.replace(small_cfg, policy=MaRaB(c=0.001, alpha=0.2), n_runs=2)
        grid = {"c": [0.0, 1.0], "alpha": [0.01, 0.999, 0.3]}
        cells = sweep(base, grid)
        assert [c.params for c in cells] == [params for params, _ in expand_grid(base, grid)]
        # an alpha = 0.999 cell exceeds the sorted-rows bound on its own, so
        # the grid takes several calls, one of them with several cells
        policies = [cfg.policy for _, cfg in expand_grid(base, grid)]
        shape = (2, base.problem.k, base.horizon)
        sizes = pack(sweep_sizes(policies, shape), math.prod(shape))
        assert len(sizes) > 1 and max(sizes) > 1
        for cell, (_, cfg) in zip(cells, expand_grid(base, grid)):
            finals = np.array([led.regret[-1] for led in run_many(cfg)])
            assert cell.mean_final_regret == finals.mean()
            assert cell.std_final_regret == finals.std()

    def test_oversized_cell_runs_alone(self):
        # budget 2 * 10 * 10 = 200 floats; alpha = 0.999 keeps L = 10, so its
        # 2 * 10 * 11 = 220 sorted floats exceed the bound on their own
        small, big = MaRaB(c=0.0, alpha=0.1), MaRaB(c=0.0, alpha=0.999)
        assert pack(sweep_sizes([small, small, big, small], (2, 10, 10)), 200) == [2, 1, 1]
        assert pack(sweep_sizes([big], (2, 10, 10)), 200) == [1]
        assert pack(sweep_sizes([big, big], (2, 10, 10)), 200) == [1, 1]

    def test_records_bound_cells_without_sorted_rows(self):
        # alpha * horizon <= 1 keeps no sorted rows; two (runs, horizon)
        # records per cell: k / 2 cells fill the budget
        assert pack(sweep_sizes([MaRaB(c=0.5, alpha=0.01)] * 7, (3, 4, 50)), 600) == [2, 2, 2, 1]

    def test_other_kinds_play_one_cell_per_call(self):
        assert sweep_sizes([UCB(c=0.5), MIN()], (3, 4, 50)) == [None, None]
        assert pack(sweep_sizes([UCB(c=0.5)] * 3, (3, 4, 50)), 600) == [1, 1, 1]
        assert pack(sweep_sizes([MIN()], (3, 4, 50)), 600) == [1]

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        alphas=st.lists(st.floats(0.001, 0.999), min_size=1, max_size=12),
        shape=st.tuples(st.integers(1, 5), st.integers(2, 12), st.integers(12, 300)),
    )
    def test_no_call_breaks_a_bound(self, alphas, shape):
        policies = [MaRaB(c=0.0, alpha=a) for a in alphas]
        budget = shape[0] * shape[1] * shape[2]
        sizes = pack(sweep_sizes(policies, shape), budget)
        assert sum(sizes) == len(policies) and min(sizes) >= 1
        start = 0
        for size in sizes:
            call = [_cell_floats(p, shape) for p in policies[start : start + size]]
            start += size
            if size > 1:
                assert sum(rows for rows, _ in call) <= budget
                assert sum(records for _, records in call) <= budget
            # a call ends only where the next cell would break a bound
            if start < len(policies):
                rows, records = _cell_floats(policies[start], shape)
                assert (
                    sum(r for r, _ in call) + rows > budget
                    or sum(r for _, r in call) + records > budget
                )

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        alphas=st.lists(st.floats(0.001, 0.999), min_size=1, max_size=12),
        shape=st.tuples(st.integers(1, 5), st.integers(2, 12), st.integers(12, 300)),
    )
    def test_marab_sizes_are_sorted_rows_and_records(self, alphas, shape):
        policies = [MaRaB(c=0.0, alpha=a) for a in alphas]
        assert sweep_sizes(policies, shape) == [_cell_floats(p, shape) for p in policies]
