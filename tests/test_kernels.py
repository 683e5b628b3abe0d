from bisect import insort

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from riskbandit import (
    ArmStats,
    ExpExp,
    MIN,
    MVLCB,
    MaRaB,
    PolicyState,
    UCB,
    select_arm,
)
from riskbandit import kernels
from riskbandit.harness import _play, _schedule, draw_reward_table, sweep_plan
from riskbandit.kernels import (
    buffer_width,
    episode_expexp,
    episode_marab,
    episode_min,
    episode_mvlcb,
    episode_ucb,
)

POLICIES = [
    UCB(c=0.001),
    MIN(),
    MaRaB(c=0.001, alpha=0.2),
    MaRaB(c=10.0, alpha=0.4),
    MVLCB(rho=1.0, delta=0.01),
    ExpExp(rho=1.0, tau=40),
]


def reference_episode(table, policy, observe=ArmStats.update):
    """Object-layer episode on one ``(k, horizon)`` table; every run of a
    kernel batch must reproduce this on its own table bit for bit."""
    k, horizon = table.shape
    state = PolicyState(config=policy)
    stats = [ArmStats() for _ in range(k)]
    counts = [0] * k
    chosen = np.empty(horizon, dtype=np.int64)
    rewards = np.empty(horizon, dtype=np.float64)
    for t in range(1, horizon + 1):
        a = select_arm(state, stats, t=t)
        x = table[a, counts[a]]
        observe(stats[a], float(x))
        counts[a] += 1
        chosen[t - 1] = a
        rewards[t - 1] = x
    return chosen, rewards


def observe_unchecked(stats, x):
    """What ``ArmStats.update`` records of a reward, in its order, without its
    [0, 1] check: the sum, the count, the Welford sum of squared deviations
    and the sorted rewards."""
    prev_mean = stats.running_sum / stats.count if stats.count else 0.0
    stats.running_sum += x
    stats.count += 1
    stats.running_sq_dev += (x - prev_mean) * (x - stats.running_sum / stats.count)
    insort(stats._sorted, x)


def assert_runs_match_reference(tables, policy, chosen, rewards, observe=ArmStats.update):
    assert chosen.shape == rewards.shape == (tables.shape[0], tables.shape[2])
    for table, got_chosen, got_rewards in zip(tables, chosen, rewards):
        want_chosen, want_rewards = reference_episode(table, policy, observe)
        assert np.array_equal(got_chosen, want_chosen)
        assert np.array_equal(got_rewards, want_rewards)


@pytest.fixture(scope="module")
def tables(poc_problem):
    rng = np.random.default_rng(99)
    return [
        np.stack([draw_reward_table(poc_problem, seed=3, run_index=r, horizon=300)[:5] for r in range(3)]),
        rng.random((2, 4, 250)),
    ]


class TestKernelEquivalence:
    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: repr(p))
    def test_bit_exact_against_object_layer(self, policy, tables):
        for batch in tables:
            assert_runs_match_reference(batch, policy, *_play(batch, policy))

    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: repr(p))
    def test_output_contract(self, policy, tables):
        batch = tables[0]
        runs, k, horizon = batch.shape
        chosen, reward_seq = _play(batch, policy)
        assert chosen.dtype == np.int64
        assert reward_seq.dtype == np.float64
        assert chosen.shape == reward_seq.shape == (runs, horizon)
        assert chosen.min() >= 0 and chosen.max() < k
        # each round of each run consumes the next unconsumed entry of the
        # pulled arm's row in that run's own table
        for table, run_chosen, run_rewards in zip(batch, chosen, reward_seq):
            counts = np.zeros(k, dtype=np.int64)
            for t in range(horizon):
                a = run_chosen[t]
                assert run_rewards[t] == table[a, counts[a]]
                counts[a] += 1
            assert counts.sum() == horizon


@st.composite
def tied_tables(draw):
    """A ``(runs, k, horizon)`` batch over a few repeated values, so ties occur."""
    runs = draw(st.integers(1, 4))
    k = draw(st.integers(2, 6))
    horizon = draw(st.integers(k, 120))
    pool = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.choice(np.array(pool), size=(runs, k, horizon))


_weight = st.floats(0.0, 10.0)
_positive = st.floats(0.0, 10.0, exclude_min=True)
_unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
POLICY_STRATEGIES = {
    "ucb": st.builds(UCB, c=_positive),
    "min": st.just(MIN()),
    # small alphas keep tails of a few rewards, so they fill up mid-episode
    "marab": st.builds(MaRaB, c=_weight, alpha=st.one_of(_unit, st.floats(0.005, 0.05))),
    "mvlcb": st.builds(MVLCB, rho=_positive, delta=_unit),
    "expexp": st.builds(ExpExp, rho=_positive, tau=st.integers(1, 130)),
}


class TestKernelProperties:
    @pytest.mark.parametrize("kind", sorted(POLICY_STRATEGIES))
    def test_kernel_equals_object_layer(self, kind):
        @settings(max_examples=500, deadline=None, derandomize=True, database=None)
        @given(batch=tied_tables(), policy=POLICY_STRATEGIES[kind])
        def check(batch, policy):
            assert_runs_match_reference(batch, policy, *_play(batch, policy))

        check()


@st.composite
def packed_cells(draw):
    """One to five MaRaB cells of one tail schedule that vary ``c``, 0
    included, so cells repeat and equal parameters need not be adjacent: one
    alpha from a one-sample tail to 0.999, or alphas all in the MIN limit
    (alpha * horizon <= 1 for every horizon up to 120)."""
    cs = draw(st.lists(st.one_of(st.just(0.0), _weight), min_size=1, max_size=5))
    if draw(st.booleans()):
        return [MaRaB(c=c, alpha=draw(st.floats(1e-4, 1 / 120))) for c in cs]
    alpha = draw(st.one_of(st.floats(0.005, 0.05), _unit, st.just(0.999)))
    return [MaRaB(c=c, alpha=alpha) for c in cs]


class TestPackedCalls:
    def test_every_lane_equals_object_layer(self):
        @settings(max_examples=300, deadline=None, derandomize=True, database=None)
        @given(batch=tied_tables(), cells=packed_cells())
        def check(batch, cells):
            runs, horizon = len(batch), batch.shape[2]
            chosen, rewards = _play(batch, *cells)
            # cells in the MIN limit all play MIN on one set of `runs` lanes
            min_limit = _schedule(cells[0], horizon) is None
            assert chosen.shape == rewards.shape == ((1 if min_limit else len(cells)) * runs, horizon)
            for i, policy in enumerate(cells):
                lanes = slice(0, runs) if min_limit else slice(i * runs, (i + 1) * runs)
                assert_runs_match_reference(batch, policy, chosen[lanes], rewards[lanes])

        check()

    @pytest.mark.parametrize("c", [0.05, 0.2])
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_each_alpha_keeps_its_own_log_term(self, k, c):
        # the exploration term's log(ceil(t * alpha)) steps at different rounds
        # for each alpha; with a small c the step decides some pulls.  A sweep
        # plays each alpha's cells in calls of their own
        rng = np.random.default_rng(k)
        cells = [MaRaB(c=c, alpha=0.05), MaRaB(c=c, alpha=0.3), MaRaB(c=c, alpha=0.05)]
        for _ in range(5):
            batch = rng.random((2, k, 200))
            calls = sweep_plan(cells, batch.shape)
            assert sorted(i for call in calls for i in call) == [0, 1, 2]
            for call in calls:
                chosen, rewards = _play(batch, *[cells[i] for i in call])
                for lane, i in enumerate(call):
                    lanes = slice(2 * lane, 2 * lane + 2)
                    assert_runs_match_reference(batch, cells[i], chosen[lanes], rewards[lanes])

    def test_min_limit_plays_min_for_any_c(self):
        # with alpha * horizon <= 1 every tail is the lowest reward and
        # log 1 = 0 zeroes the exploration term, so MaRaB is MIN bit for bit:
        # the harness plays it as MIN, and the general kernel, whose buffer
        # keeps one reward, agrees
        @settings(max_examples=200, deadline=None, derandomize=True, database=None)
        @given(batch=tied_tables(), c=_weight, share=st.floats(1e-6, 1.0))
        def check(batch, c, share):
            policy = MaRaB(c=c, alpha=share / batch.shape[2])
            assert _schedule(policy, batch.shape[2]) is None
            assert buffer_width(policy.alpha, batch.shape[2]) == 2
            want = _play(batch, MIN())
            for played in (_play(batch, policy), episode_marab(batch, c, policy.alpha)):
                for got, expected in zip(played, want):
                    assert got.dtype == expected.dtype and np.array_equal(got, expected)

        check()

    def test_one_schedule_per_call(self, tables):
        batch = tables[0]  # horizon 300
        for cells in (
            [MaRaB(c=0.5, alpha=0.2), MaRaB(c=0.5, alpha=0.3)],
            [MaRaB(c=0.5, alpha=0.2), MaRaB(c=0.5, alpha=0.001)],
            [UCB(c=0.5), UCB(c=1.0)],
        ):
            with pytest.raises(ValueError, match="one alpha"):
                _play(batch, *cells)
        # alphas in the MIN limit play one schedule: MIN, once, for every cell
        played = _play(batch, MaRaB(c=0.0, alpha=0.001), MaRaB(c=2.0, alpha=0.003))
        for got, want in zip(played, _play(batch, MIN())):
            assert np.array_equal(got, want)

    def test_cells_do_not_share_state(self, tables):
        # a packed call returns, cell by cell, what one-cell calls return
        batch = tables[0]
        cells = [MaRaB(c=0.0, alpha=0.5), MaRaB(c=1.0, alpha=0.5), MaRaB(c=0.0, alpha=0.5)]
        chosen, rewards = _play(batch, *cells)
        runs = len(batch)
        for i, policy in enumerate(cells):
            alone_chosen, alone_rewards = _play(batch, policy)
            assert np.array_equal(chosen[i * runs : (i + 1) * runs], alone_chosen)
            assert np.array_equal(rewards[i * runs : (i + 1) * runs], alone_rewards)


@st.composite
def lane_tables(draw, kinds=("tied", "dominant", "alike")):
    """A ``(lanes, k, horizon)`` batch, 1 or 40 lanes, of one of ``kinds``: a
    few tied values, a dominant arm (long blocks), arms of one distribution
    (a switch every few rounds) or arms of one mean and different spreads
    (``"spread"``), with rewards as drawn, scaled by 1e6 or 1e-6, or shifted
    negative; horizons from ``k`` to ``k + 3`` (every block cut at the
    horizon) or longer."""
    lanes = draw(st.sampled_from([1, 40]))
    k = draw(st.integers(2, 5))
    horizon = draw(st.one_of(st.integers(k, k + 3), st.integers(k, 40 if lanes > 1 else 150)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(kinds))
    if kind == "tied":
        pool = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
        batch = rng.choice(np.array(pool), size=(lanes, k, horizon))
    else:
        batch = rng.random((lanes, k, horizon))
        if kind == "dominant":
            batch[:, draw(st.integers(0, k - 1))] += 1.0
            batch /= 2.0
        elif kind == "spread":
            spread = rng.random((lanes, k, 1))
            batch = 0.5 + spread * (batch - 0.5)
    return draw(st.sampled_from([1.0, 1e6, 1e-6])) * batch - draw(st.sampled_from([0.0, 0.75]))


class TestSteppedKernels:
    """MaRaB steps each lane to its next possible switch.  Every step moves
    each unfinished lane, and only those, on by at least one round, and the
    records equal the object layer's bit for bit, on rewards of any scale
    and sign."""

    @pytest.fixture
    def step_checked(self, monkeypatch):
        commit = kernels._Lockstep.commit

        def checked(b, on, a, ia, cnt, first, n, size):
            assert np.array_equal(b.lane[on], np.flatnonzero(b.t <= b.horizon))
            assert np.all(n >= 1) and np.all(b.t[on] + n <= b.horizon + 1)
            commit(b, on, a, ia, cnt, first, n, size)

        monkeypatch.setattr(kernels._Lockstep, "commit", checked)

    def test_marab_equals_object_layer(self, step_checked):
        @settings(max_examples=150, deadline=None, derandomize=True, database=None)
        @given(
            batch=lane_tables(),
            c=st.sampled_from([0.0, 1e-6, 1e-3, 0.1, 1000.0]),
            alpha=st.one_of(st.floats(0.01, 0.05), _unit, st.just(0.999)),
        )
        def check(batch, c, alpha):
            played = episode_marab(batch, c, alpha)
            assert_runs_match_reference(batch, MaRaB(c=c, alpha=alpha), *played, observe=observe_unchecked)

        check()

    @pytest.mark.parametrize("cells", [[0.0, 1e-6, 1000.0], [1e-3]])
    def test_long_blocks_equal_object_layer(self, step_checked, cells):
        # a dominant arm through a long horizon: blocks grow to the cap
        rng = np.random.default_rng(3)
        batch = rng.random((40, 4, 800))
        batch[:, 2] = 0.5 + batch[:, 2] / 2
        for alpha in (0.05, 0.5, 0.999):
            chosen, rewards = episode_marab(batch, cells, alpha)
            for i, c in enumerate(cells):
                lanes = slice(40 * i, 40 * (i + 1))
                assert_runs_match_reference(batch, MaRaB(c=c, alpha=alpha), chosen[lanes], rewards[lanes])
        assert_runs_match_reference(batch, MIN(), *episode_min(batch))

    def test_moved_segments_equal_object_layer(self, step_checked):
        # k * L > 4 * (horizon + k), so each arm's segment of sorted rewards
        # starts with four slots and moves as it fills.  Two arms of one
        # distribution dominate the rest and trade places on their exact
        # tails; one is pulled far more often than any arm's first move
        # leaves room for, fewer than 2 * (3 + cap) rewards with cap <=
        # horizon // 8, so its segment moves again
        @settings(max_examples=60, deadline=None, derandomize=True, database=None)
        @given(
            lanes=st.sampled_from([1, 3, 8]),
            k=st.integers(6, 9),
            data=st.data(),
            c=st.sampled_from([0.0, 1e-6, 1e-3, 0.1]),
            alpha=st.one_of(st.floats(0.9, 0.999), st.just(0.999)),
            seed=st.integers(0, 2**32 - 1),
        )
        def check(lanes, k, data, c, alpha, seed):
            horizon = data.draw(st.integers(8 * k, 300))
            L = int(kernels.tail_sizes(alpha, horizon)[-1])
            assert kernels.arena_size(alpha, horizon, k) < k * L
            rng = np.random.default_rng(seed)
            batch = rng.random((lanes, k, horizon)) / 2
            for table in batch:
                table[rng.choice(k, 2, replace=False)] += 0.5
            chosen, rewards = episode_marab(batch, c, alpha)
            held = np.minimum([np.bincount(row, minlength=k).max() for row in chosen], L)
            assert held.max() >= 2 * (3 + horizon // 8)
            assert_runs_match_reference(batch, MaRaB(c=c, alpha=alpha), chosen, rewards, observe=observe_unchecked)

        check()


class TestMergedKernels:
    """MIN and MV-LCB play each lane as one stable merge of its arms' key
    sequences, and ExpExp computes its commitment from prefix statistics.
    The records equal the object layer's bit for bit, on rewards of any
    scale and sign."""

    def test_min_equals_object_layer(self):
        @settings(max_examples=150, deadline=None, derandomize=True, database=None)
        @given(batch=lane_tables())
        def check(batch):
            assert_runs_match_reference(batch, MIN(), *episode_min(batch), observe=observe_unchecked)

        check()

    def test_mvlcb_equals_object_layer(self):
        # delta near 1 and a small rho leave a narrow confidence width, so an
        # arm's key falls below its earlier keys and the running maximum
        # decides the rounds; arms of different spread make the variance count
        @settings(max_examples=200, deadline=None, derandomize=True, database=None)
        @given(
            batch=lane_tables(kinds=("tied", "dominant", "alike", "spread")),
            rho=st.one_of(st.floats(1e-3, 0.1), _positive),
            delta=st.one_of(st.floats(0.9, 0.999, exclude_max=True), _unit),
        )
        def check(batch, rho, delta):
            policy = MVLCB(rho=rho, delta=delta)
            played = episode_mvlcb(batch, rho, delta)
            assert_runs_match_reference(batch, policy, *played, observe=observe_unchecked)

        check()

    def test_expexp_equals_object_layer(self):
        # tau below k (the kernel finishes the first pass), tau past the
        # horizon (no commitment), and tau not a multiple of k
        @settings(max_examples=150, deadline=None, derandomize=True, database=None)
        @given(batch=lane_tables(kinds=("tied", "alike", "spread")), rho=_positive, data=st.data())
        def check(batch, rho, data):
            k, horizon = batch.shape[1:]
            tau = data.draw(st.one_of(st.integers(1, k), st.integers(k, horizon + 2), st.just(horizon)))
            played = episode_expexp(batch, rho, tau)
            assert_runs_match_reference(batch, ExpExp(rho=rho, tau=tau), *played, observe=observe_unchecked)

        check()

    @pytest.mark.parametrize("delta", [0.01, 0.99])
    def test_long_episodes_equal_object_layer(self, delta):
        # one arm of low spread through a long horizon, 40 lanes
        rng = np.random.default_rng(4)
        batch = rng.random((40, 4, 800))
        batch[:, 1] = 0.4 + batch[:, 1] / 5
        assert_runs_match_reference(batch, MVLCB(rho=0.05, delta=delta), *episode_mvlcb(batch, 0.05, delta))
        assert_runs_match_reference(batch, ExpExp(rho=1.0, tau=403), *episode_expexp(batch, 1.0, 403))
        assert_runs_match_reference(batch, MIN(), *episode_min(batch))


class TestKernelBehaviour:
    def test_init_pass_round_robin(self, tables):
        batch = tables[0]
        k = batch.shape[1]
        for episode in (
            lambda: episode_ucb(batch, 0.5),
            lambda: episode_min(batch),
            lambda: episode_marab(batch, 0.5, 0.3),
            lambda: episode_mvlcb(batch, 1.0, 0.01),
        ):
            chosen, _ = episode()
            for run_chosen in chosen:
                assert list(run_chosen[:k]) == list(range(k))

    @pytest.mark.parametrize("c", [0.0, 0.5])
    @pytest.mark.parametrize("alpha", [0.001, 0.1])
    def test_marab_ties_bit_exact(self, alpha, c):
        # few distinct rewards: equal values meet in the sorted insertion and
        # arms with equal tails tie in the index (ties go to the lowest index);
        # alpha=0.001 keeps n_alpha at 1, alpha=0.1 lets it grow
        rng = np.random.default_rng(5)
        batch = rng.choice([0.1, 0.3, 0.6, 0.9], size=(3, 5, 400), p=[0.1, 0.2, 0.3, 0.4])
        policy = MaRaB(c=c, alpha=alpha)
        assert_runs_match_reference(batch, policy, *episode_marab(batch, c, alpha))

    def test_marab_tiny_alpha_equals_min(self, tables):
        for batch in tables:
            chosen_min, _ = episode_min(batch)
            chosen_marab, _ = episode_marab(batch, 0.0, 1e-4)
            assert np.array_equal(chosen_marab, chosen_min)

    def test_expexp_tau_below_k_still_initialises(self):
        rng = np.random.default_rng(1)
        batch = rng.random((3, 5, 60))
        chosen, _ = episode_expexp(batch, 1.0, 2)
        for run_chosen in chosen:
            assert sorted(run_chosen[:5]) == [0, 1, 2, 3, 4]
            assert len(set(run_chosen[5:])) == 1

    def test_expexp_commits_after_tau(self):
        rng = np.random.default_rng(2)
        batch = rng.random((4, 3, 90))
        tau = 30
        chosen, _ = episode_expexp(batch, 1.0, tau)
        for run_chosen in chosen:
            assert np.array_equal(run_chosen[:tau], np.arange(tau) % 3)
            assert len(set(run_chosen[tau:])) == 1
