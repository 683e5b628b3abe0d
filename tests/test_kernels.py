import bisect

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
from riskbandit.harness import _play, draw_reward_table
from riskbandit.kernels import (
    _insert_sorted,
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


def reference_episode(table, policy):
    """Object-layer episode; the kernels must reproduce this bit for bit."""
    k, horizon = table.shape
    state = PolicyState(config=policy)
    stats = [ArmStats() for _ in range(k)]
    counts = [0] * k
    chosen = np.empty(horizon, dtype=np.int64)
    rewards = np.empty(horizon, dtype=np.float64)
    for t in range(1, horizon + 1):
        a = select_arm(state, stats, t=t)
        x = table[a, counts[a]]
        stats[a].update(float(x))
        counts[a] += 1
        chosen[t - 1] = a
        rewards[t - 1] = x
    return chosen, rewards


@pytest.fixture(scope="module")
def tables(poc_problem):
    rng = np.random.default_rng(99)
    return [
        draw_reward_table(poc_problem, seed=3, run_index=0, horizon=300)[:5],
        rng.random((4, 250)),
    ]


class TestKernelEquivalence:
    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: repr(p))
    def test_bit_exact_against_object_layer(self, policy, tables):
        for table in tables:
            want_chosen, want_rewards = reference_episode(table, policy)
            got_chosen, got_rewards = _play(table, policy)
            assert np.array_equal(got_chosen, want_chosen)
            assert np.array_equal(got_rewards, want_rewards)

    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: repr(p))
    def test_output_contract(self, policy, tables):
        table = tables[0]
        k, horizon = table.shape
        chosen, reward_seq = _play(table, policy)
        assert chosen.dtype == np.int64
        assert reward_seq.dtype == np.float64
        assert chosen.shape == reward_seq.shape == (horizon,)
        assert chosen.min() >= 0 and chosen.max() < k
        # each round consumes the next unconsumed entry of the pulled arm's row
        counts = np.zeros(k, dtype=np.int64)
        for t in range(horizon):
            a = chosen[t]
            assert reward_seq[t] == table[a, counts[a]]
            counts[a] += 1
        assert counts.sum() == horizon


@st.composite
def tied_tables(draw):
    """A ``(k, horizon)`` table over a few repeated values, so ties occur."""
    k = draw(st.integers(2, 6))
    horizon = draw(st.integers(k, 120))
    pool = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.choice(np.array(pool), size=(k, horizon))


_weight = st.floats(0.0, 10.0)
_positive = st.floats(0.0, 10.0, exclude_min=True)
_unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
POLICY_STRATEGIES = {
    "ucb": st.builds(UCB, c=_positive),
    "min": st.just(MIN()),
    "marab": st.builds(MaRaB, c=_weight, alpha=_unit),
    "mvlcb": st.builds(MVLCB, rho=_positive, delta=_unit),
    "expexp": st.builds(ExpExp, rho=_positive, tau=st.integers(1, 130)),
}


class TestKernelProperties:
    @pytest.mark.parametrize("kind", sorted(POLICY_STRATEGIES))
    def test_kernel_equals_object_layer(self, kind):
        @settings(max_examples=500, deadline=None, derandomize=True, database=None)
        @given(table=tied_tables(), policy=POLICY_STRATEGIES[kind])
        def check(table, policy):
            want_chosen, want_rewards = reference_episode(table, policy)
            got_chosen, got_rewards = _play(table, policy)
            assert np.array_equal(got_chosen, want_chosen)
            assert np.array_equal(got_rewards, want_rewards)

        check()


class TestKernelBehaviour:
    def test_init_pass_round_robin(self, tables):
        table = tables[0]
        k = table.shape[0]
        for episode in (
            lambda: episode_ucb(table, 0.5),
            lambda: episode_min(table),
            lambda: episode_marab(table, 0.5, 0.3),
            lambda: episode_mvlcb(table, 1.0, 0.01),
        ):
            chosen, _ = episode()
            assert list(chosen[:k]) == list(range(k))

    @pytest.mark.parametrize("c", [0.0, 0.5])
    @pytest.mark.parametrize("alpha", [0.001, 0.1])
    def test_marab_ties_bit_exact(self, alpha, c):
        # few distinct rewards: equal values meet in the sorted insertion and
        # arms with equal tails tie in the index (ties go to the lowest index);
        # alpha=0.001 keeps n_alpha at 1, alpha=0.1 lets it grow
        rng = np.random.default_rng(5)
        table = rng.choice([0.1, 0.3, 0.6, 0.9], size=(5, 400), p=[0.1, 0.2, 0.3, 0.4])
        want_chosen, want_rewards = reference_episode(table, MaRaB(c=c, alpha=alpha))
        got_chosen, got_rewards = episode_marab(table, c, alpha)
        assert np.array_equal(got_chosen, want_chosen)
        assert np.array_equal(got_rewards, want_rewards)

    def test_marab_tiny_alpha_equals_min(self, tables):
        for table in tables:
            chosen_min, _ = episode_min(table)
            chosen_marab, _ = episode_marab(table, 0.0, 1e-4)
            assert np.array_equal(chosen_marab, chosen_min)

    def test_expexp_tau_below_k_still_initialises(self):
        rng = np.random.default_rng(1)
        table = rng.random((5, 60))
        chosen, _ = episode_expexp(table, 1.0, 2)
        assert sorted(chosen[:5]) == [0, 1, 2, 3, 4]
        assert len(set(chosen[5:])) == 1

    def test_expexp_commits_after_tau(self):
        rng = np.random.default_rng(2)
        table = rng.random((3, 90))
        tau = 30
        chosen, _ = episode_expexp(table, 1.0, tau)
        assert np.array_equal(chosen[:tau], np.arange(tau) % 3)
        assert len(set(chosen[tau:])) == 1


class TestInsertSorted:
    def test_matches_bisect_insort(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            values = rng.random(int(rng.integers(1, 60)))
            buf = np.empty(len(values), dtype=np.float64)
            oracle = []
            for n, x in enumerate(values):
                _insert_sorted(buf, n, x)
                bisect.insort(oracle, x)
                assert list(buf[: n + 1]) == oracle

    def test_duplicates_and_extremes(self):
        buf = np.empty(6, dtype=np.float64)
        for n, x in enumerate([0.5, 0.5, 0.0, 1.0, 0.5, 0.0]):
            _insert_sorted(buf, n, x)
        assert list(buf) == [0.0, 0.0, 0.5, 0.5, 0.5, 1.0]
