import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from riskbandit import ArmStats, UndefinedStatisticError, tail_count

from conftest import random_stats


class TestTailCount:
    def test_guard_points(self):
        assert tail_count(10, 0.4) == 4
        assert tail_count(3, 0.4) == 2
        assert tail_count(5, 1.0) == 5
        assert tail_count(5, 0.01) == 1
        assert tail_count(1, 0.5) == 1

    def test_never_exceeds_count(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 100))
            alpha = float(rng.uniform(1e-6, 1.0))
            k = tail_count(n, alpha)
            assert 1 <= k <= n


class TestArmStatsBasics:
    def test_incremental_sorted_insertion(self):
        st = ArmStats.from_rewards([0.2, 0.8])
        st.update(0.5)
        assert st.rewards_sorted == [0.2, 0.5, 0.8]
        assert st.count == 3
        assert st.empirical_mean() == pytest.approx(0.5)

    def test_mean(self):
        st = ArmStats.from_rewards([0.1, 0.2, 0.3])
        assert st.empirical_mean() == pytest.approx(0.2)

    def test_variance_population(self):
        assert ArmStats.from_rewards([0.0, 1.0]).empirical_variance() == pytest.approx(0.25)
        assert ArmStats.from_rewards([0.5, 0.5]).empirical_variance() == pytest.approx(0.0)

    def test_min(self):
        st = ArmStats.from_rewards([0.9, 0.1, 0.5])
        assert st.empirical_min() == 0.1

    def test_cvar_examples(self):
        st = ArmStats.from_rewards([0.1, 0.5, 0.9])
        assert st.empirical_cvar(0.4) == pytest.approx(0.3)
        assert st.empirical_cvar(1.0) == pytest.approx(0.5)
        assert st.empirical_cvar(0.01) == pytest.approx(0.1)

    def test_mv_value(self):
        assert ArmStats.from_rewards([0.5, 0.5]).mv_value(2.0) == pytest.approx(-1.0)
        assert ArmStats.from_rewards([0.0, 1.0]).mv_value(1.0) == pytest.approx(-0.25)
        st = ArmStats.from_rewards([0.3])
        assert st.mv_value(2.0) == pytest.approx(-0.6)

    def test_update_validation(self):
        st = ArmStats.from_rewards([0.5])
        with pytest.raises(ValueError, match="outside"):
            st.update(1.5)
        with pytest.raises(ValueError, match="outside"):
            st.update(-0.1)
        with pytest.raises(ValueError, match="outside"):
            st.update(float("nan"))

    def test_from_rewards_validation(self):
        with pytest.raises(ValueError, match="outside"):
            ArmStats.from_rewards([0.5, 2.0])

    def test_empty_raises(self):
        st = ArmStats()
        assert st.count == 0
        for fn in (st.empirical_mean, st.empirical_variance, st.empirical_min):
            with pytest.raises(UndefinedStatisticError):
                fn()
        with pytest.raises(UndefinedStatisticError):
            st.empirical_cvar(0.5)
        with pytest.raises(UndefinedStatisticError):
            st.mv_value(1.0)

    def test_cvar_alpha_validation(self):
        st = ArmStats.from_rewards([0.5])
        with pytest.raises(ValueError, match="alpha"):
            st.empirical_cvar(0.0)
        with pytest.raises(ValueError, match="alpha"):
            st.empirical_cvar(1.1)


def _naive_cvar(values, alpha):
    srt = sorted(values)
    k = tail_count(len(srt), alpha)
    return sum(srt[:k]) / k


class TestAgainstBruteForce:
    def test_cvar_matches_naive_oracle_exactly(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            values = rng.random(int(rng.integers(1, 50)))
            st = ArmStats.from_rewards(values)
            for alpha in (0.01, 0.1, 0.25, 0.5, 0.9, 1.0):
                assert st.empirical_cvar(alpha) == _naive_cvar(values, alpha)

    def test_mean_min_match_numpy(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            st = random_stats(rng)
            vals = np.array(st.rewards_sorted)
            assert st.empirical_mean() == pytest.approx(vals.mean(), abs=1e-12)
            assert st.empirical_min() == vals.min()
            assert st.empirical_variance() == pytest.approx(np.var(vals), abs=1e-12)


class TestArrivalOrderInvariance:
    def test_incremental_equals_batch(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            values = rng.random(int(rng.integers(1, 40)))
            batch = ArmStats.from_rewards(values)
            inc = ArmStats()
            for v in values:
                inc.update(float(v))
            assert inc.count == batch.count
            assert inc.rewards_sorted == batch.rewards_sorted
            assert inc.running_sum == batch.running_sum
            assert inc.running_sq_dev == batch.running_sq_dev

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        values=st.lists(
            st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0)), max_size=60
        )
    )
    def test_incremental_equals_batch_property(self, values):
        batch = ArmStats.from_rewards(values)
        inc = ArmStats()
        for v in values:
            inc.update(v)
        assert inc.count == batch.count
        assert inc.running_sum == batch.running_sum
        assert inc.running_sq_dev == batch.running_sq_dev
        assert inc.rewards_sorted == batch.rewards_sorted

    def test_permutation_insensitive(self):
        rng = np.random.default_rng(13)
        values = rng.random(30)
        base = ArmStats.from_rewards(values)
        for _ in range(10):
            perm = rng.permutation(values)
            st = ArmStats.from_rewards(perm)
            assert st.rewards_sorted == base.rewards_sorted
            assert st.empirical_min() == base.empirical_min()
            assert st.empirical_cvar(0.3) == base.empirical_cvar(0.3)
            assert st.empirical_mean() == pytest.approx(base.empirical_mean(), abs=1e-10)
            assert st.empirical_variance() == pytest.approx(base.empirical_variance(), abs=1e-10)
