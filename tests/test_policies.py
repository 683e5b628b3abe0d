import math

import numpy as np
import pytest

from riskbandit import (
    ArmStats,
    ConfigError,
    ExpExp,
    MIN,
    MVLCB,
    MaRaB,
    PolicyState,
    UCB,
    expexp_tau,
    marab_index,
    min_index,
    mvlcb_index,
    select_arm,
    ucb_index,
)


class TestConfigValidation:
    def test_ucb(self):
        UCB(c=0.001)
        with pytest.raises(ValueError):
            UCB(c=0.0)
        with pytest.raises(ValueError):
            UCB(c=-1.0)

    def test_marab(self):
        MaRaB(c=0.0, alpha=0.2)
        with pytest.raises(ValueError):
            MaRaB(c=-0.1, alpha=0.2)
        with pytest.raises(ValueError):
            MaRaB(c=1.0, alpha=0.0)
        with pytest.raises(ValueError):
            MaRaB(c=1.0, alpha=1.0)

    def test_mvlcb(self):
        MVLCB(rho=1.0, delta=0.5)
        with pytest.raises(ValueError):
            MVLCB(rho=0.0, delta=0.5)
        with pytest.raises(ValueError):
            MVLCB(rho=1.0, delta=0.0)
        with pytest.raises(ValueError):
            MVLCB(rho=1.0, delta=1.0)

    def test_expexp(self):
        ExpExp(rho=1.0, tau=5)
        with pytest.raises(ValueError):
            ExpExp(rho=0.0, tau=5)
        with pytest.raises(ValueError):
            ExpExp(rho=1.0, tau=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "make",
        [
            lambda v: UCB(c=v),
            lambda v: MaRaB(c=v, alpha=0.2),
            lambda v: MVLCB(rho=v, delta=0.5),
            lambda v: ExpExp(rho=v, tau=5),
        ],
        ids=["ucb.c", "marab.c", "mvlcb.rho", "expexp.rho"],
    )
    def test_non_finite_rejected(self, make, bad):
        # a NaN index would be picked by np.argmax/np.argmin in the kernels but
        # never by select_arm's strict comparisons
        with pytest.raises(ValueError, match="finite"):
            make(bad)

    def test_kinds(self):
        assert UCB.kind == "ucb"
        assert MIN.kind == "min"
        assert MaRaB.kind == "marab"
        assert MVLCB.kind == "mvlcb"
        assert ExpExp.kind == "expexp"


class TestIndexFormulas:
    def test_ucb_example(self):
        st = ArmStats.from_rewards([0.5, 0.5, 0.5, 0.5])
        c = 0.7
        expected = 0.5 + c * math.sqrt(math.log(55.0) / 4.0)
        assert ucb_index(st, c=c, t=55) == pytest.approx(expected, abs=1e-12)
        assert math.sqrt(math.log(55.0) / 4.0) == pytest.approx(1.0009, abs=1e-4)

    def test_ucb_zero_exploration_limit(self):
        st = ArmStats.from_rewards([0.2, 0.6])
        assert ucb_index(st, c=1e-300, t=100) == pytest.approx(st.empirical_mean())

    def test_marab_example(self):
        st = ArmStats.from_rewards([0.1, 0.5, 0.9])
        # tail fraction 0.4 of 10 rounds: budget ceil(4) = 4, tail count of 3 obs = 2
        got = marab_index(st, c=1.0, alpha=0.4, t=10)
        expected = 0.3 - math.sqrt(math.log(4.0) / 2.0)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(-0.5326, abs=1e-4)

    def test_marab_budget_one_ignores_c(self):
        st = ArmStats.from_rewards([0.1, 0.5, 0.9])
        # ceil(t * alpha) = 1 makes the penalty log(1) = 0 for any c
        for c in (0.0, 1.0, 1e6):
            assert marab_index(st, c=c, alpha=0.05, t=10) == st.empirical_cvar(0.05)

    def test_min_example(self):
        stats = [ArmStats.from_rewards([v]) for v in (0.3, 0.7, 0.5)]
        values = [min_index(st) for st in stats]
        assert int(np.argmax(values)) == 1

    def test_mvlcb_example(self):
        st = ArmStats.from_rewards([0.0, 1.0])
        got = mvlcb_index(st, rho=1.0, delta=math.exp(-2.0))
        expected = 0.25 - 1.0 * 0.5 - (5.0 + 1.0) * math.sqrt(2.0 / (2.0 * 2.0))
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(-4.4926, abs=1e-4)


class TestTranslationInvariance:
    """Shifting every reward by a constant shifts location indices by that constant."""

    @pytest.mark.parametrize("shift", [0.05, 0.2])
    def test_shift(self, shift):
        rng = np.random.default_rng(17)
        vals = rng.uniform(0.0, 0.7, size=12)
        base = ArmStats.from_rewards(vals)
        moved = ArmStats.from_rewards(vals + shift)
        assert ucb_index(moved, c=0.5, t=30) == pytest.approx(
            ucb_index(base, c=0.5, t=30) + shift, abs=1e-10
        )
        assert marab_index(moved, c=0.5, alpha=0.3, t=30) == pytest.approx(
            marab_index(base, c=0.5, alpha=0.3, t=30) + shift, abs=1e-10
        )
        assert min_index(moved) == pytest.approx(min_index(base) + shift, abs=1e-12)


class TestMarabMinLimit:
    def test_limit_matches_min(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            st = ArmStats.from_rewards(rng.random(int(rng.integers(1, 50))))
            t = int(rng.integers(1, 1000))
            alpha = min(0.5 / t, 0.5 / st.count)
            assert marab_index(st, c=0.0, alpha=alpha, t=t) == min_index(st)


class TestSelectArm:
    def test_init_pass_lowest_unseen(self):
        state = PolicyState(config=UCB(c=0.1))
        stats = [ArmStats.from_rewards([0.5]), ArmStats(), ArmStats.from_rewards([0.4])]
        assert select_arm(state, stats, t=3) == 1

    def test_init_pass_orders_left_to_right(self):
        state = PolicyState(config=MIN())
        stats = [ArmStats(), ArmStats(), ArmStats()]
        for expect in (0, 1, 2):
            assert select_arm(state, stats, t=expect + 1) == expect
            stats[expect].update(0.5)

    def test_tie_breaks_lowest_index(self):
        state = PolicyState(config=MIN())
        stats = [ArmStats.from_rewards([0.4]), ArmStats.from_rewards([0.4])]
        assert select_arm(state, stats, t=3) == 0

    def test_requires_two_arms(self):
        state = PolicyState(config=UCB(c=0.1))
        with pytest.raises(ConfigError, match="at least 2 arms"):
            select_arm(state, [ArmStats()], t=1)

    def test_pure_function_of_stats(self):
        state = PolicyState(config=MaRaB(c=0.01, alpha=0.25))
        rng = np.random.default_rng(5)
        stats = [ArmStats.from_rewards(rng.random(8)) for _ in range(3)]
        first = select_arm(state, stats, t=25)
        for _ in range(5):
            assert select_arm(state, stats, t=25) == first

    def test_mvlcb_minimizes(self):
        state = PolicyState(config=MVLCB(rho=1.0, delta=0.01))
        # arm 0: low variance, high mean; arm 1: high variance, low mean
        stats = [
            ArmStats.from_rewards([0.8, 0.8, 0.8, 0.8]),
            ArmStats.from_rewards([0.0, 1.0, 0.0, 1.0]),
        ]
        v0 = mvlcb_index(stats[0], rho=1.0, delta=0.01)
        v1 = mvlcb_index(stats[1], rho=1.0, delta=0.01)
        assert v0 < v1
        assert select_arm(state, stats, t=9) == 0

    def test_ucb_picks_highest_index(self):
        state = PolicyState(config=UCB(c=0.001))
        stats = [
            ArmStats.from_rewards([0.2, 0.3]),
            ArmStats.from_rewards([0.7, 0.8]),
            ArmStats.from_rewards([0.5, 0.5]),
        ]
        assert select_arm(state, stats, t=7) == 1


class TestExpExpPhases:
    def test_round_robin_then_freeze(self):
        config = ExpExp(rho=1.0, tau=6)
        state = PolicyState(config=config)
        stats = [ArmStats(), ArmStats(), ArmStats()]
        rewards = {0: [0.5, 0.5], 1: [0.0, 1.0], 2: [0.4, 0.4]}
        seen = []
        for t in range(1, 7):
            a = select_arm(state, stats, t=t)
            seen.append(a)
            stats[a].update(rewards[a][(t - 1) // 3])
        assert seen == [0, 1, 2, 0, 1, 2]
        # exploitation: arm with smallest mv value, frozen thereafter
        mv = [st.mv_value(1.0) for st in stats]
        best = int(np.argmin(mv))
        assert select_arm(state, stats, t=7) == best
        assert state.frozen_choice == best
        for t in range(8, 12):
            assert select_arm(state, stats, t=t) == best

    def test_exploration_example(self):
        state = PolicyState(config=ExpExp(rho=1.0, tau=6))
        stats = [ArmStats.from_rewards([0.5]) for _ in range(3)]
        assert select_arm(state, stats, t=4) == 0

    def test_tau_formula(self):
        assert expexp_tau(3, 14) == 3
        assert expexp_tau(2, 14000) == 200
        assert expexp_tau(10, 1) >= 10

    def test_freeze_ignores_later_updates(self):
        state = PolicyState(config=ExpExp(rho=1.0, tau=2))
        stats = [ArmStats(), ArmStats()]
        for t in (1, 2):
            a = select_arm(state, stats, t=t)
            stats[a].update(0.3 if a == 0 else 0.7)
        locked = select_arm(state, stats, t=3)
        # make the other arm look better after the freeze
        other = 1 - locked
        for _ in range(20):
            stats[other].update(1.0 if other == 1 else 0.0)
        assert select_arm(state, stats, t=4) == locked
