import math

import pytest

from riskbandit import (
    BanditProblem,
    BoundInputs,
    EmpiricalResample,
    UniformSegment,
    gen_from_matrix,
    gen_mixture,
    gen_proof_of_concept,
    margin_assumption_check,
    min_regret_bound,
    min_regret_bound_aligned,
    min_tail_check,
    min_tail_check_any,
    ucb_regret_bound,
)
from riskbandit.rng import make_rng


class TestMinTailCheck:
    def test_full_width_segment(self):
        # exact tail probability (1 - eps/(2r))^t = 0.9^10, bound exp(-1)
        seg = UniformSegment(center=0.5, radius=0.5)
        res = min_tail_check(seg, t=10, epsilon=0.1, trials=100_000, rng=make_rng(0))
        assert res.bound == pytest.approx(math.exp(-1.0), abs=1e-12)
        assert res.empirical_prob == pytest.approx(0.9**10, abs=0.005)
        assert res.passed

    def test_t_zero_convention(self):
        seg = UniformSegment(center=0.5, radius=0.5)
        res = min_tail_check(seg, t=0, epsilon=0.1, trials=10, rng=make_rng(0))
        assert res == type(res)(empirical_prob=1.0, bound=1.0, std_error=0.0, passed=True)

    def test_epsilon_beyond_support(self):
        seg = UniformSegment(center=0.5, radius=0.1)
        res = min_tail_check(seg, t=5, epsilon=0.5, trials=2000, rng=make_rng(1))
        assert res.empirical_prob == 0.0
        assert res.passed

    def test_requires_uniform_segment(self):
        with pytest.raises(ValueError, match="density floor"):
            min_tail_check(
                EmpiricalResample(values=(0.5,)), t=5, epsilon=0.1, trials=10, rng=make_rng(0)
            )

    def test_argument_validation(self):
        seg = UniformSegment(center=0.5, radius=0.5)
        with pytest.raises(ValueError, match="t must"):
            min_tail_check(seg, t=-1, epsilon=0.1, trials=10, rng=make_rng(0))
        with pytest.raises(ValueError, match="epsilon"):
            min_tail_check(seg, t=5, epsilon=0.0, trials=10, rng=make_rng(0))
        with pytest.raises(ValueError, match="trials"):
            min_tail_check(seg, t=5, epsilon=0.1, trials=0, rng=make_rng(0))

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf])
    def test_non_finite_epsilon_rejected(self, epsilon):
        seg = UniformSegment(center=0.5, radius=0.5)
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            min_tail_check(seg, t=5, epsilon=epsilon, trials=10, rng=make_rng(0))
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            min_tail_check_any(
                BanditProblem.from_arms([seg, seg], lower_bound_A=1.0), 5, epsilon, 10, make_rng(0)
            )

    def test_holds_across_random_configurations(self):
        rng = make_rng(0)
        for _ in range(40):
            radius = float(rng.uniform(0.05, 0.5))
            center = float(rng.uniform(radius, 1.0 - radius))
            seg = UniformSegment(center=center, radius=radius)
            t = int(rng.integers(1, 40))
            epsilon = float(rng.uniform(0.01, 2.5 * radius))
            res = min_tail_check(seg, t=t, epsilon=epsilon, trials=2000, rng=rng)
            assert res.passed


class TestMinTailCheckAny:
    def test_two_identical_segments(self):
        seg = UniformSegment(center=0.5, radius=0.5)
        problem = BanditProblem.from_arms([seg, seg], lower_bound_A=1.0)
        res = min_tail_check_any(problem, t=10, epsilon=0.1, trials=100_000, rng=make_rng(3))
        assert res.bound == pytest.approx(2.0 * math.exp(-1.0), abs=1e-12)
        exact = 1.0 - (1.0 - 0.9**10) ** 2
        assert res.empirical_prob == pytest.approx(exact, abs=0.006)
        assert res.passed

    def test_poc_problem(self, poc_problem):
        res = min_tail_check_any(poc_problem, t=50, epsilon=0.05, trials=4000, rng=make_rng(5))
        assert res.passed
        assert res.bound == pytest.approx(
            poc_problem.k * math.exp(-50 * poc_problem.lower_bound_A * 0.05), abs=1e-12
        )

    def test_t_zero_bound_is_k(self, poc_problem):
        res = min_tail_check_any(poc_problem, t=0, epsilon=0.1, trials=10, rng=make_rng(0))
        assert res.empirical_prob == 1.0
        assert res.bound == float(poc_problem.k)
        assert res.passed

    def test_needs_density_floor(self):
        problem = gen_mixture(2, make_rng(1))
        with pytest.raises(ValueError, match="density floor"):
            min_tail_check_any(problem, t=5, epsilon=0.1, trials=10, rng=make_rng(0))


GOLDEN = BoundInputs(
    n_arms=2,
    density_floor=1.0,
    max_mean_gap=0.1,
    min_infimum_gap=0.1,
    t=100,
    delta=0.05,
)


class TestMinRegretBound:
    def test_golden_high_probability_value(self):
        res = min_regret_bound(GOLDEN)
        assert res.high_prob == pytest.approx(math.log(4000.0) + 0.1, abs=1e-12)
        assert res.high_prob == pytest.approx(8.394, abs=1e-3)

    def test_golden_expectation_value(self):
        res = min_regret_bound(GOLDEN)
        assert res.expectation == pytest.approx(math.log(20000.0) + 1.0 + 0.1, abs=1e-12)
        assert res.expectation == pytest.approx(11.0035, abs=1e-3)
        assert res.note is None

    def test_all_arms_optimal_is_zero(self):
        inputs = BoundInputs(
            n_arms=3, density_floor=1.0, max_mean_gap=0.0, min_infimum_gap=0.1,
            t=10, delta=0.1, n_optimal=3,
        )
        assert min_regret_bound(inputs) == min_regret_bound_aligned(inputs)
        assert min_regret_bound(inputs).high_prob == 0.0
        assert min_regret_bound(inputs).expectation == 0.0

    def test_zero_mean_gap_is_zero(self):
        inputs = BoundInputs(
            n_arms=3, density_floor=1.0, max_mean_gap=0.0, min_infimum_gap=0.1,
            t=10, delta=0.1,
        )
        res = min_regret_bound(inputs)
        assert res.high_prob == 0.0 and res.expectation == 0.0

    def test_side_condition_note(self):
        inputs = BoundInputs(
            n_arms=2, density_floor=0.001, max_mean_gap=0.1, min_infimum_gap=0.1,
            t=10, delta=0.05,
        )
        res = min_regret_bound(inputs)
        assert res.expectation is None
        assert "t >=" in res.note
        assert res.high_prob > 0

    def test_monotone_in_t_and_delta(self):
        import dataclasses

        base = min_regret_bound(GOLDEN).high_prob
        later = min_regret_bound(dataclasses.replace(GOLDEN, t=1000)).high_prob
        stricter = min_regret_bound(dataclasses.replace(GOLDEN, delta=0.001)).high_prob
        assert later > base
        assert stricter > base


class TestMinRegretBoundAligned:
    def test_matches_general_at_unit_ratio(self):
        general = min_regret_bound(GOLDEN)
        aligned = min_regret_bound_aligned(GOLDEN)
        assert aligned.high_prob == pytest.approx(general.high_prob, abs=1e-12)
        assert aligned.expectation == pytest.approx(general.expectation, abs=1e-12)

    def test_side_condition_strict(self):
        inputs = BoundInputs(
            n_arms=2, density_floor=1.0, max_mean_gap=0.1, min_infimum_gap=0.1,
            t=1, delta=0.05,
        )
        res = min_regret_bound_aligned(inputs)
        assert res.expectation is None
        assert "t >" in res.note

    @pytest.mark.parametrize("ratio_below_one", [True, False])
    def test_ordering_against_general(self, ratio_below_one):
        rng = make_rng(7 if ratio_below_one else 8)
        for _ in range(200):
            gaps = sorted(rng.uniform(0.01, 0.5, 2))
            mean_gap, inf_gap = (gaps[0], gaps[1]) if ratio_below_one else (gaps[1], gaps[0])
            inputs = BoundInputs(
                n_arms=int(rng.integers(2, 10)),
                density_floor=float(rng.uniform(0.5, 5.0)),
                max_mean_gap=float(mean_gap),
                min_infimum_gap=float(inf_gap),
                t=int(rng.integers(10, 10_000)),
                delta=float(rng.uniform(0.001, 0.5)),
            )
            general = min_regret_bound(inputs).high_prob
            aligned = min_regret_bound_aligned(inputs).high_prob
            if ratio_below_one:
                assert general <= aligned + 1e-12
            else:
                assert general >= aligned - 1e-12


class TestUcbRegretBound:
    def test_worked_value(self):
        got = ucb_regret_bound([0.5], t=3)
        assert got == pytest.approx(8.0 * math.log(3.0) / 0.5 + (1.0 + math.pi**2 / 3.0) * 0.5)
        assert got == pytest.approx(19.72, abs=1e-2)

    def test_t_one_leaves_linear_term(self):
        assert ucb_regret_bound([0.2, 0.3], t=1) == pytest.approx(
            (1.0 + math.pi**2 / 3.0) * 0.5
        )

    def test_zero_gaps_skip_log_term(self):
        with_zero = ucb_regret_bound([0.0, 0.5], t=10)
        without = ucb_regret_bound([0.5], t=10)
        assert with_zero == pytest.approx(without)

    def test_empty_gaps(self):
        assert ucb_regret_bound([], t=100) == 0.0

    def test_negative_gap_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            ucb_regret_bound([-0.1], t=10)
        with pytest.raises(ValueError, match="t must"):
            ucb_regret_bound([0.1], t=0)


class TestBoundInputs:
    def test_validation(self):
        good = dict(
            n_arms=2, density_floor=1.0, max_mean_gap=0.1, min_infimum_gap=0.1,
            t=10, delta=0.1,
        )
        BoundInputs(**good)
        for key, bad in [
            ("n_arms", 0),
            ("density_floor", 0.0),
            ("max_mean_gap", -0.1),
            ("t", 0),
            ("delta", 0.0),
            ("delta", 1.0),
            ("n_optimal", 0),
            ("n_optimal", 3),
        ]:
            with pytest.raises(ValueError):
                BoundInputs(**{**good, key: bad})

    @pytest.mark.parametrize("key", ["n_arms", "t", "n_optimal"])
    @pytest.mark.parametrize("bad", [2.0, 100.5, "2", True])
    def test_counts_must_be_integers(self, key, bad):
        good = dict(
            n_arms=2, density_floor=1.0, max_mean_gap=0.1, min_infimum_gap=0.1,
            t=10, delta=0.1,
        )
        with pytest.raises(ValueError, match=f"{key} must be an integer"):
            BoundInputs(**{**good, key: bad})

    @pytest.mark.parametrize(
        "key", ["density_floor", "max_mean_gap", "min_infimum_gap", "delta"]
    )
    @pytest.mark.parametrize("bad", [math.nan, math.inf, "1", None, True])
    def test_float_fields_must_be_finite_numbers(self, key, bad):
        good = dict(
            n_arms=2, density_floor=1.0, max_mean_gap=0.1, min_infimum_gap=0.1,
            t=10, delta=0.1,
        )
        with pytest.raises(ValueError, match=f"{key} must be a finite number"):
            BoundInputs(**{**good, key: bad})

    @pytest.mark.parametrize("gap", [math.nan, math.inf, -0.1])
    def test_mean_gaps_must_be_finite_and_non_negative(self, gap):
        with pytest.raises(ValueError, match="mean_gaps must be non-negative and finite"):
            BoundInputs(
                n_arms=2, density_floor=1.0, max_mean_gap=0.1, min_infimum_gap=0.1,
                t=10, delta=0.1, mean_gaps=(gap,),
            )

    def test_nonpositive_infimum_gap_rejected(self):
        # rejected on construction, so no evaluator ever divides by the gap
        for gap in (0.0, -0.1):
            with pytest.raises(ValueError, match="min_infimum_gap must be positive"):
                BoundInputs(
                    n_arms=2, density_floor=1.0, max_mean_gap=0.1, min_infimum_gap=gap,
                    t=10, delta=0.1,
                )

    def test_from_problem(self, poc_problem):
        inputs = BoundInputs.from_problem(poc_problem, t=500, delta=0.01)
        assert inputs.n_arms == poc_problem.k
        assert inputs.density_floor == poc_problem.lower_bound_A
        assert inputs.max_mean_gap == pytest.approx(0.05)
        assert inputs.min_infimum_gap == pytest.approx(0.45 / 19)
        assert len(inputs.mean_gaps) == poc_problem.k - 1
        assert min_regret_bound_aligned(inputs).expectation is not None

    def test_from_problem_needs_floor(self):
        problem = gen_mixture(2, make_rng(4))
        with pytest.raises(ValueError, match="density floor"):
            BoundInputs.from_problem(problem, t=10, delta=0.1)

    def test_from_problem_rejects_flat_infima(self):
        arms = [UniformSegment(0.5, 0.1), UniformSegment(0.45, 0.05)]
        problem = BanditProblem.from_arms(arms, lower_bound_A=5.0)
        assert problem.infima[0] == problem.infima[1] == pytest.approx(0.4)
        with pytest.raises(ValueError, match="do not apply"):
            BoundInputs.from_problem(problem, t=10, delta=0.1)


class TestMarginAssumptionCheck:
    def test_poc_satisfies_everything(self, poc_problem):
        check = margin_assumption_check(poc_problem)
        assert check.best_arm_coincide
        assert check.aligned_margins_hold
        assert check.density_floor == poc_problem.lower_bound_A

    def test_best_arms_disagree(self):
        problem = gen_from_matrix([[0.1, 0.9], [0.2, 0.6]])  # means 0.5/0.4, infima 0.1/0.2
        check = margin_assumption_check(problem)
        assert not check.best_arm_coincide
        assert not check.aligned_margins_hold
        assert check.density_floor is None

    def test_coincide_without_alignment(self):
        problem = gen_from_matrix([[0.4, 0.6], [0.35, 0.45]])  # gaps: mean 0.1, infimum 0.05
        check = margin_assumption_check(problem)
        assert check.best_arm_coincide
        assert not check.aligned_margins_hold
