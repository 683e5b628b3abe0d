"""Acceptance gate: the product-level guarantees, one numbered test each.

Every test prints one ``[criterion NN] PASS`` line (visible under ``-s``;
pytest's own verbose listing gives the pass/fail line otherwise) and asserts
its runtime budget.
"""

import time
from collections import defaultdict

import numpy as np
import pytest

from riskbandit import (
    ArmStats,
    BoundInputs,
    MIN,
    MaRaB,
    RunConfig,
    UCB,
    UniformSegment,
    aggregate_regret,
    gen_mixture,
    gen_proof_of_concept,
    marab_index,
    min_index,
    min_regret_bound,
    min_regret_bound_aligned,
    min_tail_check,
    run_many,
    sample_many,
    sweep,
    tail_count,
)
from riskbandit.cli import main
from riskbandit.rng import EPISODE_DOMAIN, PROBLEM_DOMAIN, derive_seed, make_rng, substream

from conftest import random_stats


def _report(number: int, detail: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    print(f"[criterion {number:02d}] PASS ({detail}; {elapsed:.2f}s < {budget:.0f}s)")
    assert elapsed < budget


class TestAcceptance:
    def test_criterion_01_tiny_tail_reduces_to_min(self):
        started = time.perf_counter()
        rng = np.random.default_rng(101)
        for _ in range(100):
            st = random_stats(rng)
            t = int(rng.integers(1, 5000))
            alpha = float(rng.uniform(1e-9, 1.0 / st.count))
            assert marab_index(st, c=0.0, alpha=alpha, t=t) == min_index(st)
        _report(1, "100 fixtures, exact equality", started, 1.0)

    def test_criterion_02_cvar_matches_naive_oracle(self):
        started = time.perf_counter()
        rng = np.random.default_rng(102)
        alphas = np.linspace(0.05, 1.0, 20)
        for _ in range(1000):
            values = rng.random(int(rng.integers(1, 51)))
            st = ArmStats.from_rewards(values)
            srt = sorted(values)
            for alpha in alphas:
                k = tail_count(len(srt), float(alpha))
                assert st.empirical_cvar(float(alpha)) == sum(srt[:k]) / k
        _report(2, "1000 multisets x 20 alphas, exact", started, 5.0)

    def test_criterion_03_cvar_estimator_consistency(self):
        started = time.perf_counter()
        unit = UniformSegment(center=0.5, radius=0.5)
        hits = 0
        for seed in range(100):
            draws = sample_many(unit, make_rng(seed), 10_000)
            est = ArmStats.from_rewards(draws).empirical_cvar(0.2)
            hits += abs(est - 0.1) <= 0.02
        assert hits >= 95
        _report(3, f"{hits}/100 seeds within 0.02 of 0.1", started, 10.0)

    def test_criterion_04_min_tail_inequality(self):
        started = time.perf_counter()
        seg = UniformSegment(center=0.5, radius=0.5)
        res = min_tail_check(seg, t=10, epsilon=0.1, trials=100_000, rng=make_rng(104))
        assert res.empirical_prob == pytest.approx(0.3487, abs=0.005)
        assert res.empirical_prob <= 0.3679
        assert res.passed
        _report(4, f"empirical {res.empirical_prob:.4f} <= {res.bound:.4f}", started, 5.0)

    def test_criterion_05_min_policy_regret_plateaus(self, poc_problem):
        started = time.perf_counter()
        cfg = RunConfig(problem=poc_problem, policy=MIN(), horizon=2000, seed=1, n_runs=40)
        curve = aggregate_regret(run_many(cfg))
        r500, r2000 = curve.mean_regret[499], curve.mean_regret[1999]
        assert r2000 - r500 <= 0.01 * r500 + 1.0
        _report(5, f"R500={r500:.3f}, R2000={r2000:.3f}", started, 30.0)

    def test_criterion_06_marab_exploration_weight_insensitive(self, poc_problem):
        started = time.perf_counter()
        base = RunConfig(
            problem=poc_problem,
            policy=MaRaB(c=0.001, alpha=0.2),
            horizon=2000,
            seed=1,
            n_runs=40,
        )
        grid = {
            "c": [10.0**p for p in range(-6, 4)],
            "alpha": [0.001, 0.01, 0.1],
        }
        by_alpha = defaultdict(list)
        for cell in sweep(base, grid):
            by_alpha[cell.params["alpha"]].append(cell.mean_final_regret)
        spreads = {}
        for alpha, finals in by_alpha.items():
            assert len(finals) == 10
            spreads[alpha] = max(finals) / min(finals)
            assert spreads[alpha] <= 2.0
        detail = ", ".join(f"alpha={a}: x{s:.2f}" for a, s in sorted(spreads.items()))
        _report(6, detail, started, 300.0)

    def test_criterion_07_ucb_regret_grows_logarithmically(self):
        started = time.perf_counter()
        master = 7
        ledgers = []
        for inst in range(10):
            problem = gen_mixture(20, substream(master, PROBLEM_DOMAIN, inst))
            cfg = RunConfig(
                problem=problem,
                policy=UCB(c=0.001),
                horizon=2000,
                seed=derive_seed(master, EPISODE_DOMAIN, inst),
                n_runs=40,
            )
            ledgers.extend(run_many(cfg))
        curve = aggregate_regret(ledgers)
        window = slice(199, 2000)
        y = curve.mean_regret[window]
        x = np.log(curve.t[window].astype(np.float64))
        slope, intercept = np.polyfit(x, y, 1)
        fitted = intercept + slope * x
        r_squared = 1.0 - np.sum((y - fitted) ** 2) / np.sum((y - y.mean()) ** 2)
        assert r_squared >= 0.9
        _report(
            7,
            f"R^2={r_squared:.4f}, slope={slope:.3f}, intercept={intercept:.3f}",
            started,
            300.0,
        )

    def test_criterion_08_bound_evaluators(self):
        started = time.perf_counter()
        golden = BoundInputs(
            n_arms=2, density_floor=1.0, max_mean_gap=0.1, min_infimum_gap=0.1,
            t=100, delta=0.05,
        )
        assert min_regret_bound(golden).high_prob == pytest.approx(8.394, abs=1e-3)

        # with the mean gap at most the infimum gap the ratio-carrying bound
        # is the smaller of the two
        rng = make_rng(108)
        for _ in range(1000):
            mean_gap = float(rng.uniform(0.01, 0.5))
            inputs = BoundInputs(
                n_arms=int(rng.integers(2, 12)),
                density_floor=float(rng.uniform(0.2, 5.0)),
                max_mean_gap=mean_gap,
                min_infimum_gap=float(rng.uniform(mean_gap, 0.9)),
                t=int(rng.integers(1, 100_000)),
                delta=float(rng.uniform(1e-4, 0.9)),
            )
            general = min_regret_bound(inputs).high_prob
            aligned = min_regret_bound_aligned(inputs).high_prob
            assert general <= aligned + 1e-12
        _report(8, "golden 8.394, 1000 bound orderings", started, 1.0)

    def test_criterion_09_observed_min_regret_below_bound(self):
        started = time.perf_counter()
        param_rng = make_rng(109)
        horizon = 2000
        for i in range(20):
            delta_max = float(param_rng.uniform(0.02, 0.08))
            r_max = float(param_rng.uniform(0.2, 0.4))
            problem = gen_proof_of_concept(delta_max=delta_max, r_max=r_max)
            cfg = RunConfig(
                problem=problem, policy=MIN(), horizon=horizon, seed=100 + i, n_runs=40
            )
            observed = aggregate_regret(run_many(cfg)).mean_regret[-1]
            inputs = BoundInputs.from_problem(problem, t=horizon, delta=1.0 / horizon**2)
            bound = min_regret_bound_aligned(inputs).expectation
            assert bound is not None
            assert observed <= bound
        _report(9, "20 problems, observed <= expectation bound", started, 120.0)

    def test_criterion_10_rerun_determinism(self, tmp_path):
        started = time.perf_counter()
        spec = tmp_path / "exp.yaml"
        spec.write_text(
            "seed: 12\n"
            "horizon: 300\n"
            "runs: 6\n"
            "instances: 2\n"
            "problem: {generator: proof_of_concept, k: 5}\n"
            "policies:\n"
            "  - {policy: ucb}\n"
            "  - {policy: marab, alpha: 0.1}\n"
            "  - {policy: min}\n"
            "  - {policy: expexp}\n"
        )
        first, again = tmp_path / "first", tmp_path / "again"
        for out in (first, again):
            assert main(["run", "--spec", str(spec), "--out", str(out)]) == 0
        csvs = sorted(p.name for p in first.glob("*.csv"))
        assert len(csvs) == 12  # 4 policies x 3 tables
        for name in csvs:
            assert (again / name).read_bytes() == (first / name).read_bytes()
        _report(10, "12 files byte-identical across reruns", started, 120.0)
