"""Correctness checks on the tables that `riskbandit run` and `sweep` write.

Every expected value is computed here, apart from the program: the arm
means come from closed forms (uniform centres, truncated-mixture means via
``math.erf``), and the mixture arm specs are redrawn from the seed with
numpy alone, following the stream layout that ``riskbandit.rng`` documents.

Each check returns a list of ``(check, message)`` failures; an empty list
is a pass.  The check names are the ones the self-test corrupts against:

* ``start``       -- at t = k every policy has pulled each arm once, so the
  mean regret there is the mean over instances of the summed mean gaps,
  and its std is the spread of those sums (0 with one instance);
* ``increments``  -- each per-round increment of the mean regret lies in
  [0, largest mean gap];
* ``totals``      -- horizon * mu* - empirical regret at the horizon equals
  the sum of ``sorted_rewards``, and the mean of ``sorted_final_regret``
  equals the curve's final regret;
* ``sorting``     -- sorted tables ascend and their ranks run 1..n;
* ``sweep_range`` -- each sweep cell's final regret lies between the summed
  gaps and the summed gaps plus (horizon - k) largest gaps;
* ``grid``        -- the sweep table holds every grid cell once;
* ``marab_min``   -- every MaRaB cell with alpha * horizon <= 1 equals the
  MIN cell exactly (the paper's alpha -> 0 limit);
* ``determinism`` -- output tables are byte-identical across repetitions.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# riskbandit.rng: problem instance i is drawn from SeedSequence([seed, 101, i]).
PROBLEM_DOMAIN = 101

# Per-arm mean tolerance for mixtures.  The program reads mixture means off a
# 1M-draw Monte Carlo sample, measured up to 6.7e-4 away from the closed
# form; 2e-3 covers that and still admits an exact implementation.
MIXTURE_TOL_MEAN = 2e-3
# Uniform-segment means are closed-form on both sides.
UNIFORM_TOL_MEAN = 1e-12
# Relative slack for sums that differ only in floating-point order.
FP_REL = 1e-9

SUMMARY_FILES = {"summary.json", "sweep_summary.json"}


# ---------------------------------------------------------------------------
# exact arm means


def _phi(z: float) -> float:
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def _Phi(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def truncated_mixture_mean(floor, weights, means, stds) -> float:
    """Mean of a Gaussian mixture conditioned on [floor, 1].

    Component j contributes its mass w_j (Phi(b) - Phi(a)) and its partial
    expectation w_j (m_j (Phi(b) - Phi(a)) + s_j (phi(a) - phi(b))), with
    a = (floor - m_j) / s_j and b = (1 - m_j) / s_j.
    """
    mass = 0.0
    first_moment = 0.0
    for w, m, s in zip(weights, means, stds):
        a = (floor - m) / s
        b = (1.0 - m) / s
        p = _Phi(b) - _Phi(a)
        mass += w * p
        first_moment += w * (m * p + s * (_phi(a) - _phi(b)))
    return first_moment / mass


def mixture_instance_means(seed: int, instance: int, k: int) -> list[float]:
    """Exact arm means of mixture instance ``instance``, redrawn from the seed.

    Per arm, in stream order: floor ~ U[0, 0.05], component count ~ U{1..4},
    then the component means, standard deviations and raw weights.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, PROBLEM_DOMAIN, instance])))
    out = []
    for _ in range(k):
        floor = rng.uniform(0.0, 0.05)
        n = int(rng.integers(1, 5))
        means = rng.uniform(0.0, 1.0, n)
        stds = rng.uniform(0.12, 0.5, n)
        raw_w = rng.uniform(0.0, 1.0, n)
        while np.any(raw_w == 0.0):
            raw_w = rng.uniform(0.0, 1.0, n)
        weights = raw_w / raw_w.sum()
        out.append(truncated_mixture_mean(float(floor), weights.tolist(), means.tolist(), stds.tolist()))
    return out


def plateau_means(k=20, mu_star=0.5, a_star=0.499, delta_max=0.05, r_max=0.4) -> list[float]:
    """Uniform centres of the proof-of-concept family: mu* - s_i delta_max."""
    return [mu_star - (i / (k - 1)) * delta_max for i in range(k)]


@dataclass(frozen=True)
class Reference:
    """Exact arm means of each problem instance a spec builds."""

    means: tuple[tuple[float, ...], ...]
    tol_mean: float

    @property
    def k(self) -> int:
        return len(self.means[0])

    def gap_sums(self) -> list[float]:
        return [len(m) * max(m) - sum(m) for m in self.means]

    def max_gap(self) -> float:
        return max(max(m) - min(m) for m in self.means)

    def mu_stars(self) -> list[float]:
        return [max(m) for m in self.means]

    def tol_gap_sum(self) -> float:
        # each of k gaps mixes two means, each off by at most tol_mean
        return 2.0 * self.k * self.tol_mean


def reference_for(spec: dict, seed: int, instances: int) -> Reference:
    problem = dict(spec["problem"])
    generator = problem.pop("generator")
    if generator == "mixture":
        k = problem.get("k", 20)
        means = [mixture_instance_means(seed, i, k) for i in range(instances)]
        return Reference(tuple(tuple(m) for m in means), MIXTURE_TOL_MEAN)
    if generator == "proof_of_concept":
        # deterministic generator: every instance is the same problem
        means = plateau_means(**problem)
        return Reference(tuple(tuple(means) for _ in range(instances)), UNIFORM_TOL_MEAN)
    raise ValueError(f"no exact reference for generator {generator!r}")


# ---------------------------------------------------------------------------
# reading outputs


def read_table(path: Path) -> dict:
    """Parse a riskbandit CSV table into ``{column: [cell text, ...]}``."""
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    columns = {name: [] for name in header}
    for ln in lines[1:]:
        for name, cell in zip(header, ln.split(",")):
            columns[name].append(cell)
    return columns


def floats(column: list[str]) -> list[float]:
    return [float(v) for v in column]


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol + FP_REL * max(1.0, abs(a), abs(b))


def read_run_outputs(out_dir: Path, labels: list[str]) -> dict:
    return {
        label: {
            "curve": read_table(out_dir / f"regret_curve_{label}.csv"),
            "rewards": read_table(out_dir / f"sorted_rewards_{label}.csv"),
            "finals": read_table(out_dir / f"sorted_final_regret_{label}.csv"),
        }
        for label in labels
    }


def read_sweep_outputs(out_dir: Path, labels: list[str]) -> dict:
    return {label: read_table(out_dir / f"sweep_{label}.csv") for label in labels}


# ---------------------------------------------------------------------------
# checks on `riskbandit run` tables


def check_start(label, tables, ref: Reference) -> list:
    curve = tables["curve"]
    k = ref.k
    if int(curve["t"][k - 1]) != k:
        return [("start", f"{label}: row {k} is t={curve['t'][k - 1]}, not t={k}")]
    sums = ref.gap_sums()
    expected_mean = statistics.fmean(sums)
    expected_std = statistics.pstdev(sums)
    got_mean = float(curve["mean_theoretical_regret"][k - 1])
    got_std = float(curve["std"][k - 1])
    tol = ref.tol_gap_sum()
    failures = []
    if not _close(got_mean, expected_mean, tol):
        failures.append(("start", f"{label}: regret at t=k is {got_mean!r}, summed gaps give {expected_mean!r} (tol {tol:g})"))
    if not _close(got_std, expected_std, tol):
        failures.append(("start", f"{label}: std at t=k is {got_std!r}, expected {expected_std!r} (tol {tol:g})"))
    return failures


def check_increments(label, tables, ref: Reference) -> list:
    regret = floats(tables["curve"]["mean_theoretical_regret"])
    ceiling = ref.max_gap() + 2.0 * ref.tol_mean
    prev = 0.0
    for t, value in enumerate(regret, start=1):
        inc = value - prev
        slack = FP_REL * max(1.0, abs(value))
        if inc < -slack or inc > ceiling + slack:
            return [("increments", f"{label}: increment {inc!r} at t={t} outside [0, {ceiling!r}]")]
        prev = value
    return []


def check_totals(label, tables, ref: Reference, horizon: int) -> list:
    curve = tables["curve"]
    failures = []
    collected = math.fsum(floats(tables["rewards"]["mean_reward"]))
    emp_final = float(curve["mean_empirical_regret"][-1])
    expected = horizon * statistics.fmean(ref.mu_stars()) - emp_final
    tol = horizon * ref.tol_mean
    if not _close(collected, expected, tol):
        failures.append(("totals", f"{label}: sorted rewards sum to {collected!r}, horizon*mu* - empirical regret is {expected!r} (tol {tol:g})"))
    finals_mean = statistics.fmean(floats(tables["finals"]["mean_final_regret"]))
    curve_final = float(curve["mean_theoretical_regret"][-1])
    if not _close(finals_mean, curve_final, 0.0):
        failures.append(("totals", f"{label}: mean sorted final regret {finals_mean!r} != curve final {curve_final!r}"))
    return failures


def _check_sorted(label, name, table, value_column, n) -> list:
    ranks = [int(r) for r in table["rank"]]
    values = floats(table[value_column])
    if ranks != list(range(1, n + 1)):
        return [("sorting", f"{label}: {name} ranks are not 1..{n}")]
    for i in range(1, len(values)):
        if values[i] < values[i - 1]:
            return [("sorting", f"{label}: {name} descends at rank {i + 1}")]
    return []


def check_sorting(label, tables, horizon: int, instances: int) -> list:
    failures = []
    if [int(t) for t in tables["curve"]["t"]] != list(range(1, horizon + 1)):
        failures.append(("sorting", f"{label}: regret curve rounds are not 1..{horizon}"))
    failures += _check_sorted(label, "sorted_rewards", tables["rewards"], "mean_reward", horizon)
    failures += _check_sorted(label, "sorted_final_regret", tables["finals"], "mean_final_regret", instances)
    return failures


def check_run(outputs: dict, ref: Reference, horizon: int, instances: int) -> list:
    failures = []
    for label, tables in outputs.items():
        failures += check_start(label, tables, ref)
        failures += check_increments(label, tables, ref)
        failures += check_totals(label, tables, ref, horizon)
        failures += check_sorting(label, tables, horizon, instances)
    return failures


# ---------------------------------------------------------------------------
# checks on `riskbandit sweep` tables

RESULT_COLUMNS = ("mean_final_regret", "mean_final_regret_emp", "std_final_regret")


def check_sweep_range(outputs: dict, ref: Reference, horizon: int) -> list:
    floor = ref.gap_sums()[0]
    ceiling = floor + (horizon - ref.k) * ref.max_gap()
    tol = ref.tol_gap_sum() + (horizon - ref.k) * 2.0 * ref.tol_mean
    failures = []
    for label, table in outputs.items():
        for row, value in enumerate(floats(table["mean_final_regret"])):
            if not (floor - tol <= value <= ceiling + tol):
                failures.append(("sweep_range", f"{label} row {row}: final regret {value!r} outside [{floor!r}, {ceiling!r}]"))
    return failures


def check_grid(table: dict, grid: dict) -> list:
    names = list(grid)
    got = [tuple(float(table[n][i]) for n in names) for i in range(len(table[names[0]]))]
    expected = [tuple(float(v) for v in combo) for combo in itertools.product(*(grid[n] for n in names))]
    if got != expected:
        return [("grid", f"sweep rows {got} do not match the grid {expected}")]
    return []


def check_marab_min(marab: dict, min_table: dict, horizon: int) -> list:
    """Cells with alpha * horizon <= 1 keep a one-sample tail and no width: MIN."""
    min_row = tuple(min_table[c][0] for c in RESULT_COLUMNS)
    limit_rows = [i for i, a in enumerate(marab["alpha"]) if float(a) * horizon <= 1.0]
    if not limit_rows:
        return [("marab_min", "no sweep cell has alpha * horizon <= 1")]
    failures = []
    for i in limit_rows:
        row = tuple(marab[c][i] for c in RESULT_COLUMNS)
        if row != min_row:
            failures.append(("marab_min", f"cell alpha={marab['alpha'][i]} c={marab['c'][i]}: {row} != min {min_row}"))
    return failures


def check_sweep(outputs: dict, spec: dict, ref: Reference, horizon: int) -> list:
    failures = check_sweep_range(outputs, ref, horizon)
    labels = {}
    for entry in spec["policies"]:
        label = entry.get("label", entry["policy"])
        labels[entry["policy"]] = label
        if entry.get("sweep"):
            failures += check_grid(outputs[label], entry["sweep"])
    failures += check_marab_min(outputs[labels["marab"]], outputs[labels["min"]], horizon)
    return failures


# ---------------------------------------------------------------------------
# determinism


def table_digests(out_dir: Path) -> dict:
    """sha256 of every output file except the summaries (which carry timing)."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
        if p.is_file() and p.name not in SUMMARY_FILES
    }


def check_determinism(digests: dict, reference: dict) -> list:
    if digests == reference:
        return []
    differing = sorted(n for n in set(digests) | set(reference) if digests.get(n) != reference.get(n))
    return [("determinism", f"tables differ from the first repetition: {differing}")]
