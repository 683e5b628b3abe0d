"""Bandit problem construction.

A :class:`BanditProblem` bundles the arm distributions with the derived
quantities the harness and the bound evaluators need: per-arm means and
essential infima, the index of the best-mean arm, the mean and infimum gaps
to that arm, and (when every arm has a known density lower bound) the
constant ``A`` controlling how fast observed minima concentrate on the
infimum.

Three generators are provided:

* :func:`gen_proof_of_concept` -- uniform-segment arms whose mean gaps and
  infimum gaps grow together on an affine schedule, so the best-mean arm is
  also the best-worst-case arm by construction.
* :func:`gen_mixture` -- truncated Gaussian mixture arms with randomised
  floors, component counts, and shapes.  Mean-best and min-best arms need
  not coincide here.
* :func:`gen_from_matrix` -- empirical resampling arms from a reward matrix
  (one row per arm), with optional min-max rescaling into [0, 1].

:func:`gen_battery_synthetic` produces such a matrix from a small storage
dispatch simulation, as a stand-in for trace-driven workloads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .distributions import (
    ArmSpec,
    EmpiricalResample,
    TruncatedGaussianMixture,
    UniformSegment,
    analytic_mean,
    essential_infimum,
)

_TOL = 1e-12


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class BanditProblem:
    """Arm specs plus the derived gap structure of the instance.

    ``margins_mean[i]`` is the mean gap ``max(means) - means[i]`` and
    ``margins_min[i]`` the infimum gap ``max(infima) - infima[i]``; both are
    non-negative by construction.  Whether the two maxima sit on the same arm
    (the hypothesis behind the max-min regret bounds) is a property of the
    instance, checked by :func:`riskbandit.theory.margin_assumption_check`.

    ``lower_bound_A`` is ``min_i 1 / (2 r_i)`` for uniform-segment arms (a
    lower bound on every arm's density over its support) and ``None`` when no
    such bound is available.
    """

    arms: tuple[ArmSpec, ...]
    means: np.ndarray
    infima: np.ndarray
    best_mean_arm: int
    margins_mean: np.ndarray
    margins_min: np.ndarray
    lower_bound_A: Optional[float]

    @classmethod
    def from_arms(cls, arms: Sequence[ArmSpec], lower_bound_A: Optional[float] = None) -> "BanditProblem":
        arms = tuple(arms)
        if len(arms) < 2:
            raise ValueError(f"need at least 2 arms, got {len(arms)}")
        means = np.array([analytic_mean(a) for a in arms])
        infima = np.array([essential_infimum(a) for a in arms])
        best = int(np.argmax(means))  # ties resolve to the lowest index
        return cls(
            arms=arms,
            means=_frozen(means),
            infima=_frozen(infima),
            best_mean_arm=best,
            margins_mean=_frozen(means.max() - means),
            margins_min=_frozen(infima.max() - infima),
            lower_bound_A=lower_bound_A,
        )

    @property
    def k(self) -> int:
        return len(self.arms)

    @property
    def mu_star(self) -> float:
        return float(self.means[self.best_mean_arm])

    @property
    def a_star(self) -> float:
        return float(self.infima[self.best_mean_arm])


def gen_proof_of_concept(
    k: int = 20,
    mu_star: float = 0.5,
    a_star: float = 0.499,
    delta_max: float = 0.05,
    r_max: float = 0.4,
) -> BanditProblem:
    """Uniform-segment instance with jointly increasing mean and infimum gaps.

    Arm ``i`` (1-based) is uniform with center ``mu_star - s_i * delta_max``
    and radius ``(mu_star - a_star) + s_i * r_max`` where ``s_i = (i-1)/(k-1)``.
    Arm 1 is optimal for both the mean and the worst case; the mean gap of arm
    ``i`` is ``s_i * delta_max`` and its infimum gap exceeds that by
    ``s_i * r_max``, so the gap ordering assumption behind the max-min regret
    bounds holds with room to spare.

    Defaults give 20 arms on [0, 1] with a nearly flat mean profile
    (``mu* = 0.5``, gaps up to 0.05) and sharply widening supports; the density
    bound is ``A = 1 / (2 * r_k)``.
    """
    if k < 2:
        raise ValueError(f"need at least 2 arms, got k={k}")
    if not 0.0 < a_star < mu_star:
        raise ValueError(f"need 0 < a_star < mu_star, got a_star={a_star}, mu_star={mu_star}")
    for name, value in (("delta_max", delta_max), ("r_max", r_max)):
        if not 0.0 <= value < math.inf:
            raise ValueError(f"{name} must be non-negative and finite, got {value}")

    arms = []
    for i in range(1, k + 1):
        s = (i - 1) / (k - 1)
        center = mu_star - s * delta_max
        radius = (mu_star - a_star) + s * r_max
        if center - radius < -_TOL or center + radius > 1.0 + _TOL:
            raise ValueError(
                f"arm {i}: support [{center - radius:.6g}, {center + radius:.6g}] escapes [0, 1]; "
                "shrink delta_max / r_max or move mu_star"
            )
        arms.append(UniformSegment(center=center, radius=radius))

    problem = BanditProblem.from_arms(
        arms, lower_bound_A=min(1.0 / (2.0 * a.radius) for a in arms)
    )
    # affine schedule sanity: arm 1 optimal on both axes, mean gaps never
    # exceed infimum gaps
    assert problem.best_mean_arm == 0
    assert abs(problem.a_star - a_star) < 1e-9
    assert problem.a_star >= problem.infima.max() - _TOL
    assert np.all(problem.margins_mean <= problem.margins_min + _TOL)
    return problem


def gen_mixture_arms(k: int, rng: np.random.Generator) -> tuple[TruncatedGaussianMixture, ...]:
    """Draw ``k`` randomised truncated-mixture arm specs.

    Per arm, in stream order: floor ~ U[0, 0.05], component count ~ U{1..4},
    then per component a mean ~ U[0, 1], a standard deviation ~ U[0.12, 0.5],
    and a raw weight ~ U[0, 1]; weights are normalised to sum to 1.
    """
    if k < 2:
        raise ValueError(f"need at least 2 arms, got k={k}")
    arms = []
    for _ in range(k):
        floor = rng.uniform(0.0, 0.05)
        n = int(rng.integers(1, 5))
        means = rng.uniform(0.0, 1.0, n)
        stds = rng.uniform(0.12, 0.5, n)
        raw_w = rng.uniform(0.0, 1.0, n)
        while np.any(raw_w == 0.0):  # zero weights are measure-zero but not impossible
            raw_w = rng.uniform(0.0, 1.0, n)
        weights = raw_w / raw_w.sum()
        arms.append(
            TruncatedGaussianMixture(
                floor=float(floor),
                weights=tuple(float(w) for w in weights),
                means=tuple(float(m) for m in means),
                stds=tuple(float(s) for s in stds),
            )
        )
    return tuple(arms)


def gen_mixture(k: int, rng: np.random.Generator) -> BanditProblem:
    """Randomised truncated-mixture instance (no density lower bound)."""
    return BanditProblem.from_arms(gen_mixture_arms(k, rng), lower_bound_A=None)


def _rescale_unit(matrix: list[list[float]]) -> list[list[float]]:
    flat = [v for row in matrix for v in row]
    lo, hi = min(flat), max(flat)
    if hi - lo < _TOL:
        # constant matrix carries no signal; park everything mid-range
        return [[0.5] * len(row) for row in matrix]
    span = hi - lo
    return [[(v - lo) / span for v in row] for row in matrix]


def gen_from_matrix(rows: Sequence[Sequence[float]], rescale: bool = False) -> BanditProblem:
    """Empirical-resampling instance from a reward matrix, one row per arm.

    Rows may have different lengths.  With ``rescale=True`` the whole matrix
    is min-max mapped onto [0, 1] first (a constant matrix maps to 0.5);
    otherwise every value must already lie in [0, 1].
    """
    matrix = [[float(v) for v in row] for row in rows]
    if len(matrix) < 2:
        raise ValueError(f"need at least 2 arm rows, got {len(matrix)}")
    for i, row in enumerate(matrix):
        if not row:
            raise ValueError(f"arm row {i} is empty")
    if rescale:
        matrix = _rescale_unit(matrix)
    else:
        for i, row in enumerate(matrix):
            for v in row:
                if not 0.0 <= v <= 1.0:
                    raise ValueError(
                        f"arm row {i} has value {v!r} outside [0, 1]; pass rescale=True "
                        "to min-max normalise the matrix"
                    )
    arms = [EmpiricalResample(values=tuple(row)) for row in matrix]
    return BanditProblem.from_arms(arms, lower_bound_A=None)


def gen_battery_synthetic(
    n_arms: int, n_realizations: int, rng: np.random.Generator
) -> list[list[float]]:
    """Reward matrix from a toy storage dispatch simulation.

    Each realization is a 48-step demand trace ``max(0, 1 + 0.8 sin(2 pi t/24)
    + 0.4 eps_t)`` shared by all arms.  Arm ``j`` is a threshold strategy with
    discharge fraction ``f_j = (j+1)/n_arms``: above a demand of 1 it serves
    ``min(f_j * charge, demand)`` from a battery (capacity 10, 2% loss per
    step) and buys the rest; below it buys the demand and recharges 0.5 units
    at half price.  A realization's reward is its negated total purchase cost,
    and the matrix is min-max rescaled into [0, 1] at the end.

    Cautious strategies buy through every peak; aggressive ones run the
    battery flat early, so the arms trade mean cost against spread.  Purely
    synthetic and deterministic given ``rng``.
    """
    if n_arms < 2:
        raise ValueError(f"need at least 2 arms, got {n_arms}")
    if n_realizations < 1:
        raise ValueError(f"need at least 1 realization, got {n_realizations}")

    horizon = 48
    capacity = 10.0
    retention = 0.98
    threshold = 1.0
    recharge = 0.5

    eps = rng.standard_normal((n_realizations, horizon))
    seasonal = 0.8 * np.sin(2.0 * np.pi * np.arange(horizon) / 24.0)
    demand = np.maximum(0.0, 1.0 + seasonal[None, :] + 0.4 * eps)

    costs = np.empty((n_arms, n_realizations))
    for j in range(n_arms):
        frac = (j + 1) / n_arms
        charge = np.full(n_realizations, capacity)
        bought = np.zeros(n_realizations)
        for t in range(horizon):
            charge *= retention
            d = demand[:, t]
            peak = d > threshold
            discharge = np.where(peak, np.minimum(frac * charge, d), 0.0)
            charge -= discharge
            bought += np.where(peak, d - discharge, d)
            refill = np.where(peak, 0.0, np.minimum(recharge, capacity - charge))
            charge += refill
            bought += 0.5 * refill
        costs[j] = bought

    return _rescale_unit((-costs).tolist())
