"""Reward distributions for bandit arms.

Three arm families are supported:

* :class:`UniformSegment` -- uniform on ``[center - radius, center + radius]``,
  with closed-form mean, quantiles, and tail means.
* :class:`TruncatedGaussianMixture` -- a Gaussian mixture conditioned on the
  interval ``[floor, 1]`` by rejection.  Its mean and tail means are exact,
  from each component's normal mass and partial expectation (the truncated
  normal formulas); its quantiles come from bisection on the same mass.
* :class:`EmpiricalResample` -- uniform resampling with replacement from a
  fixed list of observed values; statistics are exact functions of the list.

All specs are frozen (hashable) dataclasses.

For a spec with distribution function F, the lower quantile at level
``alpha`` is ``inf{x : F(x) >= alpha}`` and the tail mean at level ``alpha``
is the expectation conditioned on outcomes at or below that quantile (for a
continuous F, the CVaR of Rockafellar & Uryasev, 2000).  On a finite sample
of size n both reduce to order statistics: the quantile is the
``ceil(alpha * n)``-th smallest value and the tail mean averages the lowest
``ceil(alpha * n)`` values.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .estimators import tail_count
from .exceptions import DegenerateMixtureError

# Rejection sampling aborts after this many consecutive attempts without a
# single accepted draw.
REJECTION_CAP = 1_000_000
_REJECTION_BLOCK = 8192
# attempts per chunk of normals within a block (a divisor of the block)
_REJECTION_CHUNK = 1024

_SUPPORT_TOL = 1e-12


@dataclass(frozen=True)
class UniformSegment:
    """Uniform reward on ``[center - radius, center + radius]``.

    The support must stay inside ``[0, 1]`` and the radius must be positive.
    """

    center: float
    radius: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.center) and math.isfinite(self.radius)):
            raise ValueError(
                f"center and radius must be finite, got {self.center}, {self.radius}"
            )
        if not self.radius > 0.0:
            raise ValueError(f"radius must be positive, got {self.radius}")
        if self.center - self.radius < -_SUPPORT_TOL or self.center + self.radius > 1.0 + _SUPPORT_TOL:
            raise ValueError(
                f"support [{self.center - self.radius:.6g}, {self.center + self.radius:.6g}] "
                "escapes [0, 1]"
            )

    @property
    def low(self) -> float:
        return self.center - self.radius

    @property
    def high(self) -> float:
        return self.center + self.radius


@dataclass(frozen=True)
class TruncatedGaussianMixture:
    """Gaussian mixture conditioned on the interval ``[floor, 1]``.

    Parameters
    ----------
    floor : float
        Lower edge of the acceptance window, in ``[0, 1)``.  The essential
        infimum of the reward.
    weights, means, stds : tuple of float
        Component weights (strictly positive, summing to 1), component means,
        and component standard deviations (strictly positive), all finite.
        The three tuples must have equal, non-zero length.
    """

    floor: float
    weights: tuple[float, ...]
    means: tuple[float, ...]
    stds: tuple[float, ...]

    def __post_init__(self) -> None:
        if not 0.0 <= self.floor < 1.0:
            raise ValueError(f"floor must be in [0, 1), got {self.floor}")
        n = len(self.weights)
        if n == 0:
            raise ValueError("mixture needs at least one component")
        if len(self.means) != n or len(self.stds) != n:
            raise ValueError(
                f"component tuples disagree in length: {n} weights, "
                f"{len(self.means)} means, {len(self.stds)} stds"
            )
        if not all(math.isfinite(x) for x in (*self.weights, *self.means, *self.stds)):
            raise ValueError("component weights, means and stds must be finite")
        if any(w <= 0.0 for w in self.weights):
            raise ValueError("component weights must be strictly positive")
        if abs(sum(self.weights) - 1.0) > 1e-9:
            raise ValueError(f"component weights must sum to 1, got {sum(self.weights)!r}")
        if any(s <= 0.0 for s in self.stds):
            raise ValueError("component standard deviations must be strictly positive")

    @classmethod
    def from_components(cls, floor, components) -> "TruncatedGaussianMixture":
        """Build from an iterable of ``(weight, mean, std)`` triples."""
        w, m, s = zip(*components)
        return cls(floor=floor, weights=tuple(w), means=tuple(m), stds=tuple(s))


@dataclass(frozen=True)
class EmpiricalResample:
    """Uniform resampling with replacement from a fixed tuple of values in [0, 1]."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.values) == 0:
            raise ValueError("empirical spec needs at least one value")
        for i, v in enumerate(self.values):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"value {v!r} at position {i} is outside [0, 1]")


ArmSpec = Union[UniformSegment, TruncatedGaussianMixture, EmpiricalResample]


# ---------------------------------------------------------------------------
# sampling


def sample(spec: ArmSpec, rng: np.random.Generator) -> float:
    """Draw a single reward from ``spec``."""
    return float(sample_many(spec, rng, 1)[0])


def sample_many(spec: ArmSpec, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw ``n`` rewards from ``spec`` as a float64 array.

    Stream consumption is part of the reproducibility contract:

    * ``UniformSegment`` consumes one uniform per draw.
    * ``EmpiricalResample`` consumes one bounded integer per draw.
    * ``TruncatedGaussianMixture`` consumes uniforms and normals in fixed-size
      attempt blocks (component picks for a whole block, then normals for the
      block), keeping accepted draws in attempt order.  The block that fills
      the output draws its normals only up to the end of the chunk of
      ``_REJECTION_CHUNK`` attempts in which the ``n``-th value is accepted.
      The output is a deterministic function of the spec, the generator
      state, and ``n``; the values are those of drawing whole blocks, but
      the generator ends in a different state, so later draws from it (a
      second ``sample_many``, repeated :func:`sample` calls) differ from
      releases that drew whole blocks.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if isinstance(spec, UniformSegment):
        return spec.low + (2.0 * spec.radius) * rng.random(n)
    if isinstance(spec, EmpiricalResample):
        vals = np.asarray(spec.values, dtype=np.float64)
        return vals[rng.integers(0, len(vals), size=n)]
    if isinstance(spec, TruncatedGaussianMixture):
        return _sample_mixture(spec, rng, n)
    raise TypeError(f"unknown arm spec type: {type(spec).__name__}")


def _sample_mixture(spec: TruncatedGaussianMixture, rng: np.random.Generator, n: int) -> np.ndarray:
    means = np.asarray(spec.means)
    stds = np.asarray(spec.stds)
    cum = np.cumsum(np.asarray(spec.weights))
    cum[-1] = 1.0  # guard the searchsorted edge against rounding in the sum

    out = np.empty(n, dtype=np.float64)
    filled = 0
    rejected_streak = 0
    while filled < n:
        block_start = filled
        picks = rng.random(_REJECTION_BLOCK)
        # the block's normals come chunk by chunk, so a block that fills the
        # row stops drawing; the chunks are the same draws as one call
        for lo in range(0, _REJECTION_BLOCK, _REJECTION_CHUNK):
            comp = np.searchsorted(cum, picks[lo : lo + _REJECTION_CHUNK], side="right")
            draws = means[comp] + stds[comp] * rng.standard_normal(comp.size)
            accepted = draws[(draws >= spec.floor) & (draws <= 1.0)]
            take = min(accepted.size, n - filled)
            out[filled : filled + take] = accepted[:take]
            filled += take
            if filled == n:
                break
        if filled > block_start:
            rejected_streak = 0
            continue
        rejected_streak += _REJECTION_BLOCK
        if rejected_streak > REJECTION_CAP:
            raise DegenerateMixtureError(
                f"no draw landed in [{spec.floor}, 1] after {rejected_streak} attempts"
            )
    return out


# ---------------------------------------------------------------------------
# analytic statistics


def _mixture_partial(spec: TruncatedGaussianMixture, x: float) -> tuple[float, float]:
    """Untruncated mass and first moment of the mixture on ``[floor, x]``.

    Component ``(w, m, s)`` contributes ``w (Phi(b) - Phi(a))`` to the mass
    and ``w (m (Phi(b) - Phi(a)) + s (phi(a) - phi(b)))`` to the first
    moment, with ``a = (floor - m) / s`` and ``b = (x - m) / s``.
    """
    mass = 0.0
    first = 0.0
    for w, m, s in zip(spec.weights, spec.means, spec.stds):
        a = (spec.floor - m) / s
        b = (x - m) / s
        p = 0.5 * (math.erf(b / math.sqrt(2.0)) - math.erf(a / math.sqrt(2.0)))
        dens = (math.exp(-0.5 * a * a) - math.exp(-0.5 * b * b)) / math.sqrt(2.0 * math.pi)
        mass += w * p
        first += w * (m * p + s * dens)
    return mass, first


def _mixture_quantile(spec: TruncatedGaussianMixture, alpha: float) -> float:
    """Smallest ``x`` with ``mass(x) >= alpha * mass(1)``, by bisection to adjacent floats."""
    total = _mixture_partial(spec, 1.0)[0]
    if not total > 0.0:
        raise DegenerateMixtureError(f"mixture puts no mass on [{spec.floor}, 1]")
    if alpha == 1.0:
        # the top of the support; rounding in the mass could stop a search short of it
        return 1.0
    target = alpha * total
    lo, hi = spec.floor, 1.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return hi
        if _mixture_partial(spec, mid)[0] >= target:
            hi = mid
        else:
            lo = mid


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")


def analytic_mean(spec: ArmSpec) -> float:
    """Expected reward of ``spec``, exact for every family.

    Raises :class:`DegenerateMixtureError` for a mixture with no mass on
    ``[floor, 1]``.
    """
    if isinstance(spec, UniformSegment):
        return spec.center
    if isinstance(spec, EmpiricalResample):
        return float(np.mean(spec.values))
    if isinstance(spec, TruncatedGaussianMixture):
        return analytic_cvar(spec, 1.0)  # the tail that is the whole window [floor, 1]
    raise TypeError(f"unknown arm spec type: {type(spec).__name__}")


def essential_infimum(spec: ArmSpec) -> float:
    """Lowest reward the spec can produce."""
    if isinstance(spec, UniformSegment):
        return spec.low
    if isinstance(spec, EmpiricalResample):
        return float(min(spec.values))
    if isinstance(spec, TruncatedGaussianMixture):
        return spec.floor
    raise TypeError(f"unknown arm spec type: {type(spec).__name__}")


def quantile_value(spec: ArmSpec, alpha: float) -> float:
    """Lower ``alpha``-quantile of the reward distribution."""
    _check_alpha(alpha)
    if isinstance(spec, UniformSegment):
        return spec.low + alpha * 2.0 * spec.radius
    if isinstance(spec, EmpiricalResample):
        vals = sorted(spec.values)
        return float(vals[tail_count(len(vals), alpha) - 1])
    if isinstance(spec, TruncatedGaussianMixture):
        return _mixture_quantile(spec, alpha)
    raise TypeError(f"unknown arm spec type: {type(spec).__name__}")


def analytic_cvar(spec: ArmSpec, alpha: float) -> float:
    """Mean reward conditioned on the lower ``alpha`` tail.

    Closed form for uniform segments and mixtures (the mixture's first
    moment over its mass on ``[floor, quantile_value(spec, alpha)]``, to an
    absolute error of about ``1e-17 / alpha``); for empirical specs the
    average of the lowest ``ceil(alpha * n)`` values.  At ``alpha = 1`` this
    is the plain mean, bit for bit for mixtures.
    """
    _check_alpha(alpha)
    if isinstance(spec, UniformSegment):
        # mean of a uniform on [low, low + alpha * 2r]
        return spec.low + alpha * spec.radius
    if isinstance(spec, EmpiricalResample):
        vals = np.sort(np.asarray(spec.values, dtype=np.float64))
        return float(np.mean(vals[: tail_count(len(vals), alpha)]))
    if isinstance(spec, TruncatedGaussianMixture):
        q = _mixture_quantile(spec, alpha)
        mass, first = _mixture_partial(spec, q)
        if not mass > 0.0:  # alpha * mass(1) underflowed; the limit is the floor
            return spec.floor
        # the ratio carries a rounding error of about 1e-17 / alpha, from the
        # differences of erf and exp values; the exact tail mean is in [floor, q]
        return min(max(first / mass, spec.floor), q)
    raise TypeError(f"unknown arm spec type: {type(spec).__name__}")


# ---------------------------------------------------------------------------
# reward matrix ingestion


def load_reward_matrix(path) -> list[list[float]]:
    """Read a reward matrix from CSV: one row per arm, variable row length.

    Cells must parse as finite floats.  Blank lines are skipped.  Range
    checks (and optional rescaling) are applied by the matrix-based problem
    generator, not here.
    """
    rows: list[list[float]] = []
    with open(path, newline="") as fh:
        for lineno, raw in enumerate(csv.reader(fh), start=1):
            cells = [c.strip() for c in raw if c.strip() != ""]
            if not cells:
                continue
            try:
                row = [float(c) for c in cells]
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
            if not all(np.isfinite(row)):
                raise ValueError(f"{path}: line {lineno}: non-finite value")
            rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no reward rows found")
    return rows
