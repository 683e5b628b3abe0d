"""Incremental per-arm reward statistics.

:class:`ArmStats` keeps everything a policy index needs, updated in O(log n)
amortised per observed reward: the sorted reward history (for minima, tail
means), the running sum (for means), and a Welford-style sum of squared
deviations (for variances).

The empirical lower tail mean at level ``alpha`` over ``n`` rewards averages
the lowest ``ceil(alpha * n)`` of them, with the count clamped to at least 1
so the statistic is defined from the first observation on.  At ``alpha = 1``
it coincides with the mean; as ``alpha`` shrinks it approaches the minimum.

Summation order is pinned down deliberately: tail means accumulate left to
right over the sorted prefix, and the variance update reads its means off the
running sum.  The episode kernels replicate the same order so both layers
produce bit-identical indices.
"""

from __future__ import annotations

from bisect import insort

from ._util import ceil_int
from .exceptions import UndefinedStatisticError


def tail_count(count: int, alpha: float) -> int:
    """Number of lowest rewards entering the tail mean: max(1, ceil(alpha * count)).

    Every scalar tail size in the package comes from here;
    :func:`riskbandit.kernels.tail_sizes` is the vectorised form.
    """
    return max(1, ceil_int(alpha * count))


class ArmStats:
    """Mutable statistics of the rewards observed on one arm."""

    __slots__ = ("count", "_sorted", "running_sum", "running_sq_dev")

    def __init__(self) -> None:
        self.count = 0
        self._sorted: list[float] = []
        self.running_sum = 0.0
        self.running_sq_dev = 0.0

    @classmethod
    def from_rewards(cls, rewards) -> "ArmStats":
        """Bulk constructor; equivalent to updating with each reward in order."""
        stats = cls()
        vals = [float(r) for r in rewards]
        for i, r in enumerate(vals):
            if not 0.0 <= r <= 1.0:
                raise ValueError(f"reward {r!r} at position {i} is outside [0, 1]")
        # single sort instead of n insertions; the accumulators still run in
        # arrival order so they match the incremental path exactly
        count = 0
        running_sum = 0.0
        m2 = 0.0
        for r in vals:
            prev_mean = running_sum / count if count else 0.0
            running_sum += r
            count += 1
            m2 += (r - prev_mean) * (r - running_sum / count)
        stats.count = count
        stats.running_sum = running_sum
        stats.running_sq_dev = m2
        stats._sorted = sorted(vals)
        return stats

    @property
    def rewards_sorted(self) -> list[float]:
        """Observed rewards in ascending order.  Treat as read-only."""
        return self._sorted

    def update(self, reward: float) -> None:
        """Record one reward in [0, 1]."""
        r = float(reward)
        if not 0.0 <= r <= 1.0:
            raise ValueError(f"reward {r!r} is outside [0, 1]")
        prev_mean = self.running_sum / self.count if self.count else 0.0
        self.running_sum += r
        self.count += 1
        self.running_sq_dev += (r - prev_mean) * (r - self.running_sum / self.count)
        insort(self._sorted, r)

    def _require_data(self) -> None:
        if self.count == 0:
            raise UndefinedStatisticError("no rewards observed yet")

    def empirical_mean(self) -> float:
        self._require_data()
        return self.running_sum / self.count

    def empirical_variance(self) -> float:
        """Population variance (normalised by the count)."""
        self._require_data()
        return self.running_sq_dev / self.count

    def empirical_min(self) -> float:
        self._require_data()
        return self._sorted[0]

    def empirical_cvar(self, alpha: float) -> float:
        """Mean of the lowest ``max(1, ceil(alpha * count))`` observed rewards."""
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self._require_data()
        k = tail_count(self.count, alpha)
        total = 0.0
        for r in self._sorted[:k]:
            total += r
        return total / k

    def mv_value(self, rho: float) -> float:
        """Variance minus ``rho`` times the mean; lower is a better risk trade-off."""
        self._require_data()
        return self.empirical_variance() - rho * self.empirical_mean()

    def __repr__(self) -> str:
        return f"ArmStats(count={self.count}, sum={self.running_sum:.6g})"
