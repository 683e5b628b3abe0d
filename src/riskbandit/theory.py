"""Closed-form regret bounds and Monte Carlo checks of the tail inequalities.

The max-min policy's analysis rests on one concentration fact: when an arm's
density is bounded below by ``A`` just above its essential infimum ``a``, the
probability that the lowest of ``t`` draws still sits ``epsilon`` or more
above ``a`` decays like ``exp(-t * A * epsilon)``.  :func:`min_tail_check`
verifies that inequality empirically for one arm, :func:`min_tail_check_any`
for the union event over a problem's arms (bound ``K`` times larger).

From the same fact follow two regret bounds for the max-min policy,
evaluated here as plain formulas:

* :func:`min_regret_bound` -- the general case, carrying the ratio of the
  largest mean gap to the smallest infimum gap;
* :func:`min_regret_bound_aligned` -- the sharper form available when every
  arm's mean gap is at most its infimum gap (checked on concrete problems by
  :func:`margin_assumption_check`), which drops the ratio.

Both return a high-probability bound (valid with probability ``1 - delta``)
and, when the stated side condition on ``t`` holds, a bound in expectation;
otherwise the expectation field is ``None`` and ``note`` says why.
:func:`ucb_regret_bound` gives the classical logarithmic bound for UCB for
comparison.  All evaluators are pure and deterministic, and raise a
``ValueError`` naming the inputs of any term their values put out of the
float range, rather than return an infinite bound.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .distributions import UniformSegment, sample_many
from .generators import BanditProblem

_CHUNK_DRAWS = 4_000_000
_TOL = 1e-12


# ---------------------------------------------------------------------------
# Monte Carlo tail checks


@dataclass(frozen=True)
class LemmaCheck:
    """Outcome of one Monte Carlo tail check."""

    empirical_prob: float
    bound: float
    std_error: float
    passed: bool  # empirical <= bound + 3 standard errors


def check_tail_args(t: int, epsilon: float, trials: int) -> None:
    """Reject arguments the tail checks cannot use.  Each message starts with
    the argument's name."""
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if not 0.0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")


def min_tail_check(
    spec: UniformSegment, t: int, epsilon: float, trials: int, rng: np.random.Generator
) -> LemmaCheck:
    """Check ``P(min of t draws >= a + epsilon) <= exp(-t * A * epsilon)``.

    Only uniform segments carry a known density floor ``A = 1 / (2 radius)``.
    The pass flag allows three binomial standard errors of slack on the
    Monte Carlo side.  ``t = 0`` is the empty-sample convention: the event
    holds vacuously and the bound is 1.
    """
    if not isinstance(spec, UniformSegment):
        raise ValueError(
            f"density floor unknown for {type(spec).__name__}; need a uniform segment"
        )
    check_tail_args(t, epsilon, trials)
    return _tail_check([spec], [spec.low], 1.0 / (2.0 * spec.radius), t, epsilon, trials, rng)


def min_tail_check_any(
    problem: BanditProblem, t: int, epsilon: float, trials: int, rng: np.random.Generator
) -> LemmaCheck:
    """Union version over all arms of a problem; bound ``K * exp(-t * A * epsilon)``.

    The event is "some arm's ``t``-sample minimum sits ``epsilon`` above that
    arm's infimum".  Streams are consumed arm by arm (arm 0 first), chunked
    over trials within each arm.  The package only calls this on uniform
    arms.  A mixture arm's sample stops drawing at the chunk of attempts
    that fills it (see :func:`~riskbandit.distributions.sample_many`), so
    on a problem with mixture arms the draws after the first mixture chunk
    differ from releases that drew whole attempt blocks.
    """
    if problem.lower_bound_A is None:
        raise ValueError("problem has no density floor; the union tail bound needs one")
    check_tail_args(t, epsilon, trials)
    return _tail_check(
        problem.arms, problem.infima, problem.lower_bound_A, t, epsilon, trials, rng
    )


def _tail_check(arms, infima, density_floor, t, epsilon, trials, rng) -> LemmaCheck:
    """The union check over ``arms``; over one arm it is the single-arm check."""
    if t == 0:
        return LemmaCheck(empirical_prob=1.0, bound=float(len(arms)), std_error=0.0, passed=True)
    bound = len(arms) * math.exp(-t * density_floor * epsilon)
    hit = np.zeros(trials, dtype=bool)
    per_chunk = max(1, _CHUNK_DRAWS // t)
    for spec, infimum in zip(arms, infima):
        cutoff = infimum + epsilon
        done = 0
        while done < trials:
            n = min(per_chunk, trials - done)
            mins = sample_many(spec, rng, n * t).reshape(n, t).min(axis=1)
            hit[done : done + n] |= mins >= cutoff
            done += n
    p = int(np.count_nonzero(hit)) / trials
    se = math.sqrt(p * (1.0 - p) / trials)
    return LemmaCheck(empirical_prob=p, bound=bound, std_error=se, passed=p <= bound + 3.0 * se)


# ---------------------------------------------------------------------------
# closed-form bounds


@dataclass(frozen=True)
class BoundInputs:
    """Scalar inputs to the regret bound evaluators.

    ``density_floor`` is the uniform lower bound on arm densities near their
    infima; ``max_mean_gap`` and ``min_infimum_gap`` describe the gap
    structure against the best arm.  ``mean_gaps`` (suboptimal arms' mean
    gaps) only feeds the UCB bound.  ``n_optimal`` counts optimal arms; each
    ``K - 1`` prefactor in the bounds becomes ``K - n_optimal``.
    """

    n_arms: int
    density_floor: float
    max_mean_gap: float
    min_infimum_gap: float
    t: int
    delta: float
    mean_gaps: Optional[tuple[float, ...]] = None
    n_optimal: int = 1

    def __post_init__(self) -> None:
        for name in ("n_arms", "t", "n_optimal"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n_arms < 1:
            raise ValueError(f"n_arms must be >= 1, got {self.n_arms}")
        for name in ("density_floor", "max_mean_gap", "min_infimum_gap", "delta"):
            value = getattr(self, name)
            is_number = isinstance(value, (int, float)) and not isinstance(value, bool)
            # compares exactly, where math.isfinite overflows on a large int
            if not (is_number and abs(value) <= sys.float_info.max):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if self.mean_gaps is not None and not all(0.0 <= g < math.inf for g in self.mean_gaps):
            raise ValueError(f"mean_gaps must be non-negative and finite, got {self.mean_gaps}")
        if not self.density_floor > 0.0:
            raise ValueError(f"density_floor must be positive, got {self.density_floor}")
        if self.max_mean_gap < 0.0:
            raise ValueError(f"max_mean_gap must be non-negative, got {self.max_mean_gap}")
        if not self.min_infimum_gap > 0.0:
            raise ValueError(f"min_infimum_gap must be positive, got {self.min_infimum_gap}")
        if self.t < 1:
            raise ValueError(f"t must be >= 1, got {self.t}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if not 1 <= self.n_optimal <= self.n_arms:
            raise ValueError(
                f"n_optimal must be in [1, {self.n_arms}], got {self.n_optimal}"
            )

    @classmethod
    def from_problem(cls, problem: BanditProblem, t: int, delta: float) -> "BoundInputs":
        """Read the gap structure off a problem with a known density floor."""
        if problem.lower_bound_A is None:
            raise ValueError("problem has no density floor")
        sub = np.arange(problem.k) != problem.best_mean_arm
        min_inf_gap = float(problem.margins_min[sub].min())
        if min_inf_gap <= 0.0:
            raise ValueError(
                "some suboptimal arm matches or beats the best-mean arm's infimum; "
                "the max-min bounds do not apply"
            )
        return cls(
            n_arms=problem.k,
            density_floor=float(problem.lower_bound_A),
            max_mean_gap=float(problem.margins_mean.max()),
            min_infimum_gap=min_inf_gap,
            t=t,
            delta=delta,
            mean_gaps=tuple(float(g) for g in problem.margins_mean[sub]),
        )


@dataclass(frozen=True)
class BoundResult:
    """A high-probability regret bound and, when available, one in expectation."""

    high_prob: float
    expectation: Optional[float]
    note: Optional[str] = None


def min_regret_bound(inputs: BoundInputs) -> BoundResult:
    """General regret bound for the max-min policy.

    High-probability form (confidence ``1 - delta``)::

        (m / A) * (gap_ratio) * log(t * K / delta) + m * max_mean_gap

    with ``m = K - n_optimal`` and ``gap_ratio = max_mean_gap /
    min_infimum_gap``.  The expectation form needs
    ``t >= (m / A) * (min_infimum_gap / max_mean_gap)``.
    """
    m = inputs.n_arms - inputs.n_optimal
    if m == 0:
        return BoundResult(high_prob=0.0, expectation=0.0)
    if inputs.max_mean_gap == 0.0:
        # every arm is mean-optimal: nothing to regret
        return BoundResult(high_prob=0.0, expectation=0.0)
    a_floor = inputs.density_floor
    ratio = _finite("max_mean_gap / min_infimum_gap", lambda: inputs.max_mean_gap / inputs.min_infimum_gap)
    scale = _finite("(n_arms - n_optimal) / density_floor", lambda: m / a_floor)
    lead = _finite("(n_arms - n_optimal) / density_floor * max_mean_gap / min_infimum_gap", lambda: scale * ratio)
    linear = _finite("(n_arms - n_optimal) * max_mean_gap", lambda: m * inputs.max_mean_gap)
    log_confidence = _log_confidence(inputs)
    high = _finite("the high-probability bound", lambda: lead * log_confidence + linear)
    t_min = (m / a_floor) * (inputs.min_infimum_gap / inputs.max_mean_gap)
    if inputs.t < t_min:
        return BoundResult(
            high_prob=high,
            expectation=None,
            note=f"expectation form needs t >= {t_min:.6g}, got t={inputs.t}",
        )
    log_inner = _finite(
        "log(t**2 * n_arms * density_floor * min_infimum_gap / ((n_arms - n_optimal) * max_mean_gap))",
        lambda: math.log(
            inputs.t**2
            * inputs.n_arms
            * a_floor
            * inputs.min_infimum_gap
            / (m * inputs.max_mean_gap)
        ),
    )
    expect = _finite("the bound in expectation", lambda: lead * (log_inner + 1.0) + linear)
    return BoundResult(high_prob=high, expectation=expect)


def min_regret_bound_aligned(inputs: BoundInputs) -> BoundResult:
    """Sharper max-min bound when every mean gap is at most its infimum gap.

    The caller asserts that alignment (see :func:`margin_assumption_check`);
    the gap ratio then drops out::

        (m / A) * log(t * K / delta) + m * max_mean_gap

    The expectation form needs ``t > m / A``.
    """
    m = inputs.n_arms - inputs.n_optimal
    if m == 0:
        return BoundResult(high_prob=0.0, expectation=0.0)
    a_floor = inputs.density_floor
    t_min = _finite("(n_arms - n_optimal) / density_floor", lambda: m / a_floor)
    linear = _finite("(n_arms - n_optimal) * max_mean_gap", lambda: m * inputs.max_mean_gap)
    log_confidence = _log_confidence(inputs)
    high = _finite("the high-probability bound", lambda: t_min * log_confidence + linear)
    if not inputs.t > t_min:
        return BoundResult(
            high_prob=high,
            expectation=None,
            note=f"expectation form needs t > {t_min:.6g}, got t={inputs.t}",
        )
    log_inner = _finite(
        "log(t**2 * n_arms * density_floor / (n_arms - n_optimal))",
        lambda: math.log(inputs.t**2 * inputs.n_arms * a_floor / m),
    )
    expect = _finite("the bound in expectation", lambda: t_min * (log_inner + 1.0) + linear)
    return BoundResult(high_prob=high, expectation=expect)


def _log_confidence(inputs: BoundInputs) -> float:
    """``log(t * K / delta)``, the log term of both max-min bounds."""
    return _finite("log(t * n_arms / delta)", lambda: math.log(inputs.t * inputs.n_arms / inputs.delta))


def _finite(term: str, compute: Callable[[], float]) -> float:
    """``compute()``, the value of ``term``; a ``ValueError`` naming ``term``
    if its inputs put it out of the float range: an int too large for a
    float, a result that overflows, or a log of a product that underflows."""
    try:
        value = compute()
    except (OverflowError, ValueError):
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"{term} is out of float range")
    return value


def ucb_regret_bound(mean_gaps: Sequence[float], t: int) -> float:
    """Classical logarithmic UCB regret bound.

    ``8 * sum(log t / gap)`` over strictly positive gaps plus
    ``(1 + pi^2 / 3) * sum(gaps)``.  Pass the suboptimal arms' mean gaps;
    zero gaps (extra optimal arms) are legal and only feed the linear term.
    """
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    gaps = [float(g) for g in mean_gaps]
    if any(g < 0.0 for g in gaps):
        raise ValueError("mean gaps must be non-negative")
    log_t = math.log(t)
    log_term = _finite("log(t) / mean_gaps", lambda: 8.0 * sum(log_t / g for g in gaps if g > 0.0))
    return _finite("the UCB bound", lambda: log_term + (1.0 + math.pi**2 / 3.0) * sum(gaps))


@dataclass(frozen=True)
class MarginCheck:
    """Which hypotheses of the max-min analysis a concrete problem satisfies."""

    best_arm_coincide: bool  # the best-mean arm also has the best infimum
    aligned_margins_hold: bool  # every mean gap <= its infimum gap
    density_floor: Optional[float]


def margin_assumption_check(problem: BanditProblem) -> MarginCheck:
    """Test the two structural hypotheses behind the max-min regret bounds."""
    coincide = bool(problem.a_star >= problem.infima.max() - _TOL)
    aligned = bool(np.all(problem.margins_mean <= problem.margins_min + _TOL))
    return MarginCheck(
        best_arm_coincide=coincide,
        aligned_margins_hold=aligned,
        density_floor=problem.lower_bound_A,
    )
