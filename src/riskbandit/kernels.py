"""Lockstep episode loops: every run of a batch plays the same round together.

Each kernel plays one policy against a pre-drawn reward array ``rewards`` of
shape ``(runs, k, horizon)``: entry ``[r, i, u]`` is the reward run ``r``
would be handed on the ``u``-th pull of arm ``i``.  Drawing the rewards up
front keeps the kernels free of RNG state, and one array serves every
policy of a batch, so policies are compared on identical rewards.

Kernels return ``(chosen, reward_seq)``, both of shape ``(runs, horizon)``:
in the 1-based round ``t`` run ``r`` pulled arm ``chosen[r, t-1]`` and
observed ``reward_seq[r, t-1]``.

Per-arm statistics live in ``(runs, k)`` arrays.  Each round computes every
run's and every arm's index in one elementwise array expression, picks each
run's arm with ``np.argmax`` / ``np.argmin`` along ``axis=1`` (whose
first-extremum rule is the lowest-index tie-break of
:func:`riskbandit.policies.select_arm`), and fetches every run's reward with
one flat fancy index.  The arithmetic mirrors :mod:`riskbandit.estimators`
and :mod:`riskbandit.policies` operation for operation (scalar ``math.log``
of the round, the same running-sum means, the same guarded ceil, tail sums
added left to right), and elementwise float64 operations round exactly as
their scalar counterparts, so every run reproduces the object-layer episode
on its own rewards bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from ._util import CEIL_EPS


class _Lockstep:
    """Shared state of one batch: pull counts and the per-round records."""

    def __init__(self, rewards):
        self.runs, self.k, self.horizon = rewards.shape
        self.flat = rewards.reshape(-1)
        self.counts = np.zeros((self.runs, self.k), dtype=np.int64)
        self.flat_counts = self.counts.reshape(-1)
        self.arm0 = np.arange(self.runs) * self.k  # flat (run, arm) index of arm 0
        self.chosen = np.empty((self.runs, self.horizon), dtype=np.int64)
        self.reward_seq = np.empty((self.runs, self.horizon), dtype=np.float64)

    def pull(self, t, a):
        """Round ``t``: run ``r`` pulls arm ``a[r]`` (or every run pulls arm ``a``).

        Returns the flat ``(run, arm)`` indices, the pull counts before this
        pull, and the rewards.
        """
        ia = self.arm0 + a
        cnt = self.flat_counts[ia]
        self.flat_counts[ia] = cnt + 1
        x = self.flat[ia * self.horizon + cnt]
        self.chosen[:, t - 1] = a
        self.reward_seq[:, t - 1] = x
        return ia, cnt, x


def _welford(run_sum, m2, ia, cnt, x):
    # the ArmStats.update order: previous mean, sum, count, then the deviation;
    # the first pulls follow the same round robin in every run, so a pulled
    # arm's count is 0 in every run or in none
    prev_sum = run_sum[ia]
    prev_mean = prev_sum / cnt if cnt[0] > 0 else 0.0
    total = prev_sum + x
    run_sum[ia] = total
    m2[ia] += (x - prev_mean) * (x - total / (cnt + 1))


def episode_ucb(rewards, c):
    b = _Lockstep(rewards)
    run_sum = np.zeros((b.runs, b.k))
    flat_sum = run_sum.reshape(-1)
    for t in range(1, b.horizon + 1):
        if t <= b.k:
            a = t - 1
        else:
            a = np.argmax(run_sum / b.counts + c * np.sqrt(math.log(t) / b.counts), axis=1)
        ia, _, x = b.pull(t, a)
        flat_sum[ia] += x
    return b.chosen, b.reward_seq


def episode_min(rewards):
    b = _Lockstep(rewards)
    mins = np.full((b.runs, b.k), 2.0)
    flat_mins = mins.reshape(-1)
    for t in range(1, b.horizon + 1):
        a = t - 1 if t <= b.k else np.argmax(mins, axis=1)
        ia, _, x = b.pull(t, a)
        flat_mins[ia] = np.minimum(flat_mins[ia], x)
    return b.chosen, b.reward_seq


def episode_marab(rewards, c, alpha):
    b = _Lockstep(rewards)
    # tail size after n pulls (or at round n), for every n, by the ArmStats guarded ceil
    n_tail = np.maximum(1, np.ceil(alpha * np.arange(b.horizon + 1) - CEIL_EPS).astype(np.int64))
    # no tail ever holds more than L rewards, so each (run, arm) keeps only
    # its L lowest, sorted and padded with inf; column L takes the reward a
    # full row pushes out
    L = int(n_tail[-1])
    low = np.full((b.runs * b.k, L + 1), np.inf)
    rr = np.arange(b.runs)
    # only the pulled arm's tail changes, so each arm's tail size and tail mean
    # are kept and refreshed after its pulls rather than rebuilt every round
    n_alpha = np.ones((b.runs, b.k), dtype=np.int64)
    tail_mean = np.zeros((b.runs, b.k))
    flat_n_alpha, flat_tail_mean = n_alpha.reshape(-1), tail_mean.reshape(-1)
    for t in range(1, b.horizon + 1):
        if t <= b.k:
            a = t - 1
        else:
            a = np.argmax(tail_mean - c * np.sqrt(math.log(n_tail[t]) / n_alpha), axis=1)
        ia, cnt, x = b.pull(t, a)
        # past the longest kept row everything is inf and stays inf
        kept = min(int(cnt.max()), L)
        rows = low[ia, : kept + 1]
        # a stable sort puts the reward after its equals, like bisect.insort
        rows[:, kept] = x
        rows.sort(axis=1, kind="stable")
        low[ia, : kept + 1] = rows
        na = n_tail[cnt + 1]
        flat_n_alpha[ia] = na
        # cumsum adds left to right, the order ArmStats.empirical_cvar uses
        flat_tail_mean[ia] = np.cumsum(rows[:, : na.max()], axis=1)[rr, na - 1] / na
    return b.chosen, b.reward_seq


def episode_mvlcb(rewards, rho, delta):
    b = _Lockstep(rewards)
    run_sum = np.zeros((b.runs, b.k))
    m2 = np.zeros((b.runs, b.k))
    flat_sum, flat_m2 = run_sum.reshape(-1), m2.reshape(-1)
    log_inv_delta = math.log(1.0 / delta)
    for t in range(1, b.horizon + 1):
        if t <= b.k:
            a = t - 1
        else:
            width = (5.0 + rho) * np.sqrt(log_inv_delta / (2.0 * b.counts))
            a = np.argmin(m2 / b.counts - rho * (run_sum / b.counts) - width, axis=1)
        ia, cnt, x = b.pull(t, a)
        _welford(flat_sum, flat_m2, ia, cnt, x)
    return b.chosen, b.reward_seq


def episode_expexp(rewards, rho, tau):
    b = _Lockstep(rewards)
    run_sum = np.zeros((b.runs, b.k))
    m2 = np.zeros((b.runs, b.k))
    flat_sum, flat_m2 = run_sum.reshape(-1), m2.reshape(-1)
    for t in range(1, b.horizon + 1):
        # until the commit every run pulls the same arms, so counts agree across runs
        if t <= tau:
            a = (t - 1) % b.k
        elif b.counts.min() == 0:  # tau < k: finish initialisation first
            a = int(np.argmin(b.counts[0]))
        else:
            # commit for good: the rest of the episode is the arm's next pulls
            a = np.argmin(m2 / b.counts - rho * (run_sum / b.counts), axis=1)
            rr = np.arange(b.runs)[:, None]
            u = b.counts[rr, a[:, None]] + np.arange(b.horizon - t + 1)
            b.chosen[:, t - 1 :] = a[:, None]
            b.reward_seq[:, t - 1 :] = rewards[rr, a[:, None], u]
            break
        ia, cnt, x = b.pull(t, a)
        _welford(flat_sum, flat_m2, ia, cnt, x)
    return b.chosen, b.reward_seq
