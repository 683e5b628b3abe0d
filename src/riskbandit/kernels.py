"""Array-indexed episode loops.

Each kernel plays one full episode of one policy against a pre-drawn reward
table ``rewards`` of shape ``(k, horizon)``: entry ``[i, u]`` is the reward
the environment would hand out on the ``u``-th pull of arm ``i``.  Drawing
the table up front keeps the kernels free of RNG state and makes episodes
with a shared table directly comparable across policies.

Kernels return ``(chosen, reward_seq)``: the 1-based round ``t`` pulled arm
``chosen[t-1]`` and observed ``reward_seq[t-1]``.

Per-arm statistics live in length-``k`` arrays.  Each round computes every
arm's index in one elementwise array expression and picks the arm with
``np.argmax`` / ``np.argmin``, whose first-extremum rule is the lowest-index
tie-break of :func:`riskbandit.policies.select_arm`.  The arithmetic mirrors
:mod:`riskbandit.estimators` and :mod:`riskbandit.policies` operation for
operation (same summation order, same running-sum means, same guarded ceil),
and elementwise float64 operations round exactly as their scalar
counterparts, so a kernel episode reproduces the object-layer episode bit
for bit.
"""

from __future__ import annotations

import math

import numpy as np

from ._util import CEIL_EPS


def _insert_sorted(buf, n, x):
    # insertion point after any equal values, like bisect.insort
    lo = np.searchsorted(buf[:n], x, side="right")
    buf[lo + 1 : n + 1] = buf[lo:n]  # numpy buffers the overlapping shift
    buf[lo] = x


def _welford(counts, run_sum, m2, a, x):
    # the ArmStats.update order: previous mean, sum, count, then the deviation
    cnt = counts[a]
    prev_mean = run_sum[a] / cnt if cnt > 0 else 0.0
    run_sum[a] += x
    counts[a] = cnt + 1
    m2[a] += (x - prev_mean) * (x - run_sum[a] / (cnt + 1))


def episode_ucb(rewards, c):
    k, horizon = rewards.shape
    chosen = np.empty(horizon, dtype=np.int64)
    reward_seq = np.empty(horizon, dtype=np.float64)
    counts = np.zeros(k, dtype=np.int64)
    run_sum = np.zeros(k, dtype=np.float64)
    for t in range(1, horizon + 1):
        if t <= k:
            a = t - 1
        else:
            a = np.argmax(run_sum / counts + c * np.sqrt(math.log(t) / counts))
        x = rewards[a, counts[a]]
        run_sum[a] += x
        counts[a] += 1
        chosen[t - 1] = a
        reward_seq[t - 1] = x
    return chosen, reward_seq


def episode_min(rewards):
    k, horizon = rewards.shape
    chosen = np.empty(horizon, dtype=np.int64)
    reward_seq = np.empty(horizon, dtype=np.float64)
    counts = np.zeros(k, dtype=np.int64)
    mins = np.full(k, 2.0)
    for t in range(1, horizon + 1):
        a = t - 1 if t <= k else np.argmax(mins)
        x = rewards[a, counts[a]]
        if x < mins[a]:
            mins[a] = x
        counts[a] += 1
        chosen[t - 1] = a
        reward_seq[t - 1] = x
    return chosen, reward_seq


def episode_marab(rewards, c, alpha):
    k, horizon = rewards.shape
    chosen = np.empty(horizon, dtype=np.int64)
    reward_seq = np.empty(horizon, dtype=np.float64)
    counts = np.zeros(k, dtype=np.int64)
    hist = np.empty((k, horizon), dtype=np.float64)  # per-arm sorted rewards
    # only the pulled arm's tail changes, so each arm's tail size and tail mean
    # are kept and refreshed after its pulls rather than rebuilt every round
    n_alpha = np.ones(k, dtype=np.int64)
    tail_mean = np.zeros(k, dtype=np.float64)
    for t in range(1, horizon + 1):
        if t <= k:
            a = t - 1
        else:
            tail_t = max(1, int(math.ceil(t * alpha - CEIL_EPS)))
            a = np.argmax(tail_mean - c * np.sqrt(math.log(tail_t) / n_alpha))
        x = rewards[a, counts[a]]
        _insert_sorted(hist[a], counts[a], x)
        counts[a] += 1
        na = max(1, int(math.ceil(alpha * counts[a] - CEIL_EPS)))
        n_alpha[a] = na
        # cumsum adds left to right, the order ArmStats.empirical_cvar uses
        tail_mean[a] = np.cumsum(hist[a, :na])[-1] / na
        chosen[t - 1] = a
        reward_seq[t - 1] = x
    return chosen, reward_seq


def episode_mvlcb(rewards, rho, delta):
    k, horizon = rewards.shape
    chosen = np.empty(horizon, dtype=np.int64)
    reward_seq = np.empty(horizon, dtype=np.float64)
    counts = np.zeros(k, dtype=np.int64)
    run_sum = np.zeros(k, dtype=np.float64)
    m2 = np.zeros(k, dtype=np.float64)
    log_inv_delta = math.log(1.0 / delta)
    for t in range(1, horizon + 1):
        if t <= k:
            a = t - 1
        else:
            width = (5.0 + rho) * np.sqrt(log_inv_delta / (2.0 * counts))
            a = np.argmin(m2 / counts - rho * (run_sum / counts) - width)
        x = rewards[a, counts[a]]
        _welford(counts, run_sum, m2, a, x)
        chosen[t - 1] = a
        reward_seq[t - 1] = x
    return chosen, reward_seq


def episode_expexp(rewards, rho, tau):
    k, horizon = rewards.shape
    chosen = np.empty(horizon, dtype=np.int64)
    reward_seq = np.empty(horizon, dtype=np.float64)
    counts = np.zeros(k, dtype=np.int64)
    run_sum = np.zeros(k, dtype=np.float64)
    m2 = np.zeros(k, dtype=np.float64)
    for t in range(1, horizon + 1):
        if t <= tau:
            a = (t - 1) % k
        elif counts.min() == 0:  # tau < k: finish initialisation first
            a = np.argmin(counts)
        else:
            # commit for good: the rest of the episode is the arm's next pulls
            a = np.argmin(m2 / counts - rho * (run_sum / counts))
            chosen[t - 1 :] = a
            reward_seq[t - 1 :] = rewards[a, counts[a] : counts[a] + horizon - t + 1]
            break
        x = rewards[a, counts[a]]
        _welford(counts, run_sum, m2, a, x)
        chosen[t - 1] = a
        reward_seq[t - 1] = x
    return chosen, reward_seq
