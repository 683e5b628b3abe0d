"""Lockstep episode loops: every lane of a call plays the same round together.

Each kernel plays one policy against a pre-drawn reward array ``rewards`` of
shape ``(rows, k, horizon)``: entry ``[row, i, u]`` is the reward table row
``row`` would be handed on the ``u``-th pull of arm ``i``.  Drawing the
rewards up front keeps the kernels free of RNG state, and one array serves
every policy and every sweep cell of a batch, so they are compared on
identical rewards.

A call plays every table row as one *lane*; the rows may stack the runs of
several problem instances, which the kernels need not know.
:func:`episode_marab` can also play several sweep cells of one tail schedule
in one call: its ``c`` is then a sequence, one value per cell, and lane
``cell * rows + row`` plays table row ``row`` with its cell's ``c``, read
through an offset in one flat gather, never copied.
:func:`riskbandit.harness.pack` decides how many instances (within
:data:`riskbandit.harness.STACK_FLOATS`), and
:func:`riskbandit.harness.sweep_calls` which cells, share a call.  Kernels
return ``(chosen, reward_seq)``, both of shape ``(lanes, horizon)``: in the
1-based round ``t`` lane ``l`` pulled arm ``chosen[l, t-1]`` and observed
``reward_seq[l, t-1]``.

Per-arm statistics live in ``(lanes, k)`` arrays.  Each round computes every
lane's and every arm's index in one elementwise array expression, picks each
lane's arm with ``argmax`` / ``argmin`` along ``axis=1`` (whose
first-extremum rule is the lowest-index tie-break of
:func:`riskbandit.policies.select_arm`), and fetches every lane's reward
with one flat fancy index.  The arithmetic mirrors
:mod:`riskbandit.estimators` and :mod:`riskbandit.policies` operation for
operation (``math.log`` of the round, of ``1/delta`` and of every tail size,
the same running-sum means, the same guarded ceil, tail sums added left to
right), and elementwise float64 operations round exactly as their scalar
counterparts, so every lane reproduces the object-layer episode on its own
rewards bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from ._util import CEIL_EPS


def tail_sizes(alpha: float, horizon: int) -> np.ndarray:
    """MaRaB's tail size after ``n`` pulls (or at round ``n``), for ``n = 0..horizon``.

    The ``ArmStats`` guarded ceil, ``max(1, ceil(alpha * n))``; its last
    entry is the longest tail a ``horizon``-round episode can hold.
    """
    return np.maximum(1, np.ceil(alpha * np.arange(horizon + 1) - CEIL_EPS).astype(np.int64))


def buffer_width(alpha: float, horizon: int) -> int:
    """Floats of MaRaB's sorted buffer per ``(lane, arm)``: ``L + 1``.

    With ``alpha * horizon <= 1`` every tail is the single lowest reward
    (MaRaB's MIN limit), so no buffer is kept and the width is 0.
    """
    L = int(tail_sizes(alpha, horizon)[-1])
    return 0 if L == 1 else L + 1


class _Lockstep:
    """Shared state of one call: pull counts and the per-round records of every lane."""

    def __init__(self, rewards, cells=1):
        self.runs, self.k, self.horizon = rewards.shape
        self.lanes = cells * self.runs
        self.flat = rewards.reshape(-1)
        self.counts = np.zeros((self.lanes, self.k), dtype=np.int64)
        self.flat_counts = self.counts.reshape(-1)
        self.arm0 = np.arange(self.lanes) * self.k  # flat (lane, arm) index of arm 0
        # flat (run, arm) index of arm 0 in the lane's table; with one cell
        # lane r is run r, so the (lane, arm) index serves
        self.table_arm0 = None if cells == 1 else np.tile(np.arange(self.runs) * self.k, cells)
        self.chosen = np.empty((self.lanes, self.horizon), dtype=np.int64)
        self.reward_seq = np.empty((self.lanes, self.horizon), dtype=np.float64)

    def pull(self, t, a):
        """Round ``t``: lane ``l`` pulls arm ``a[l]`` (or every lane pulls arm ``a``).

        Returns the flat ``(lane, arm)`` indices, the pull counts before this
        pull, and the rewards.
        """
        ia = self.arm0 + a
        cnt = self.flat_counts[ia]
        self.flat_counts[ia] = cnt + 1
        table_ia = ia if self.table_arm0 is None else self.table_arm0 + a
        x = self.flat[table_ia * self.horizon + cnt]
        self.chosen[:, t - 1] = a
        self.reward_seq[:, t - 1] = x
        return ia, cnt, x


def _welford(run_sum, m2, ia, cnt, x):
    # the ArmStats.update order: previous mean, sum, count, then the deviation;
    # the first pulls follow the same round robin in every lane, so a pulled
    # arm's count is 0 in every lane or in none
    prev_sum = run_sum[ia]
    prev_mean = prev_sum / cnt if cnt[0] > 0 else 0.0
    total = prev_sum + x
    run_sum[ia] = total
    m2[ia] += (x - prev_mean) * (x - total / (cnt + 1))


def episode_ucb(rewards, c):
    b = _Lockstep(rewards)
    run_sum = np.zeros((b.lanes, b.k))
    flat_sum = run_sum.reshape(-1)
    for t in range(1, b.horizon + 1):
        if t <= b.k:
            a = t - 1
        else:
            a = (run_sum / b.counts + c * np.sqrt(math.log(t) / b.counts)).argmax(axis=1)
        ia, _, x = b.pull(t, a)
        flat_sum[ia] += x
    return b.chosen, b.reward_seq


def episode_min(rewards):
    return _min_loop(_Lockstep(rewards))


def _min_loop(b):
    # MIN's rounds on call ``b``; MaRaB's MIN limit plays them without calling episode_min
    mins = np.full((b.lanes, b.k), 2.0)
    flat_mins = mins.reshape(-1)
    for t in range(1, b.horizon + 1):
        a = t - 1 if t <= b.k else mins.argmax(axis=1)
        ia, _, x = b.pull(t, a)
        flat_mins[ia] = np.minimum(flat_mins[ia], x)
    return b.chosen, b.reward_seq


def episode_marab(rewards, c, alpha):
    """``c`` is a scalar (one cell) or one value per cell; every cell plays ``alpha``."""
    c = np.atleast_1d(c)
    width = buffer_width(alpha, rewards.shape[2])
    if not width:
        # every tail is the lowest reward and log 1 = 0 zeroes the exploration
        # term for any c: the rows play MIN once, and every cell repeats it
        chosen, reward_seq = _min_loop(_Lockstep(rewards))
        return np.tile(chosen, (len(c), 1)), np.tile(reward_seq, (len(c), 1))
    b = _Lockstep(rewards, len(c))
    # c as a (lanes, 1) column; with one cell a float, which numpy multiplies
    # faster than a broadcast column
    c = float(c[0]) if len(c) == 1 else np.repeat(c.astype(np.float64), b.runs)[:, None]
    # only the pulled arm's tail changes, so each arm's tail size and tail mean
    # are kept and refreshed after its pulls rather than rebuilt every round
    n_alpha = np.ones((b.lanes, b.k), dtype=np.int64)
    tail_mean = np.zeros((b.lanes, b.k))
    flat_n_alpha, flat_tail_mean = n_alpha.reshape(-1), tail_mean.reshape(-1)
    n_tail = tail_sizes(alpha, b.horizon)
    log_tail = list(map(math.log, n_tail.tolist()))
    # tail size after a pull at each pull count
    n_next = n_tail[1:]
    # no tail ever holds more than L = width - 1 rewards, so each (lane, arm)
    # keeps only its L lowest, sorted and padded with inf; column L takes the
    # reward a full row pushes out
    low = np.full((b.lanes * b.k, width), np.inf)
    rr = np.arange(b.lanes)
    for t in range(1, b.horizon + 1):
        if t <= b.k:
            a = t - 1
        else:
            a = (tail_mean - c * np.sqrt(log_tail[t] / n_alpha)).argmax(axis=1)
        ia, cnt, x = b.pull(t, a)
        # past the longest kept row everything is inf and stays inf
        # (a list max is faster than numpy's on a few lanes)
        most = max(cnt.tolist())
        kept = min(most, width - 1)
        rows = low[ia, : kept + 1]
        # a stable sort puts the reward after its equals, like bisect.insort
        rows[:, kept] = x
        rows.sort(axis=1, kind="stable")
        low[ia, : kept + 1] = rows
        na = n_next[cnt]
        flat_n_alpha[ia] = na
        # cumsum adds left to right, the order ArmStats.empirical_cvar uses;
        # tail sizes grow with the pull count, so the largest is the most
        # pulled arm's
        sums = rows[:, : n_next[most]].cumsum(axis=1)
        flat_tail_mean[ia] = sums[rr, na - 1] / na
    return b.chosen, b.reward_seq


def episode_mvlcb(rewards, rho, delta):
    b = _Lockstep(rewards)
    run_sum = np.zeros((b.lanes, b.k))
    m2 = np.zeros((b.lanes, b.k))
    flat_sum, flat_m2 = run_sum.reshape(-1), m2.reshape(-1)
    log_inv_delta = math.log(1.0 / delta)
    for t in range(1, b.horizon + 1):
        if t <= b.k:
            a = t - 1
        else:
            width = (5.0 + rho) * np.sqrt(log_inv_delta / (2.0 * b.counts))
            a = (m2 / b.counts - rho * (run_sum / b.counts) - width).argmin(axis=1)
        ia, cnt, x = b.pull(t, a)
        _welford(flat_sum, flat_m2, ia, cnt, x)
    return b.chosen, b.reward_seq


def episode_expexp(rewards, rho, tau):
    b = _Lockstep(rewards)
    run_sum = np.zeros((b.lanes, b.k))
    m2 = np.zeros((b.lanes, b.k))
    flat_sum, flat_m2 = run_sum.reshape(-1), m2.reshape(-1)
    for t in range(1, b.horizon + 1):
        # until the commit every run pulls the same arms, so counts agree across runs
        if t <= tau:
            a = (t - 1) % b.k
        elif b.counts.min() == 0:  # tau < k: finish initialisation first
            a = int(b.counts[0].argmin())
        else:
            # commit for good: the rest of the episode is the arm's next pulls
            a = (m2 / b.counts - rho * (run_sum / b.counts)).argmin(axis=1)
            rr = np.arange(b.runs)[:, None]
            u = b.counts[rr, a[:, None]] + np.arange(b.horizon - t + 1)
            b.chosen[:, t - 1 :] = a[:, None]
            b.reward_seq[:, t - 1 :] = rewards[rr, a[:, None], u]
            break
        ia, cnt, x = b.pull(t, a)
        _welford(flat_sum, flat_m2, ia, cnt, x)
    return b.chosen, b.reward_seq
