"""Episode kernels: every lane of a call plays one episode on its own table row.

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
through an offset in one flat gather, never copied.  In MaRaB's MIN limit
(``alpha * horizon <= 1``) it equals :func:`episode_min`, which the harness
plays instead.  Kernels return ``(chosen, reward_seq)``, both of shape
``(lanes, horizon)``: in the 1-based round ``t`` lane ``l`` pulled arm
``chosen[l, t-1]`` and observed ``reward_seq[l, t-1]``.

Every index is an elementwise array expression whose first extremum along
the arm axis is the lowest-index tie-break of
:func:`riskbandit.policies.select_arm`.  The arithmetic mirrors
:mod:`riskbandit.estimators` and :mod:`riskbandit.policies` operation for
operation (``math.log`` of the round, of ``1/delta`` and of every tail size,
the same running-sum means, the same guarded ceil, tail sums added left to
right), and elementwise float64 operations round exactly as their scalar
counterparts, so every lane reproduces the object-layer episode on its own
rewards bit for bit.

Every kernel plays rounds ``1..k`` as a round robin, arm ``t - 1`` in round
``t``; three kinds play the rest, and ExpExp is computed directly.

**Lockstep** (UCB) plays every lane's round ``t`` together: UCB's index
reads the round through ``log t``.

**Merged** (MIN, MV-LCB).  These indices depend only on the arm's own pulls.
Arm ``a``'s key after ``n`` pulls, ``key(a, n)``, is MIN's ``-min(x_1..x_n)``
or MV-LCB's ``m2/n - rho*(S/n) - (5+rho)*sqrt(log(1/delta)/(2n))``
(:func:`_moments`), bit-equal to the index, negated for MIN.  Both pull the
arm of lowest current key, the lowest arm on ties.  With ``K(a, n)`` the
running maximum of ``key(a, 1..n)``, the entries ``(a, n)`` this greedy
rule pulls come in increasing order of ``(K(a, n), a, n)``, so its rounds
are the first ``horizon - k`` entries in that order:

* a pulled entry's ``K`` is ``M``, the largest key pulled up to its round:
  its arm's earlier keys were all pulled, and in the round that pulled
  ``M`` the arm's current key, one of its keys up to this entry, was at
  least ``M``;
* so ``K`` never falls from round to round, and of two pulls at one ``K =
  M`` the lower arm's comes first.  Had a higher arm's come first, then in
  the round it pulled its key ``M`` the lower arm's current key was at
  least ``M``, the key pulled, and at most ``M``, its own ``K``: a tie,
  which the lower arm wins.

MIN's keys never fall, so for MIN ``K = key``.  :func:`_merge` lays a
lane's ``K`` out arm-major, so that stable-sort order is ``(K, a, n)``
order; the entry of ``(a, n)`` reads the table entry after it, arm ``a``'s
next reward.

**Stepped** (MaRaB) gives each lane its own clock ``t``, the next round it
plays.  A MaRaB lane switches arm a few dozen times in thousands of rounds,
so a step advances every lane by a block of pulls of its current arm ``a``,
the argmax at its round ``t``.  While the lane pulls ``a``, every other
arm's index can only fall: ``c >= 0`` and the log of the tail size at round
``t`` never decreases.  That holds exactly in floats, because rounding is
monotone.  So ``a`` is still the argmax at round ``t + u`` if its own index
then reaches ``rival``, the best other index at round ``t``, taken one ulp
higher for the lower-index arms, which win ties.

With ``n_u`` the tail size after ``u`` more pulls of rewards ``x_1..x_u``,
``W_u`` the tail sum, and the kept row holding the arm's ``held`` lowest
rewards with prefix sums ``G``, a lower bound on ``W_u`` is

* ``G(n_1) - sum_i max(0, theta - x_i) + (n_u - n_1) * min(theta,
  min_i x_i)`` when the row holds ``n_1`` rewards, ``theta`` being its
  ``n_1``-th lowest: each reward below ``theta`` replaces a tail value of at
  most ``theta``, and the tail grows past ``n_1`` by values no lower than
  the ``n_1``-th lowest of all, itself at least ``min(theta, min_i x_i)``;
* ``G(held) + sum_i x_i - (held + u - n_u) * max(row max, max_i x_i)``
  otherwise: the tail is every reward but the ``held + u - n_u`` largest.

The lane commits its pulls up to the first ``u`` at which ``(W_u / n_u -
margin) - c * sqrt(log_tail[t + u] / n_u)`` falls below ``rival``, or its
whole block; the exploration term is computed exactly as round ``t + u``
computes it, and the next step decides round ``t + u`` exactly.

*The margin.*  Let ``A`` bound every reward's magnitude and ``N = L + cap``
every sum's length, ``u = 2**-53``.  A left-to-right sum of ``N`` terms of
magnitude at most ``2A`` errs by at most about ``N * u * 2NA``, so the
bound's few sums, products and differences err by at most about ``2N**2 u
A`` before the division by ``n_u``, and the kernel's own tail mean, a sum of
at most ``L`` rewards, by ``(L + 1) u A``.  ``margin = N**2 * 2**-50 * A``,
eight times ``N**2 u A``, covers both with room, plus the least normal
float for sums that underflow.  The kernel's tail mean is a float at or
above the exact bound minus that error, so the rounded bound, less the
exploration term, stays at or below the index the round computes.

After ``n`` pulls the kept row is one stable sort of the row and the ``n``
rewards, which puts each reward after its equals like ``bisect.insort``, and
its left-to-right ``cumsum`` gives the tail sum bit for bit.

*The arena.*  No tail holds more than ``L`` rewards, so each ``(lane, arm)``
keeps its ``held = min(pulls, L)`` lowest, sorted, in a *segment* of its
lane's *arena* of :func:`arena_size` floats.  When ``k * L`` fits in ``4 *
(horizon + k)`` floats every segment has room for ``L`` from the start and
never moves: the arena is one ``(lanes * k, L)`` array, padded with
``inf``, and a step reads and writes row ``ia`` of it.  Otherwise a segment
starts with four slots, and its last slot always holds ``inf``: a step
gathers each lane's row at ``offset[ia, None] + arange(width)`` clipped to
that slot, the segment padded with ``inf``, and writes the new row back
the same way, past ``held`` only ``inf``.  A step that leaves a segment
with no free slot moves it to the end of its lane's arena, with twice its
new ``held`` in slots, at most ``L + 1``.  So an arm's successive segments
at least double, and the last has at most twice its final ``held``: they
sum to less than four times its ``held``.  A lane holds at most
``horizon`` rewards, so its arena, ``4 * k`` floats of first segments and
``4 * horizon`` for the moved ones, never overflows.

A lane's block starts at the cap, doubles after a step that pulled all of
it, and is otherwise reset to twice the pulls the step made, at least a
quarter of the cap.  The cap is ``horizon // 8``, cut so that a step's
arrays fit what the budget rule (``harness._call_floats``) leaves beside
the records and the arena.  A stepped call writes only the first
record of each block, its arm and where its rewards start in the table, and
writes out every round once, at the end (``_Lockstep.records``).

**ExpExp** plays ``min(max(tau, k), horizon)`` rounds of round robin, then
for good the arm of least ``m2/n - rho*(S/n)``: its next rewards.
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
    """``L + 1``, for the longest tail ``L`` of :func:`tail_sizes`: the floats
    of the widest row a MaRaB step sorts, in which the budget rule counts
    a step's temporaries."""
    return int(tail_sizes(alpha, horizon)[-1]) + 1


def arena_size(alpha: float, horizon: int, k: int) -> int:
    """Floats of one MaRaB lane's arena of sorted segments (module
    docstring): ``k * L``, or ``4 * (horizon + k)`` when that is fewer."""
    return min(k * (buffer_width(alpha, horizon) - 1), 4 * (horizon + k))


class _Lockstep:
    """Shared state of one call: pull counts and the per-round records of every lane.

    The lockstep kernel plays every lane's round ``t`` together through
    :meth:`pull`.  The stepped kernel gives each lane its own clock instead:
    after :meth:`first_pass`, each step takes the lanes still playing from
    :meth:`blocks`, reads each one's next rewards of its chosen arm through
    :meth:`window` and advances its clock by a block of pulls of that arm
    through :meth:`commit`, until every lane has finished; :meth:`records`
    then writes out the rounds.
    """

    def __init__(self, rewards, cells=1):
        self.runs, self.k, self.horizon = rewards.shape
        self.lanes = cells * self.runs
        self.flat = rewards.reshape(-1)
        self.counts = np.zeros((self.lanes, self.k), dtype=np.int64)
        self.flat_counts = self.counts.reshape(-1)
        self.arm0 = np.arange(self.lanes) * self.k  # flat (lane, arm) index of arm 0
        # flat (row, arm) index of arm 0 in each lane's table row
        self.table_arm0 = np.tile(np.arange(self.runs) * self.k, cells)
        self.chosen = np.empty((self.lanes, self.horizon), dtype=np.int64)
        self.reward_seq = np.empty((self.lanes, self.horizon), dtype=np.float64)
        self.flat_chosen = self.chosen.reshape(-1)
        self.flat_reward = self.reward_seq.reshape(-1)

    def pull(self, t, a):
        """Round ``t``: lane ``l`` pulls arm ``a[l]`` (or every lane pulls arm ``a``).

        Returns the flat ``(lane, arm)`` indices, the pull counts before this
        pull, and the rewards.
        """
        ia = self.arm0 + a
        cnt = self.flat_counts[ia]
        self.flat_counts[ia] = cnt + 1
        x = self.flat[(self.table_arm0 + a) * self.horizon + cnt]
        self.chosen[:, t - 1] = a
        self.reward_seq[:, t - 1] = x
        return ia, cnt, x

    def first_pass(self, width, arena):
        """Rounds ``1..k``, where every lane pulls arm ``t - 1``, as ``k``
        blocks of one pull; starts every lane clock at ``k + 1`` and returns
        the ``(lanes, k)`` rewards.  ``width`` and ``arena`` are the kernel's
        :func:`buffer_width` and :func:`arena_size`."""
        arms = np.arange(self.k)
        first = (self.table_arm0[:, None] + arms) * self.horizon
        # until :meth:`records`, a record holds -1, or starts a block: its
        # arm, and its reward's table index minus its own flat index
        self.chosen.fill(-1)
        self.chosen[:, : self.k] = arms
        self.reward_seq[:, : self.k] = first - (np.arange(self.lanes)[:, None] * self.horizon + arms)
        self.counts[:] = 1
        self.t = np.full(self.lanes, self.k + 1)
        # a step holds about 3 * width + 5 * block floats per lane, within
        # what the budget rule (harness._call_floats) leaves beside the
        # records and the arena
        free = max(2 * self.horizon, arena + 5 * width) - arena - 3 * width
        self.cap = max(1, min(self.horizon // 8, free // 5))
        self.floor = max(1, self.cap // 4)
        self.block = np.full(self.lanes, self.cap)
        self.steps = np.arange(self.cap)
        self.lane = np.arange(self.lanes)
        self.lower = np.tri(self.k, self.k, -1, dtype=bool)  # row a: the arms below a
        return self.flat[first]

    def blocks(self):
        """The lanes still playing, their block lengths for the next step, cut
        at the horizon, and the longest of them (0 once every lane has
        finished).  The lanes are an index array, or while every lane plays
        a slice of them all, through which a step reads views, not copies."""
        size = np.minimum(self.block, self.horizon + 1 - self.t)
        on = slice(None) if size.all() else np.flatnonzero(size)
        return on, size[on], int(size.max())

    def window(self, on, a, width):
        """Each lane ``on[i]``'s next ``width`` rewards of arm ``a[i]``, from
        its pull count on, with the flat ``(lane, arm)`` indices, the pull
        counts and the first reward's table index.  Entries past a lane's
        table row are clipped garbage."""
        ia = self.arm0[on] + a
        cnt = self.flat_counts[ia]
        first = (self.table_arm0[on] + a) * self.horizon + cnt
        return ia, cnt, first, self.flat.take(first[:, None] + self.steps[:width], mode="clip")

    def rival(self, index, a):
        """Per row of ``index``, the least index arm ``a[i]`` must keep to
        stay the argmax: the best other arm's index, one ulp higher for
        lower-index arms, which win ties."""
        rival = np.where(self.lower[a], np.nextafter(index, np.inf), index)
        rival[self.lane[: len(a)], a] = -np.inf
        return rival.max(axis=1)

    def commit(self, on, a, ia, cnt, first, n, size):
        """Lane ``on[i]`` pulls arm ``a[i]`` ``n[i] >= 1`` times from round
        ``t`` on, the block that :meth:`window` read at ``first[i]``.  Its
        clock advances by ``n[i]``; its block doubles when the lane pulled
        all ``size[i]``, and is otherwise reset to twice the pulls it made,
        but to no less than a quarter of the cap."""
        at = self.lane[on] * self.horizon + self.t[on] - 1
        self.flat_chosen[at] = a
        self.flat_reward[at] = first - at
        self.flat_counts[ia] = cnt + n
        self.t[on] += n
        # np.minimum and np.maximum clip as np.clip does, in a quarter of its time
        self.block[on] = np.minimum(np.maximum(2 * np.where(n == size, self.block[on], n), self.floor), self.cap)

    def records(self):
        """``(chosen, reward_seq)``: every committed block written out, round by round."""
        # each record's block start, the last start at or before it
        start = np.arange(self.flat_chosen.size)
        start[self.flat_chosen < 0] = 0
        np.maximum.accumulate(start, out=start)
        np.take(self.flat_chosen, start, out=self.flat_chosen, mode="clip")
        index = self.flat_reward[start]
        del start
        index += np.arange(index.size, dtype=np.float64)
        np.take(self.flat, index.astype(np.int64), out=self.flat_reward, mode="clip")
        return self.chosen, self.reward_seq


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


def episode_marab(rewards, c, alpha):
    """``c`` is a scalar (one cell) or one value per cell; every cell plays ``alpha``."""
    c = np.atleast_1d(c)
    b = _Lockstep(rewards, len(c))
    # c as a (lanes, 1) column: lane ``cell * runs + row`` takes its cell's c
    # its arrays are freed before the records are written out
    _marab_steps(b, np.repeat(c.astype(np.float64), b.runs)[:, None], alpha)
    return b.records()


def _marab_steps(b, c, alpha):
    """Every round of a MaRaB call, in certified blocks (module docstring)."""
    width = buffer_width(alpha, b.horizon)
    n_tail = tail_sizes(alpha, b.horizon)
    log_tail = np.array(list(map(math.log, n_tail.tolist())))  # at each round
    # no tail ever holds more than L = width - 1 rewards, so each (lane, arm)
    # keeps only its L lowest, sorted, in a segment of its lane's arena
    most = width - 1
    lane_floats = arena_size(alpha, b.horizon, b.k)
    x = b.first_pass(width, lane_floats)
    fixed = b.k * most <= lane_floats
    if fixed:
        # every segment has room for L from the start: row ia, padded with inf
        arena = np.full((b.lanes * b.k, most), np.inf)
        arena[:, 0] = x.reshape(-1)
    else:
        # segments start with four slots; a segment's last slot always holds
        # inf and stands for every slot past it
        base = b.lane * lane_floats
        offset = (base[:, None] + 4 * np.arange(b.k)).reshape(-1)
        room = np.full(b.lanes * b.k, 4)
        top = base + 4 * b.k  # each lane's first free slot
        arena = np.full(b.lanes * lane_floats, np.inf)
        span = np.arange(most)
        arena[offset] = x.reshape(-1)
    # only a pulled arm's tail changes, so each arm's tail size and tail mean
    # are kept and refreshed after its pulls rather than rebuilt every step
    n_alpha = np.ones((b.lanes, b.k), dtype=np.int64)
    tail_mean = x.copy()
    flat_n_alpha, flat_tail_mean = n_alpha.reshape(-1), tail_mean.reshape(-1)
    # covers the rounding of a certified bound and of the tail mean it
    # bounds, sums of at most L + cap rewards of magnitude at most A
    terms = most + b.cap
    scale = max(abs(b.flat.max()), abs(b.flat.min()))
    margin = terms**2 * 2.0**-50 * scale + np.finfo(np.float64).tiny
    while True:
        on, size, block = b.blocks()
        if block == 0:
            return
        # a step works on the lanes still playing alone
        t, c_on = b.t[on], c[on]
        index = tail_mean[on] - c_on * np.sqrt(log_tail[t][:, None] / n_alpha[on])
        a = index.argmax(axis=1)
        ia, cnt, first, x = b.window(on, a, block)
        held = np.minimum(cnt, most)  # rewards in each kept row
        longest = int(held.max())
        keep = min(longest + block, most)  # the most a row holds after the step
        if fixed:
            row = arena[ia, :longest]
        else:
            at = _segment(offset[ia], room[ia], span[:keep])
            row = arena.take(at[:, :longest])
        n = size
        if block > 1:
            rival = b.rival(index, a)
            n = np.minimum(n, _certified(row, held, x[:, :-1], cnt, t, b, n_tail, log_tail, c_on, margin, rival))
        # the kept row after n pulls: a stable sort of the row and the first
        # n rewards, which sorts each reward after its equals like bisect.insort
        x[b.steps[:block] >= n[:, None]] = np.inf
        row = np.concatenate((row, x), axis=1)
        row.sort(axis=1, kind="stable")
        if fixed:
            arena[ia, :keep] = row[:, :keep]
        else:
            # a segment left with no free slot moves to its lane's arena end,
            # with twice its held in slots, at most L + 1
            held = np.minimum(cnt + n, most)
            moved = held >= room[ia]
            if moved.any():
                grown = ia[moved]
                lane = grown // b.k
                room[grown] = np.minimum(2 * held[moved], most + 1)
                offset[grown] = top[lane]
                top[lane] += room[grown]
                at = _segment(offset[ia], room[ia], span[:keep])
            arena[at] = row[:, :keep]
        na = n_tail[cnt + n]
        flat_n_alpha[ia] = na
        # cumsum adds left to right, the order ArmStats.empirical_cvar uses
        flat_tail_mean[ia] = row[:, : na.max()].cumsum(axis=1)[b.lane[: len(ia)], na - 1] / na
        b.commit(on, a, ia, cnt, first, n, size)


def _segment(start, room, span):
    """Flat arena indices of each lane's segment of ``room`` slots at
    ``start``: ``start + span``, every index past the last slot at it."""
    at = start[:, None] + span
    return np.minimum(at, (start + room - 1)[:, None], out=at)


def _certified(row, held, xs, cnt, t, b, n_tail, log_tail, c, margin, rival):
    """Per lane, the pulls of its arm certified to follow from round ``t``: the
    first ``u`` in ``1..len(xs)`` at which a lower bound on the arm's index
    after ``u`` more pulls of rewards ``xs[:u]`` falls below ``rival``, or
    ``len(xs) + 1`` if none does (module docstring).  Works in place, so
    that it holds about four arrays the shape of ``xs``."""
    u = b.steps[1 : xs.shape[1] + 1]
    n_u = n_tail.take(cnt[:, None] + u, mode="clip")
    n1 = n_u[:, 0]
    fits = n1 <= held
    rr = b.lane[: len(held)]
    w = np.empty(xs.shape)  # a lower bound on the tail sum after u pulls
    if fits.any():
        # each reward below theta, the kept row's n1-th lowest, replaces a
        # tail value of at most theta, and the tail grows past n1 by values
        # of at least the lower of theta and the lowest reward so far
        m = np.minimum(n1, held) - 1
        theta = row[rr, m][:, None]
        np.subtract(theta, xs, out=w)
        np.maximum(w, 0.0, out=w)
        np.cumsum(w, axis=1, out=w)
        np.subtract(row[:, : n1.max()].cumsum(axis=1)[rr, m][:, None], w, out=w)
        grow = np.minimum.accumulate(xs, axis=1)
        np.minimum(grow, theta, out=grow)
        grow *= n_u - n1[:, None]
        w += grow
        del grow
    if not fits.all():
        # the tail holds every reward but the held + u - n_u largest
        top = np.maximum.accumulate(xs, axis=1)
        np.maximum(top, row[rr, held - 1][:, None], out=top)
        top *= held[:, None] + u - n_u
        total = np.cumsum(xs, axis=1)
        total += row.cumsum(axis=1)[rr, held - 1][:, None]
        total -= top
        del top
        np.copyto(w, total, where=~fits[:, None])
        del total
    w /= n_u
    w -= margin
    explore = log_tail.take(t[:, None] + u, mode="clip")
    explore /= n_u
    np.sqrt(explore, out=explore)
    explore *= c
    w -= explore
    below = w < rival[:, None]
    return np.where(below.any(axis=1), below.argmax(axis=1) + 1, xs.shape[1] + 1)


def _moments(x):
    """Each arm's running sum and Welford sum of squares after each of its
    pulls, ``[a, n - 1]`` after ``n``, for ``(k, pulls)`` rewards ``x``, in the
    ``ArmStats.update`` order.  A sum of ``-0.0`` here is ``0.0`` there,
    which no comparison tells apart."""
    total = np.cumsum(x, axis=1)
    mean = total / np.arange(1.0, x.shape[1] + 1)
    # each reward less the previous mean, over the flat rows; an arm's first
    # deviation, (x_1 - 0) * (x_1 - x_1), is zero
    m2 = np.empty_like(total)
    np.subtract(x.reshape(-1)[1:], mean.reshape(-1)[:-1], out=m2.reshape(-1)[1:])
    m2[:, 0] = 0.0
    m2 *= np.subtract(x, mean, out=mean)
    return total, np.cumsum(m2, axis=1, out=m2)


def _round_robin(rewards, rounds):
    """A call's records with rounds ``t = 1..rounds`` filled in, in which every
    lane pulls arm ``(t - 1) % k``."""
    lanes, k, horizon = rewards.shape
    t = np.arange(rounds)
    chosen = np.empty((lanes, horizon), dtype=np.int64)
    reward_seq = np.empty((lanes, horizon))
    chosen[:, :rounds] = t % k
    reward_seq[:, :rounds] = rewards[:, t % k, t // k]
    return chosen, reward_seq


def _merge(rewards, keys):
    """Every round of a policy that pulls the arm of lowest key, the lowest on
    ties, where an arm's key depends only on its own pulls.  ``keys(x)``
    gives a lane's running maximum ``K`` of each arm's keys, ``[a, n - 1]``
    after ``n`` pulls, from its ``(k, horizon)`` rewards (module docstring)."""
    k, horizon = rewards.shape[1:]
    chosen, reward_seq = _round_robin(rewards, k)
    for lane, x in enumerate(rewards if horizon > k else ()):
        order = _lowest(keys(x).reshape(-1), horizon - k)
        np.floor_divide(order, horizon, out=chosen[lane, k:])
        order += 1  # the entry of (a, n) reads the reward after it, x[a, n]
        x.take(order, out=reward_seq[lane, k:], mode="clip")
    return chosen, reward_seq


def _lowest(key, m):
    """The first ``m`` of ``key``'s stable argsort: every entry below the
    ``m``-th lowest value, sorted, then the first entries equal to it."""
    value = np.partition(key, m - 1)[m - 1]
    below = np.flatnonzero(key < value)
    tied = np.flatnonzero(key == value)[: m - len(below)]
    return np.concatenate((below[key[below].argsort(kind="stable")], tied))


def episode_min(rewards):
    # the negated minimum never falls: it is its own running maximum
    return _merge(rewards, lambda x: -np.minimum.accumulate(x, axis=1))


def episode_mvlcb(rewards, rho, delta):
    n = np.arange(1.0, rewards.shape[2] + 1)
    width = (5.0 + rho) * np.sqrt(math.log(1.0 / delta) / (2.0 * n))

    def keys(x):
        total, key = _moments(x)
        key /= n
        key -= rho * np.divide(total, n, out=total)
        key -= width
        return np.maximum.accumulate(key, axis=1, out=key)

    return _merge(rewards, keys)


def episode_expexp(rewards, rho, tau):
    k, horizon = rewards.shape[1:]
    explore = min(max(tau, k), horizon)
    chosen, reward_seq = _round_robin(rewards, explore)
    counts = np.bincount(np.arange(explore) % k, minlength=k)
    arms, last = np.arange(k), counts - 1
    for lane, x in enumerate(rewards if explore < horizon else ()):
        total, m2 = _moments(x[:, : counts[0]])
        arm = (m2[arms, last] / counts - rho * (total[arms, last] / counts)).argmin()
        chosen[lane, explore:] = arm
        reward_seq[lane, explore:] = x[arm, counts[arm] : counts[arm] + horizon - explore]
    return chosen, reward_seq
