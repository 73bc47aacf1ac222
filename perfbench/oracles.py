"""Reference computations the benchmark checks the program's outputs against.

They share no code with the program's scorer or solvers: flexible error
comes from reverse cumulative counts (max, maxk) and sorted prefix sums
(mode), and the lossless 1-D worst-case transport distance from the
monotone (quantile) coupling, in exact Fractions.  ``test_oracles.py`` pins
each one against the program's brute-force oracles on tiny inputs.

Bars are ``(point, count)`` pairs sorted by point, counts positive.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction


def drop_allowance(budget: float, n: int) -> int:
    """Most elements that may be dropped: floor(budget * n), exactly."""
    return math.floor(Fraction(budget) * n)


def max_reachable(bars, m: int) -> list:
    """Points that can be the max after dropping at most m elements.

    A bar becomes the max once every element above it is dropped.
    """
    out = []
    above = 0
    for g, c in reversed(bars):
        if above > m:
            break
        out.append(g)
        above += c
    return out


def maxk_reachable(bars, k: int, m: int) -> list:
    """Points that can be the max_k after dropping at most m elements.

    A qualifying bar (count >= k) becomes the max_k once every qualifying
    bar above it is trimmed to k - 1, which costs count - k + 1 each.
    """
    out = []
    cost = 0
    for g, c in reversed(bars):
        if c < k:
            continue
        if cost <= m:
            out.append(g)
        cost += c - k + 1
    return out


def mode_reachable(bars, m: int) -> list:
    """Points that can be the mode after dropping at most m elements.

    Bar b wins once every rival r is trimmed below it, or to its height when
    r lies right of b (ties go to the smaller point).  Its cost is
    sum_r max(0, c_r - c_b) from prefix sums over the sorted counts, plus
    one for each rival left of b with c_r >= c_b, counted with a Fenwick
    tree over count ranks.
    """
    counts = sorted(c for _, c in bars)
    prefix = [0]
    for c in counts:
        prefix.append(prefix[-1] + c)
    total, n = prefix[-1], len(counts)
    ranks = {c: i + 1 for i, c in enumerate(sorted(set(counts)))}
    tree = [0] * (len(ranks) + 1)
    out = []
    for seen, (g, c) in enumerate(bars):
        above = bisect_right(counts, c)
        excess = (total - prefix[above]) - c * (n - above)
        i, below = ranks[c] - 1, 0  # left bars with a count < c
        while i > 0:
            below += tree[i]
            i -= i & -i
        if excess + (seen - below) <= m:
            out.append(g)
        i = ranks[c]
        while i < len(tree):
            tree[i] += 1
            i += i & -i
    return out


def reachable(kind, bars, m: int) -> list:
    """Dispatch on a statistic kind with ``name`` and ``k`` attributes."""
    if kind.name == "max":
        return max_reachable(bars, m)
    if kind.name == "maxk":
        return maxk_reachable(bars, kind.k, m)
    if kind.name == "mode":
        return mode_reachable(bars, m)
    raise ValueError(f"no reference flexible error for {kind}")


def truth(kind, bars):
    """The statistic of the undropped histogram, or None if undefined."""
    return next(iter(reachable(kind, bars, 0)), None)


def flexible_error(points: list, released: float, bound: float) -> float:
    """Distance from the release to the nearest reachable point; the full
    range when nothing is reachable."""
    if not points:
        return bound
    return min(abs(g - released) for g in points)


def quantile_winf(p, q) -> Fraction:
    """Lossless 1-D worst-case transport distance of two distributions.

    ``p`` and ``q`` are ``(coordinate, mass)`` pairs with exact masses of
    equal total; the monotone coupling pairs their quantiles, and its
    longest move is the distance.
    """
    p = sorted((Fraction(g), Fraction(w)) for g, w in p)
    q = sorted((Fraction(g), Fraction(w)) for g, w in q)
    if sum(w for _, w in p) != sum(w for _, w in q):
        raise ValueError("quantile coupling needs equal total masses")
    i = j = 0
    left_p, left_q = p[0][1], q[0][1]
    worst = Fraction(0)
    while True:
        worst = max(worst, abs(p[i][0] - q[j][0]))
        step = min(left_p, left_q)
        left_p -= step
        left_q -= step
        if left_p == 0:
            i += 1
            if i == len(p):
                return worst
            left_p = p[i][1]
        if left_q == 0:
            j += 1
            left_q = q[j][1]


def tv(p, q) -> Fraction:
    """Total variation distance of two exact-mass distributions."""
    a: dict = {}
    for g, w in p:
        a[g] = a.get(g, Fraction(0)) + Fraction(w)
    for g, w in q:
        a[g] = a.get(g, Fraction(0)) - Fraction(w)
    return sum((abs(v) for v in a.values()), Fraction(0)) / 2
