"""Competing private mechanisms the benchmark compares against.

Five classics: the exponential mechanism over the output range, stable-value
propose-test-release, smooth-sensitivity calibrated Laplace noise, the
stability-based sanitized histogram (per-bar noise with suppression below a
threshold), and the choosing-based sanitizer that repeatedly picks tall bars
privately.  None of these provides a flexible-accuracy guarantee; the
benchmark scores them with the same flexible-error routine for comparison.

Local/smooth sensitivity conventions: a histogram with an undefined
statistic is never used as a reference point, and neighbors where the
statistic is undefined are skipped when measuring the statistic's local
swing (there is no number to take a difference with).  The propose-test
stability radius, by contrast, treats "one more removal makes the statistic
undefined" as instability — releasing an exact answer there is clearly not
stable.  Both conventions are pinned by the brute-force oracles in the test
suite.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import mechanisms
from .hist import (
    DomainError,
    Histogram,
    ParameterError,
    StatisticKind,
    eval_statistic,
    require_1d_statistic,
)
from .mechanisms import UNDEFINED, statistic_or_undefined


def _range_bound(x: Histogram) -> int:
    b = x.space.bound
    if math.isinf(b):
        raise DomainError("baseline mechanisms need a bounded 1-D ground set")
    if x.space.dimension != 1:
        raise DomainError("baseline mechanisms are 1-D only")
    return int(b)


def _counts_vector(x: Histogram) -> np.ndarray:
    bound = _range_bound(x)
    c = np.zeros(bound, dtype=np.int64)
    points, counts = x.bars()
    # exact in float: c holds a slot per integer below bound, so bound < 2^53
    v = x.coordinates()
    bad = (v != np.floor(v)) | (v < 0) | (v >= bound)
    if bad.any():
        raise DomainError(f"baseline mechanisms need integer points in [0, {bound}),"
                          f" got {points[np.argmax(bad)][0]!r}")
    c[v.astype(np.int64)] = counts
    return c


# ---------------------------------------------------------------------------
# exponential mechanism


def exp_mech(kind: StatisticKind, x: Histogram, eps: float, rng: mechanisms.RngStream) -> int:
    """Sample r in [0,B) with weight exp(-eps*|f(x)-r| / (2B)).

    The error utility swings by up to the full range across neighbors for
    these statistics, so the sensitivity in the exponent is B — which is
    exactly why this mechanism flattens toward uniform on wide ranges.
    """
    bound = _range_bound(x)
    f = statistic_or_undefined(kind, x)
    if f is UNDEFINED:
        return int(rng.integers(0, bound))
    r = np.arange(bound)
    w = np.exp(-eps * np.abs(f - r) / (2.0 * bound))
    return int(rng.choice_weighted(w))


# ---------------------------------------------------------------------------
# propose-test-release (stable values)


@lru_cache(maxsize=16)
def ptr_stability_radius(kind: StatisticKind, x: Histogram) -> int:
    """Exact distance to the nearest histogram whose statistic is unstable.

    One step = add or remove one element; "unstable" means a single step
    changes the statistic or makes it undefined.  It depends on the dataset
    only, so it is computed once per (statistic, dataset).
    """
    c = _counts_vector(x)
    bound = len(c)
    f = eval_statistic(kind, x)
    if kind.name in ("max", "maxk"):  # max is maxk with k = 1
        k = kind.k or 1
        r = int(c[f]) - k  # removals until one more disqualifies the bar
        above = c[f + 1:]
        if len(above):
            r = min(r, int((k - 1 - above).min()))  # additions until a bar is one short
        return r
    if kind.name == "mode":
        b = f
        gaps = []
        if b > 0:
            gaps.append(int((c[b] - 1 - c[:b]).min()))
        if b < bound - 1:
            gaps.append(int((c[b] - c[b + 1:]).min()))
        gaps.append(x.size - 1)  # shrink to a singleton: one removal then empties
        return max(0, min(gaps))
    raise ParameterError(f"no stability radius for {kind}")


def ptr_mech(kind: StatisticKind, x: Histogram, eps: float, delta: float,
             rng: mechanisms.RngStream) -> int:
    """Release the exact statistic if the noisy stability radius clears
    ln(1/delta)/eps, otherwise a uniformly random value from the range."""
    bound = _range_bound(x)
    f = statistic_or_undefined(kind, x)
    if f is not UNDEFINED:
        noisy = ptr_stability_radius(kind, x) + rng.laplace(scale=1.0 / eps)
        if noisy > math.log(1.0 / delta) / eps:
            return int(f)
    return int(rng.integers(0, bound))


# ---------------------------------------------------------------------------
# smooth sensitivity
#
# SS(x) = max over histograms y (statistic defined) of swing(y)*e^{-beta*d},
# d = edit distance from x.  Each statistic admits a complete enumeration of
# "one step from here changes the answer by v" configurations together with
# the cheapest edit sequence reaching them; the maxima below range over
# those canonical events.  Max is maxk with k = 1 and goes through
# _ss_maxk.  Exactness is pinned against brute-force search over tiny
# domains in the test suite.


_BLOCK = 8192  # elements per temporary array


def _pair_max(row: np.ndarray, left, right, beta: float) -> float:
    """Largest |r - s| * e^{-beta * (row[h, r] + col[h, s])} over the rows h
    of ``row`` and bars s != r, where col is ``left`` for s < r and
    ``right`` for s > r; a side given as None has no pairs.  0.0 when there
    are none.

    The (h, r) pairs go in blocks of max(1, _BLOCK // bars), so no temporary
    holds much more than _BLOCK elements, and never a bars x bars array.
    Each cost is the same integer a loop over h and r would sum and goes
    through the same exp, so the maximum is bit-identical to that loop's.
    """
    bars = row.shape[1]
    flat = row.ravel()
    s = np.arange(bars)
    step = max(1, _BLOCK // max(1, bars))
    best = 0.0
    for j0 in range(0, flat.size, step):
        h, r = np.divmod(np.arange(j0, min(j0 + step, flat.size)), bars)
        gap = s - r[:, None]  # > 0 right of the row's bar, < 0 left of it
        if right is None:
            cost, dist = left[h], np.maximum(-gap, 0)
        elif left is None:
            cost, dist = right[h], np.maximum(gap, 0)
        else:
            cost, dist = np.where(gap < 0, left[h], right[h]), np.abs(gap)
        # pairs on a wanted side cost >= 0; every other pair has distance 0,
        # and clamping its cost at 0 keeps its exp finite
        cost = np.maximum(flat[j0:j0 + len(h), None] + cost, 0)
        best = max(best, float((dist * np.exp(-beta * cost)).max()))
    return best


def _ss_maxk(c: np.ndarray, k: int, beta: float) -> float:
    qual = c >= k
    elimc = np.where(qual, c - k + 1, 0)  # per-bar cost to push below k
    e_above = np.concatenate([np.cumsum(elimc[::-1])[::-1][1:], [0]])
    e_cum = np.cumsum(elimc)
    make_b = np.clip(k - c, 0, None)  # raise bar b to qualify
    exact_b = np.abs(c - k)           # pin bar b at exactly k
    # addition swing: bar g > b one short of qualifying, so maxk jumps b -> g;
    # bars disqualified above b land on k-1 and are free targets
    lift = np.where(qual, 0, k - 1 - c)
    best = _pair_max((e_above + make_b)[None], None, lift[None], beta)
    # removal swing: bar b at exactly k, next qualifying bar at p < b, and
    # every qualifying bar strictly between them eliminated
    pinned = e_above + exact_b + e_cum - elimc
    return max(best, _pair_max(pinned[None], (make_b - e_cum)[None], None, beta))


def _mode_base(c: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Edits that pin the mode at bar b with height h, one row per height in
    the column h and one column per bar b: trim every bar left of b to h - 1
    and every bar right of it to h (ties break toward smaller bars), and set
    bar b to h."""
    trim_l = np.clip(c - (h - 1), 0, None)
    trim_r = np.clip(c - h, 0, None)
    return (np.cumsum(trim_l, axis=1) - trim_l                            # i < b
            + trim_r.sum(axis=1, keepdims=True) - np.cumsum(trim_r, axis=1)  # i > b
            + np.abs(c - h))


def _ss_mode(c: np.ndarray, beta: float) -> float:
    hs = np.unique(c)
    hs = np.unique(np.concatenate([hs, hs + 1, hs + 2, [1]]))
    hs = hs[hs >= 1]
    step = max(1, _BLOCK // max(1, len(c)))  # heights per chunk
    best = 0.0
    for i in range(0, len(hs), step):
        h = hs[i:i + step, None]
        # challenger i is one step from taking over once its trim to the cap
        # (h - 1 left of b, h right of it) is swapped for setting it exactly
        # to the cap: that adds the cap's excess over c_i
        best = max(best, _pair_max(_mode_base(c, h), np.clip(h - 1 - c, 0, None),
                                   np.clip(h - c, 0, None), beta))
    return best


@lru_cache(maxsize=512)
def _ss_cached(kind: StatisticKind, x: Histogram, beta: float) -> float:
    c = _counts_vector(x)
    if kind.name in ("max", "maxk"):
        return _ss_maxk(c, kind.k or 1, beta)
    if kind.name == "mode":
        return _ss_mode(c, beta)
    raise ParameterError(f"no smooth-sensitivity routine for {kind}")


def smooth_sensitivity(kind: StatisticKind, x: Histogram, beta: float) -> float:
    if beta <= 0:
        raise ParameterError("beta must be positive")
    return _ss_cached(kind, x, beta)


def ss_mech(kind: StatisticKind, x: Histogram, eps: float, delta: float,
            rng: mechanisms.RngStream) -> float:
    """f(x) plus Laplace noise scaled by the smooth sensitivity at
    beta = eps / (2 ln(2/delta))."""
    f = statistic_or_undefined(kind, x)
    if f is UNDEFINED:
        return float(rng.integers(0, _range_bound(x)))
    beta = eps / (2.0 * math.log(2.0 / delta))
    ss = smooth_sensitivity(kind, x, beta)
    return float(f) + (2.0 * ss / eps) * rng.laplace(scale=1.0)


# ---------------------------------------------------------------------------
# stability-based sanitized histogram


def bns_hist(x: Histogram, eps: float, delta: float, rng: mechanisms.RngStream) -> Histogram:
    """Per-bar Laplace(2/eps) on occupied bars, suppressed below the
    stability threshold 1 + 2 ln(2/delta)/eps; empty bars are never touched,
    so the output support is a subset of the input support."""
    thr = 1.0 + 2.0 * math.log(2.0 / delta) / eps
    counts = x.bars()[1]
    v = counts + rng.laplace(scale=2.0 / eps, size=len(counts))  # one draw per bar, in order
    return x.with_counts(np.where(v > thr, np.rint(v), 0))  # rint: half to even, as round


# ---------------------------------------------------------------------------
# choosing-based sanitizer (iterative tall-bar picking)


def sanpoints(x: Histogram, eps: float, delta: float, k_rounds: int,
              rng: mechanisms.RngStream | Sequence[mechanisms.RngStream]
              ) -> Histogram | list[Histogram]:
    """k_rounds iterations of: pick a remaining bar with weight
    exp(eps' * height / 2) (eps' = eps/(2*k_rounds), height sensitivity 1)
    without replacement, then report its height plus Laplace(2*k_rounds/eps),
    clamped at zero and rounded.  Unchosen bars are reported as zero.

    ``rng`` is one stream, or a sequence of streams: then the result is a
    list, one release per stream, each what that stream alone releases.
    Every round, each stream draws random() for its pick and then its noise.

    This follows a prose sketch only; treat its benchmark rows as an
    approximate reproduction.
    """
    del delta  # budget is pure eps: half selection, half noise
    one = isinstance(rng, np.random.Generator)
    streams = [rng] if one else list(rng)
    if k_rounds < 1:
        raise ParameterError("k_rounds must be >= 1")
    if len(x) == 0:
        released = [x] * len(streams)
    elif k_rounds > len(x):
        raise ParameterError(f"k_rounds = {k_rounds} exceeds {len(x)} occupied bars")
    else:
        # rint: half to even, as round, and inf stays inf
        released = [x.with_counts(row)
                    for row in np.rint(_sanpoints_rows(x, eps, k_rounds, streams))]
    return released[0] if one else released


def _sanpoints_rows(x: Histogram, eps: float, k_rounds: int,
                    streams: list[mechanisms.RngStream]) -> np.ndarray:
    """sanpoints' reported heights, unrounded: one row per stream, one column
    per bar of x.

    Every array operation covers all the streams at once, one row each, and
    gives each row the bits a single stream's 1-D arrays get: sums and
    cumulative sums run along the rows.
    """
    heights = x.bars()[1].astype(float)
    rows = np.arange(len(streams))
    # per stream, the bars not yet chosen, in point order
    left = np.tile(np.arange(len(heights)), (len(streams), 1))
    eps_round = eps / (2.0 * k_rounds)
    scale = 2.0 * k_rounds / eps  # a Python float: inf, with no warning, at eps = 1e-310
    out = np.zeros(left.shape)  # unchosen bars, and chosen ones rounding to <= 0, drop out
    for _ in range(k_rounds):
        h = heights[left]
        w = np.exp(eps_round * (h - h.max(axis=1, keepdims=True)) / 2.0)
        c = np.add.accumulate(w / w.sum(axis=1, keepdims=True), axis=1)  # cumsum
        # a draw at or past c[t, -1], which rounding can leave below 1, picks
        # the last bar with weight, the first where c reaches c[t, -1]: so
        # every draw is capped at the float just below c[t, -1]
        u = np.minimum([s.random() for s in streams], np.nextafter(c[:, -1], 0.0))
        j = (c <= u[:, None]).sum(axis=1)  # searchsorted(c[t], u[t], side="right")
        i = left[rows, j]
        left = left[left != i[:, None]].reshape(len(streams), left.shape[1] - 1)
        out[rows, i] = heights[i] + np.array([s.laplace(scale=scale) for s in streams])
    return out


# ---------------------------------------------------------------------------
# statistic wrappers used by the benchmark


def bns_mech(kind: StatisticKind, x: Histogram, eps: float, delta: float,
             rng: mechanisms.RngStream):
    require_1d_statistic(kind, x)  # before any draw: an empty release would answer undefined
    return statistic_or_undefined(kind, bns_hist(x, eps, delta, rng))


def sanpoints_mech(kind: StatisticKind, x: Histogram, eps: float, delta: float,
                   rng: mechanisms.RngStream | Sequence[mechanisms.RngStream],
                   k_rounds: int = 8):
    """The statistic of sanpoints' release; for a sequence of streams, a
    list with one statistic per stream."""
    require_1d_statistic(kind, x)
    released = sanpoints(x, eps, delta, min(k_rounds, max(1, len(x))), rng)
    if isinstance(released, Histogram):
        return statistic_or_undefined(kind, released)
    return [statistic_or_undefined(kind, y) for y in released]
