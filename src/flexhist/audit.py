"""Ground-truth verification: exact DP audit, flexible error, transport oracle.

Two kinds of function live here.  The oracles re-derive answers from
definitions rather than reusing the production algorithms, so the two
implementations can check each other: ``brute_winf_lossy`` (LP over lossy
couplings), ``dp_delta_exact`` (enumeration over product output spaces) and
``flexible_error_brute`` (enumeration over drop patterns).  The production
scorer the benchmark runs is ``flexible_error``, backed by the cached
``_reachable`` sets; ``check_drop_witness`` and ``trlap_pmf_factory`` serve
the tests and the CLI audits.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .hist import (
    DomainError,
    Histogram,
    ParameterError,
    StatisticKind,
    UndefinedStatisticError,
    dsupp,
    eval_statistic,
    neighbors,
    require_1d_statistic,
)
from .mechanisms import UNDEFINED, trlap_output_pmf
from .transport import DiscreteDistribution

_ORACLE_ATOM_GUARD = 4


def brute_winf_lossy(p: DiscreteDistribution, q: DiscreteDistribution,
                     gamma: float) -> float:
    """Lossy worst-case transport distance straight from the definition.

    For each candidate radius (ascending pairwise distances), solve an LP
    over joint distributions phi on U x U (U = union support) restricted to
    cells within the radius, minimising the linearised sum of marginal
    deviations; the first radius whose minimum stays within gamma is the
    answer.  Restricting couplings to U x U is lossless: mass parked outside
    U can always be re-parked on the diagonal of U without increasing either
    the radius or the deviations.
    """
    if len(p.atoms) > _ORACLE_ATOM_GUARD or len(q.atoms) > _ORACLE_ATOM_GUARD:
        raise DomainError(f"oracle guard: more than {_ORACLE_ATOM_GUARD} atoms per side")
    if not 0 <= gamma <= 1:
        raise DomainError(f"gamma must be in [0,1], got {gamma}")
    space = p.space
    if space != q.space:
        raise DomainError("transport across different spaces")

    pts = sorted(set(p.points()) | set(q.points()))
    n = len(pts)
    pm = [float(p.mass(g)) for g in pts]
    qm = [float(q.mass(g)) for g in pts]
    d2 = [[space.dist2_exact(a, b) for b in pts] for a in pts]
    candidates = sorted({Fraction(0)} | {v for row in d2 for v in row})

    for beta2 in candidates:
        if _deviation_lp(n, pm, qm, d2, beta2) <= 2 * gamma + 1e-9:
            return math.sqrt(float(beta2))
    return math.sqrt(float(candidates[-1]))  # pragma: no cover - full graph always feasible


def _deviation_lp(n: int, pm: list[float], qm: list[float],
                  d2: list[list[Fraction]], beta2: Fraction) -> float:
    """min sum|phi1-P| + sum|phi2-Q| over couplings confined to beta-cells."""
    from scipy.optimize import linprog  # here, so that importing flexhist never loads scipy
    cells = [(i, j) for i in range(n) for j in range(n) if d2[i][j] <= beta2]
    ncells = len(cells)
    nvars = ncells + 2 * n  # phi cells, then u (row slacks), then v (col slacks)

    c = np.zeros(nvars)
    c[ncells:] = 1.0

    a_eq = np.zeros((1, nvars))
    a_eq[0, :ncells] = 1.0
    b_eq = np.array([1.0])

    rows = []
    rhs = []
    for x in range(n):
        row_pos = np.zeros(nvars)
        row_neg = np.zeros(nvars)
        for k, (i, _j) in enumerate(cells):
            if i == x:
                row_pos[k] = 1.0
                row_neg[k] = -1.0
        row_pos[ncells + x] = -1.0
        row_neg[ncells + x] = -1.0
        rows += [row_pos, row_neg]
        rhs += [pm[x], -pm[x]]
    for y in range(n):
        col_pos = np.zeros(nvars)
        col_neg = np.zeros(nvars)
        for k, (_i, j) in enumerate(cells):
            if j == y:
                col_pos[k] = 1.0
                col_neg[k] = -1.0
        col_pos[ncells + n + y] = -1.0
        col_neg[ncells + n + y] = -1.0
        rows += [col_pos, col_neg]
        rhs += [qm[y], -qm[y]]

    res = linprog(c, A_ub=np.array(rows), b_ub=np.array(rhs), A_eq=a_eq, b_eq=b_eq,
                  bounds=(0, None), method="highs")
    if not res.success:  # pragma: no cover - the LP is always feasible
        raise RuntimeError(f"oracle LP failed: {res.message}")
    return float(res.fun)


# ---------------------------------------------------------------------------
# exact DP audit on tiny product-form instances


@dataclass(frozen=True)
class AuditInstance:
    """Neighboring pair plus the per-bar output law of the mechanism.

    pmf_factory(count, input_size, eps) must return the release pmf over
    {0..count} for a bar of that count when the whole input has input_size
    elements (the noise width scales with the input size, so the two sides
    of a neighboring pair see different noise).
    """

    x: Histogram
    x2: Histogram
    pmf_factory: Callable[[int, int, float], np.ndarray]

    def __post_init__(self) -> None:
        if not neighbors(self.x, self.x2):
            raise DomainError("audit instance requires neighboring histograms")


_SPACE_GUARD = 10**6


def _joint_law(h: Histogram, pts: Sequence, lens: Sequence[int],
               pmf_factory: Callable[[int, int, float], np.ndarray],
               eps: float) -> np.ndarray:
    joint = np.array([1.0])
    for g, length in zip(pts, lens):
        c = h.count(g)
        vec = np.zeros(length)
        if c == 0:
            vec[0] = 1.0
        else:
            vec[: c + 1] = pmf_factory(c, h.size, eps)
        joint = np.outer(joint, vec).ravel()
    return joint


def dp_delta_exact(inst: AuditInstance, eps: float) -> float:
    """Tight delta at eps: max over orderings of sum_y [P(y) - e^eps Q(y)]_+.

    Exact because bars are released independently, so the joint law is the
    product of per-bar pmfs over the union support; the event supremum in
    the privacy definition is attained by collecting exactly the outcomes
    with positive bracket.
    """
    if eps < 0:
        raise ParameterError("eps must be non-negative")
    pts = sorted(inst.x.support() | inst.x2.support())
    lens = [max(inst.x.count(g), inst.x2.count(g)) + 1 for g in pts]
    total = 1
    for length in lens:
        total *= length
        if total > _SPACE_GUARD:
            raise DomainError("instance too large: output space exceeds the guard")
    p = _joint_law(inst.x, pts, lens, inst.pmf_factory, eps)
    q = _joint_law(inst.x2, pts, lens, inst.pmf_factory, eps)
    scale = math.exp(eps)
    fwd = float(np.clip(p - scale * q, 0.0, None).sum())
    bwd = float(np.clip(q - scale * p, 0.0, None).sum())
    return max(fwd, bwd)


# ---------------------------------------------------------------------------
# flexible error under a drop budget


@lru_cache(maxsize=16)
def _drop_cap(budget: float, n: int) -> int:
    """Largest m with m/n <= budget + ulp(budget)/2: the float stands for
    every real that rounds to it, so the float nearest k/n allows k drops."""
    return math.floor((Fraction(budget) + Fraction(math.ulp(budget)) / 2) * n)


def _drop_allowance(budget: float, n: int) -> int:
    if not 0 <= budget < 1:
        raise ParameterError(f"drop budget must be in [0,1), got {budget}")
    return _drop_cap(budget, n)


def _full_range(x: Histogram) -> float:
    bound = x.space.bound
    if math.isinf(bound):
        raise DomainError("undefined release needs a bounded space to score")
    return float(bound)


def _as_float(r) -> float:
    """float(r), or inf for a number beyond the float range (not finite either)."""
    try:
        return float(r)
    except OverflowError:
        return math.inf


def _show(r) -> str:
    """repr(r), or the size of an int too long for Python to print."""
    try:
        return repr(r)
    except ValueError:  # beyond sys.get_int_max_str_digits()
        return f"<int of {r.bit_length()} bits>"


def flexible_error(kind: StatisticKind, x: Histogram, released,
                   budget: float) -> float | np.ndarray:
    """Min over sub-histograms within the drop budget of |statistic - released|.

    ``released`` is one value, or a list, tuple or array of them, scored in
    one pass into a float64 array; one value gives a float.  An undefined
    release scores the full range, same as the benchmark's scoring rule; the
    budget is checked all the same.
    The statistic's reachable values depend on x and the drop allowance
    only, so they are computed once per dataset (cached) and each release
    is scored by a nearest-point lookup; no enumeration.
    """
    many = isinstance(released, (list, tuple, np.ndarray))
    values = released if many else [released]
    if x.size == 0:
        raise DomainError("flexible_error needs a non-empty histogram")
    require_1d_statistic(kind, x)
    m = _drop_allowance(budget, x.size)
    undefined = np.array([v is UNDEFINED for v in values], dtype=bool)
    out = np.full(len(values), _full_range(x) if undefined.any() else math.nan)
    if not undefined.all():
        if kind.name == "support":
            raise ParameterError(f"no exact flexible-error routine for {kind}")
        defined = [v for v, u in zip(values, undefined) if not u]
        v = np.array([_as_float(r) for r in defined])
        bad = np.flatnonzero(~np.isfinite(v))
        if bad.size:  # nan has no nearest point, inf no finite distance
            raise ParameterError(f"released value {_show(defined[bad[0]])} is not finite")
        reach = _reachable(kind, x, m)
        if reach.size == 0:  # maxk: nothing qualifies even before dropping
            out[~undefined] = _full_range(x)
        else:  # the nearest reachable point is at i - 1 or i
            i = np.searchsorted(reach, v)
            below = reach[np.maximum(i - 1, 0)]
            above = reach[np.minimum(i, reach.size - 1)]
            out[~undefined] = np.minimum(np.abs(below - v), np.abs(above - v))
    return out if many else float(out[0])


@lru_cache(maxsize=16)
def _reachable(kind: StatisticKind, x: Histogram, m: int) -> np.ndarray:
    """Ascending ground points the statistic can take after at most m drops.

    Each bar's cost is the fewest drops that make it the statistic; the
    reachable bars are those costing at most m.  Max is maxk with k = 1.
    O(bars log bars) time and O(bars) memory.
    """
    cnt, pts = x.bars()[1], x.coordinates()  # point-sorted ascending
    if kind.name == "min":  # drop every element left of the bar
        cost = np.cumsum(cnt) - cnt
    elif kind.name in ("max", "maxk"):  # disqualify every qualifying bar to the right
        k = kind.k or 1
        ok = cnt >= k
        trims = np.where(ok, cnt - k + 1, 0)
        cost = np.where(ok, trims.sum() - np.cumsum(trims), m + 1)  # below k: never
    else:  # mode: trim each rival to below the bar; a smaller point wins ties
        ranked = np.sort(cnt)
        above = np.concatenate((np.cumsum(ranked[::-1])[::-1], [0]))
        i = np.searchsorted(ranked, cnt, side="right")
        excess = above[i] - (cnt.size - i) * cnt  # trims of the strictly taller rivals
        # excess <= cost, so only bars with excess <= m can be reached; a rival
        # r with cnt[r] >= cnt[b] has excess[r] <= excess[b], so every rival a
        # candidate counts is a candidate too, and counting among them suffices
        cand = np.flatnonzero(excess <= m)
        cost = np.full(cnt.size, m + 1)
        cost[cand] = excess[cand] + _left_at_least(cnt[cand])
    reach = pts[cost <= m]
    reach.flags.writeable = False  # shared by every caller of the cache
    return reach


def _left_at_least(cnt: np.ndarray) -> np.ndarray:
    """out[b] = #{r < b : cnt[r] >= cnt[b]}, the rivals left of b that tie or beat it.

    In the order count descending, position ascending, r precedes b exactly
    when cnt[r] > cnt[b], or cnt[r] == cnt[b] and r < b; so out[b] counts
    the bars before b in that order with a smaller position, the count a
    Fenwick tree over positions gives.  Here it is a bottom-up merge sort in
    numpy: when the two sorted halves of a block merge, an element of the
    right half lands behind exactly the smaller left-half elements, so its
    merged offset minus its offset in the right half is its count at that
    level.  A stable sort of sorted runs merges them in linear time, so the
    whole is O(n log n).
    """
    n = cnt.size
    vals = np.argsort(-cnt, kind="stable")  # positions in that order
    idx = np.arange(n)
    out = np.zeros(n, dtype=np.int64)
    width = 1
    while width < n:
        start = idx - idx % (2 * width)  # first index of each block
        order = np.argsort(start * n + vals, kind="stable")  # merge each block's halves
        right = order - start >= width  # the element now at p came from the right half
        out[vals[order[right]]] += idx[right] - order[right] + width
        vals = vals[order]
        width *= 2
    return out


def check_drop_witness(x: Histogram, y: Histogram, budget: float) -> bool:
    """True iff y only removes elements from x and the removed count fits.

    The float budget b allows ⌊(b + ulp(b)/2)·|x|⌋ drops, as in scoring; a
    budget at or above 1 accepts any sub-histogram.
    """
    if x.space != y.space:
        raise DomainError("witness check across different spaces")
    for g, c in y.items():
        if c > x.count(g):
            return False
    return x.size - y.size <= _drop_cap(budget, x.size)


# ---------------------------------------------------------------------------
# brute-force enumeration oracles (tiny instances)


_BRUTE_COUNT_GUARD = 12


def _sub_histograms(x: Histogram, max_drops: int):
    ranges = [range(c, -1, -1) for _, c in x.items()]
    for counts in itertools.product(*ranges):
        dropped = x.size - sum(counts)
        if dropped > max_drops:
            continue
        yield x.with_counts(counts)


def flexible_error_brute(kind: StatisticKind, x: Histogram, released,
                         budget: float) -> float:
    """Definition-level oracle: enumerate every drop pattern within budget."""
    if x.size == 0:
        raise DomainError("flexible_error needs a non-empty histogram")
    if x.size > _BRUTE_COUNT_GUARD:
        raise DomainError(f"brute-force guard: more than {_BRUTE_COUNT_GUARD} elements")
    require_1d_statistic(kind, x)
    m = _drop_allowance(budget, x.size)
    if released is UNDEFINED:
        return _full_range(x)
    best = math.inf
    for y in _sub_histograms(x, m):
        try:
            value = eval_statistic(kind, y)
        except UndefinedStatisticError:
            continue
        if kind.name == "support":
            err = dsupp(released, value, x.space)
        else:
            err = abs(float(value) - float(released))
        best = min(best, err)
    return best if not math.isinf(best) else _full_range(x)


def trlap_pmf_factory(tau: float) -> Callable[[int, int, float], np.ndarray]:
    """Per-bar release pmfs of the truncated-Laplace stage at width tau*|x|."""
    if not 0 < tau < 1:
        raise ParameterError(f"tau must be in (0,1), got {tau}")

    def factory(count: int, size: int, eps: float) -> np.ndarray:
        return trlap_output_pmf(count, tau * size, eps)

    return factory
