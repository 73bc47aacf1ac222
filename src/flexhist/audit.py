"""Ground-truth verification: exact DP audit, flexible error, transport oracle.

Everything here is an independent route: these functions re-derive answers
from definitions (LP over lossy couplings, enumeration over product output
spaces, enumeration over drop patterns) rather than reusing the production
algorithms, so the two implementations can check each other.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import linprog

from .hist import (
    DomainError,
    Histogram,
    ParameterError,
    StatisticKind,
    UndefinedStatisticError,
    dsupp,
    eval_statistic,
    neighbors,
)
from .mechanisms import UNDEFINED, NoiseSpec, trlap_output_pmf
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
    eps_grid: tuple[float, ...] = ()

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


def _drop_allowance(budget: float, n: int) -> int:
    """Largest m with m/n <= budget + ulp(budget)/2: the float stands for
    every real that rounds to it, so the float nearest k/n allows k drops."""
    if not 0 <= budget < 1:
        raise ParameterError(f"drop budget must be in [0,1), got {budget}")
    return math.floor((Fraction(budget) + Fraction(math.ulp(budget)) / 2) * n)


def _full_range(x: Histogram) -> float:
    bound = x.space.bound
    if math.isinf(bound):
        raise DomainError("undefined release needs a bounded space to score")
    return float(bound)


def flexible_error(kind: StatisticKind, x: Histogram, released, budget: float) -> float:
    """Min over sub-histograms within the drop budget of |statistic - released|.

    An undefined release scores the full range, same as the benchmark's
    scoring rule.  Exact routines per statistic; no enumeration.
    """
    if x.size == 0:
        raise DomainError("flexible_error needs a non-empty histogram")
    if released is None or released is UNDEFINED:
        return _full_range(x)
    m = _drop_allowance(budget, x.size)
    if kind.name in ("max", "min"):
        return _flex_extreme(x, float(released), m, largest=kind.name == "max")
    if kind.name == "maxk":
        return _flex_maxk(x, kind.k, float(released), m)
    if kind.name == "mode":
        return _flex_mode(x, float(released), m)
    raise ParameterError(f"no exact flexible-error routine for {kind}")


def _flex_extreme(x: Histogram, released: float, m: int, largest: bool) -> float:
    """Max (largest) or min: with j drops the reachable value is the
    (j+1)-th element counted from that end, for j up to m (never all n)."""
    pts = np.array([g[0] for g, _ in x.items()], dtype=float)
    cnt = np.array([c for _, c in x.items()], dtype=np.int64)
    elems = np.repeat(pts, cnt)  # items() is point-sorted ascending
    if largest:
        elems = elems[::-1]
    reach = elems[: min(m, elems.size - 1) + 1]
    return float(np.abs(reach - released).min())


def _flex_maxk(x: Histogram, k: int, released: float, m: int) -> float:
    bars = sorted(x.items(), reverse=True)  # largest ground point first
    best = math.inf
    used = 0
    for g, c in bars:
        if c < k:
            continue
        if used <= m:
            best = min(best, abs(g[0] - released))
        used += c - k + 1  # cost of disqualifying this bar before moving left
    if math.isinf(best):  # nothing qualifies even before dropping
        return _full_range(x)
    return best


def _flex_mode(x: Histogram, released: float, m: int) -> float:
    pts = np.array([g[0] for g, _ in x.items()], dtype=float)
    cnt = np.array([c for _, c in x.items()], dtype=np.int64)
    # cost[b] = sum over rivals of the trims needed before bar b wins the
    # argmax; a smaller point wins ties, so rivals left of b must be beaten
    # outright (the +1).
    tie = (pts[None, :] < pts[:, None]).astype(np.int64)
    trims = np.maximum(0, cnt[None, :] - cnt[:, None] + tie)
    np.fill_diagonal(trims, 0)
    costs = trims.sum(axis=1)
    feasible = costs <= m
    return float(np.abs(pts[feasible] - released).min())


def check_drop_witness(x: Histogram, y: Histogram, budget: float) -> bool:
    """True iff y only removes elements from x and the removed fraction fits.

    A hair of tolerance absorbs the float rounding of computed budgets.
    """
    if x.space != y.space:
        raise DomainError("witness check across different spaces")
    for g, c in y.items():
        if c > x.count(g):
            return False
    if x.size == 0:
        return True
    dropped = Fraction(x.size - y.size, x.size)
    return dropped <= Fraction(budget) + Fraction(1, 10**12)


# ---------------------------------------------------------------------------
# brute-force enumeration oracles (tiny instances)


_BRUTE_COUNT_GUARD = 12


def _sub_histograms(x: Histogram, max_drops: int):
    bars = list(x.items())
    ranges = [range(c, -1, -1) for _, c in bars]
    for counts in itertools.product(*ranges):
        dropped = x.size - sum(counts)
        if dropped > max_drops:
            continue
        yield Histogram({g: c for (g, _), c in zip(bars, counts) if c > 0}, x.space)


def flexible_error_brute(kind: StatisticKind, x: Histogram, released,
                         budget: float) -> float:
    """Definition-level oracle: enumerate every drop pattern within budget."""
    if x.size == 0:
        raise DomainError("flexible_error needs a non-empty histogram")
    if x.size > _BRUTE_COUNT_GUARD:
        raise DomainError(f"brute-force guard: more than {_BRUTE_COUNT_GUARD} elements")
    if released is None or released is UNDEFINED:
        return _full_range(x)
    m = _drop_allowance(budget, x.size)
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
        return trlap_output_pmf(count, NoiseSpec(q=tau * size, eps=eps))

    return factory
