"""Finite-support lossy Wasserstein engine.

The worst-case transport distance with loss budget ``gamma`` is computed by
a reduction: a transport radius ``beta`` is achievable iff the maximum mass
routable through atom pairs at distance <= beta (source capacities P, sink
capacities Q) reaches ``1 - gamma``; the remaining mass is parked on
zero-distance diagonal cells, charging the marginal-deviation budget only.
The infimum over beta is attained on the set of pairwise distances (plus 0).
On the line, a greedy sweep finds the maximum flow at one radius and a
binary search over the integer radii (points scaled to integers) finds the
smallest feasible one.  In d >= 2, one flow network, grown by the atom pairs
of each distance in increasing order with its maximum flow carried over,
stops at the first distance whose flow reaches ``1 - gamma``.  The same
threshold flow, on integer counts, answers the move term of
``distortion.drmv``.

All flow arithmetic is exact: masses coming from histograms are exact
rationals and float masses convert to Fractions exactly, so the feasibility
predicate never suffers roundoff; the line solvers scale points and masses
by common denominators and run on ints.  Distances are compared exactly;
only the final square root is a float.  The average-case variant ships mass
``1 - theta`` by successive shortest augmenting paths, optimal at every
intermediate shipped mass: on the line, straight walks over one net flow
per gap between neighbouring points, with the cost summed exactly; in
d >= 2, Dijkstra on the flow network with float edge costs added.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from typing import Iterable, Sequence, Union

from .hist import (
    DomainError,
    Histogram,
    MetricSpace,
    Point,
    PointLike,
    as_point,
)

MassLike = Union[int, float, Fraction]

#: feasibility slack absorbing float->Fraction conversion of input masses
_FUZZ = Fraction(1, 10**12)


class DiscreteDistribution:
    """Finitely supported distribution over a metric space, exact masses."""

    __slots__ = ("atoms", "space")

    def __init__(self, atoms: Iterable[tuple[PointLike, MassLike]], space: MetricSpace):
        merged: dict[Point, Fraction] = {}
        for g, m in atoms:
            mass = Fraction(m)
            if mass <= 0:
                raise DomainError(f"atom mass {m!r} must be positive")
            pt = as_point(g, space.dimension)
            merged[pt] = merged.get(pt, Fraction(0)) + mass
        if not merged:
            raise DomainError("distribution needs at least one atom")
        total = sum(merged.values())
        if abs(total - 1) > _FUZZ:
            raise DomainError(f"masses sum to {float(total)}, expected 1")
        object.__setattr__(self, "atoms", tuple(sorted(merged.items())))
        object.__setattr__(self, "space", space)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("DiscreteDistribution is immutable")

    @classmethod
    def from_histogram(cls, x: Histogram) -> "DiscreteDistribution":
        """x normalised to mass 1; also takes a ``FractionalHistogram``."""
        if x.size == 0:
            raise DomainError("cannot normalise an empty histogram")
        n = x.size
        return cls([(g, Fraction(c, n)) for g, c in x.items()], x.space)

    def mass(self, g: PointLike) -> Fraction:
        pt = as_point(g, self.space.dimension)
        for p, m in self.atoms:
            if p == pt:
                return m
        return Fraction(0)

    def points(self) -> tuple[Point, ...]:
        return tuple(p for p, _ in self.atoms)

    def __len__(self) -> int:
        return len(self.atoms)

    def __repr__(self) -> str:
        inner = ", ".join(f"{p}: {float(m):.4g}" for p, m in self.atoms)
        return f"DiscreteDistribution({{{inner}}})"


@dataclass(frozen=True)
class Coupling:
    """Joint mass assignment; cells are (source point, target point, mass).

    Target points are allowed outside Q's support: slack mass parks on
    diagonal cells and is paid for by the marginal-deviation budget instead
    of the transport radius.
    """

    cells: tuple[tuple[Point, Point, Fraction], ...]

    def total_mass(self) -> Fraction:
        return sum((m for *_xy, m in self.cells), Fraction(0))

    def first_marginal(self) -> dict[Point, Fraction]:
        out: dict[Point, Fraction] = {}
        for src, _dst, m in self.cells:
            out[src] = out.get(src, Fraction(0)) + m
        return out

    def second_marginal(self) -> dict[Point, Fraction]:
        out: dict[Point, Fraction] = {}
        for _src, dst, m in self.cells:
            out[dst] = out.get(dst, Fraction(0)) + m
        return out

    def deviation_sum(self, p: DiscreteDistribution, q: DiscreteDistribution) -> Fraction:
        return _tv_of(self.first_marginal(), dict(p.atoms)) + _tv_of(
            self.second_marginal(), dict(q.atoms)
        )

    def max_distance(self, space: MetricSpace) -> float:
        return max((space.distance(a, b) for a, b, m in self.cells if m > 0), default=0.0)


def _tv_of(a: dict[Point, Fraction], b: dict[Point, Fraction]) -> Fraction:
    keys = set(a) | set(b)
    return sum((abs(a.get(k, Fraction(0)) - b.get(k, Fraction(0))) for k in keys), Fraction(0)) / 2


def tv_distance(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """Total variation distance: half the L1 gap over the union support."""
    if p.space != q.space:
        raise DomainError("tv_distance across different spaces")
    return float(_tv_of(dict(p.atoms), dict(q.atoms)))


# ---------------------------------------------------------------------------
# exact flow network (Fraction capacities, optional float edge costs)


class _FlowNet:
    def __init__(self, n: int):
        self.n = n
        self.cap: list[dict[int, Fraction]] = [dict() for _ in range(n)]
        self.cost: list[dict[int, float]] = [dict() for _ in range(n)]
        self.reached: set[int] = set()  # set by max_flow

    def add(self, u: int, v: int, c: MassLike, w: float = 0.0) -> None:
        self.cap[u][v] = self.cap[u].get(v, Fraction(0)) + c
        self.cap[v].setdefault(u, Fraction(0))
        self.cost[u][v] = w
        self.cost[v][u] = -w

    def augment(self, parent: list[int], s: int, t: int,
                limit: Fraction | None = None) -> tuple[Fraction, float]:
        """Push the bottleneck (at most ``limit``) along the parent path s -> t;
        returns the pushed amount and the path's cost."""
        path = []
        v = t
        while v != s:
            path.append((parent[v], v))
            v = parent[v]
        pushed = min(self.cap[u][v] for u, v in path)
        if limit is not None:
            pushed = min(limit, pushed)
        for u, v in path:
            self.cap[u][v] -= pushed
            self.cap[v][u] += pushed
        return pushed, sum(self.cost[u][v] for u, v in path)

    def max_flow(self, s: int, t: int) -> Fraction:
        """Edmonds-Karp: shortest augmenting paths by breadth-first search;
        ``reached`` keeps the nodes that its last, failed search reached."""
        total = Fraction(0)
        while True:
            parent = [-1] * self.n
            parent[s] = s
            queue = deque([s])
            while queue and parent[t] == -1:
                u = queue.popleft()
                for v, c in self.cap[u].items():
                    if parent[v] == -1 and c:  # residual capacities are >= 0
                        parent[v] = u
                        queue.append(v)
            if parent[t] == -1:
                self.reached = {v for v, u in enumerate(parent) if u != -1}
                return total
            total += self.augment(parent, s, t)[0]


def _bipartite(src_caps: Sequence[MassLike], dst_caps: Sequence[MassLike],
               pairs: Iterable[tuple[int, int, float]]) -> tuple[_FlowNet, int, int]:
    """Network s -> src i -> dst j -> t over the (i, j, cost) pairs.

    A pair's capacity is the total dst capacity, so it never binds before
    the sink edges do.
    """
    ns, nd = len(src_caps), len(dst_caps)
    net = _FlowNet(ns + nd + 2)
    s, t = ns + nd, ns + nd + 1
    for i, c in enumerate(src_caps):
        net.add(s, i, c)
    for j, c in enumerate(dst_caps):
        net.add(ns + j, t, c)
    wide = sum(dst_caps)
    for i, j, w in pairs:
        net.add(i, ns + j, wide, w)
    return net, s, t


def _threshold_flow(src: Sequence[tuple[Point, MassLike]],
                    dst: Sequence[tuple[Point, MassLike]],
                    space: MetricSpace, need: Fraction
                    ) -> tuple[Fraction, dict[tuple[int, int], Fraction]]:
    """Smallest squared radius at which mass ``need`` routes from src to dst.

    ``src`` and ``dst`` are (point, capacity) pairs, and only pairs within
    the radius carry flow.  The network takes the pairs in distance order and
    keeps its flow; it searches again only when a new pair leaves the set
    that the last failed search reached, which is otherwise still closed.
    Returns the radius (the largest one must route ``need``) and a maximum
    flow there as {(src index, dst index): mass}, sorted by key.  On the line
    the sweep of ``_line_threshold_flow`` answers instead, with no network.
    """
    if space.dimension == 1:
        return _line_threshold_flow(src, dst, need)
    ns = len(src)
    net, s, t = _bipartite([c for _, c in src], [c for _, c in dst], ())
    wide = sum(c for _, c in dst)  # the pair capacity of _bipartite
    pairs = sorted((space.dist2_exact(a, b), i, j)
                   for i, (a, _) in enumerate(src) for j, (b, _) in enumerate(dst))
    routed, beta2 = net.max_flow(s, t), Fraction(0)
    for d2, group in groupby(pairs, key=lambda pair: pair[0]):
        if routed >= need and d2 > 0:  # every pair within beta2 is in
            break
        beta2, grown = d2, False
        for _, i, j in group:
            net.add(i, ns + j, wide)
            grown = grown or i in net.reached
        if grown:
            routed += net.max_flow(s, t)
    back = [net.cap[ns + j] for j in range(len(dst))]  # residual back-edges
    flow = {(i, j): b[i] for i in range(ns) for j, b in enumerate(back)
            if b.get(i, 0) > 0}  # = shipped amounts, in (i, j) order
    return beta2, flow


def _integers(values: Iterable[MassLike]) -> tuple[int, list[int]]:
    """A common denominator of ``values`` and each value times it, so that
    sums and comparisons run on exact ints."""
    exact = [Fraction(v) for v in values]
    den = math.lcm(*(v.denominator for v in exact))
    return den, [v.numerator * (den // v.denominator) for v in exact]


def _line_threshold_flow(src: Sequence[tuple[Point, MassLike]],
                         dst: Sequence[tuple[Point, MassLike]], need: Fraction
                         ) -> tuple[Fraction, dict[tuple[int, int], Fraction]]:
    """``_threshold_flow`` in 1-D: a sweep at each probed radius.

    Taken in ascending order, each source fills the leftmost sinks within
    the radius that still have room.  A source's reachable sinks form an
    interval whose ends both move right with the source, so the sweep's flow
    is a maximum flow (Glover's rule for convex bipartite graphs).  Points
    and capacities are scaled to integers; feasibility changes only at
    pairwise gaps, which are then integers, so a binary search over the
    integers in [0, largest gap] lands on the exact radius.
    """
    ns = len(src)
    scale, at = _integers([a[0] for a, _ in src] + [b[0] for b, _ in dst])
    unit, room = _integers([c for _, c in src] + [c for _, c in dst])
    goal = math.ceil(need * unit)
    sources = sorted((x, i) for i, x in enumerate(at[:ns]))
    sinks = sorted((y, j) for j, y in enumerate(at[ns:], ns))
    end = len(sinks)

    def sweep(r: int) -> dict[tuple[int, int], int]:
        left, flow, k = room.copy(), {}, 0
        for x, i in sources:
            while k < end and sinks[k][0] < x - r:
                k += 1  # out of reach of this source and every later one
            while left[i] and k < end and sinks[k][0] <= x + r:
                j = sinks[k][1]
                moved = min(left[i], left[j])
                flow[i, j - ns] = moved
                left[i] -= moved
                left[j] -= moved
                if not left[j]:
                    k += 1
        return flow

    lo = -1
    hi = max(sinks[-1][0] - sources[0][0], sources[-1][0] - sinks[0][0])
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if sum(sweep(mid).values()) >= goal:
            hi = mid
        else:
            lo = mid
    flow = sweep(hi)
    return Fraction(hi, scale) ** 2, {key: Fraction(flow[key], unit) for key in sorted(flow)}


def _check_gamma(gamma: float) -> Fraction:
    if not 0 <= gamma <= 1:
        raise DomainError(f"gamma must be in [0,1], got {gamma}")
    return Fraction(gamma)


def winf_lossy(p: DiscreteDistribution, q: DiscreteDistribution, gamma: float) -> float:
    """gamma-lossy worst-case transport distance between p and q."""
    return winf_lossy_witness(p, q, gamma)[0]


def winf(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """Worst-case (infinity-order) transport distance, no loss allowed."""
    return winf_lossy(p, q, 0.0)


def winf_lossy_witness(p: DiscreteDistribution, q: DiscreteDistribution,
                       gamma: float) -> tuple[float, Coupling]:
    """The lossy distance together with an optimal coupling achieving it."""
    if p.space != q.space:
        raise DomainError("transport across different spaces")
    need = 1 - _check_gamma(gamma) - _FUZZ
    beta2, flow = _threshold_flow(p.atoms, q.atoms, p.space, need)
    cells: list[tuple[Point, Point, Fraction]] = []
    shipped = [Fraction(0)] * len(p.atoms)
    for (i, j), m in flow.items():
        cells.append((p.atoms[i][0], q.atoms[j][0], m))
        shipped[i] += m
    for i, (pt, mass) in enumerate(p.atoms):
        leftover = mass - shipped[i]
        if leftover > 0:
            cells.append((pt, pt, leftover))  # zero-distance slack cell
    return math.sqrt(float(beta2)), Coupling(tuple(cells))


# ---------------------------------------------------------------------------
# theta-lossy average distance: min-cost partial transport of mass 1 - theta


def w_avg_lossy(p: DiscreteDistribution, q: DiscreteDistribution, theta: float) -> float:
    """Average-case transport distance allowed to ignore a theta mass slice.

    Equivalent to shipping exactly ``1 - theta`` mass at minimum cost: the
    untransported slice pads both marginals at zero cost, consuming the
    deviation budget.  Successive shortest paths keep every intermediate
    shipped amount optimal, so the loop stops exactly at the target mass.
    """
    if p.space != q.space:
        raise DomainError("transport across different spaces")
    t = _check_gamma(theta)
    supply = sum(m for _, m in p.atoms)
    demand = sum(m for _, m in q.atoms)
    target = min(1 - t, supply, demand)
    if target <= 0:
        return 0.0
    return _min_cost_partial(p, q, target)


def _min_cost_partial(p: DiscreteDistribution, q: DiscreteDistribution,
                      target: Fraction) -> float:
    space = p.space
    if space.dimension == 1:
        return _line_min_cost_partial(p, q, target)
    net, s, t = _bipartite([m for _, m in p.atoms], [m for _, m in q.atoms],
                           ((i, j, space.distance(a, b))
                            for i, (a, _) in enumerate(p.atoms)
                            for j, (b, _) in enumerate(q.atoms)))
    n = net.n
    potential = [0.0] * n  # all raw costs >= 0, so Dijkstra works from the start
    shipped = Fraction(0)
    total_cost = 0.0
    while shipped < target:
        dist = [math.inf] * n
        prev = [-1] * n
        dist[s] = 0.0
        pq = [(0.0, s)]
        while pq:
            d, u = heapq.heappop(pq)
            if d > dist[u] + 1e-15:
                continue
            cost_u, pot_u = net.cost[u], potential[u]
            for v, c in net.cap[u].items():
                if c <= 0:
                    continue
                # reduced costs are >= 0 in exact arithmetic; float roundoff
                # can push one below, and a negative edge can close a cycle
                # in prev, so clamp it at 0
                rc = cost_u[v] + pot_u - potential[v]
                nd = d + rc if rc > 0.0 else d
                if nd < dist[v] - 1e-15:
                    dist[v] = nd
                    prev[v] = u
                    heapq.heappush(pq, (nd, v))
        if prev[t] == -1:
            break  # cannot ship more (supplies exhausted)
        for u in range(n):
            if dist[u] < math.inf:
                potential[u] += dist[u]
        pushed, path_cost = net.augment(prev, s, t, target - shipped)
        total_cost += path_cost * float(pushed)
        shipped += pushed
    return total_cost


def _line_min_cost_partial(p: DiscreteDistribution, q: DiscreteDistribution,
                           target: Fraction) -> float:
    """``_min_cost_partial`` in 1-D: successive shortest paths on the line.

    One node per distinct point and one signed net flow per gap between
    neighbours.  Crossing a gap against its flow costs -gap, up to that flow,
    and +gap otherwise, so a gap crossed there and back costs >= 0: with no
    negative cycle, a shortest augmenting path runs straight from a node with
    supply left to one with demand left, and ``_shortest_walk`` finds it.
    Points and masses are scaled to integers, so the cost sums exactly.
    """
    atoms = p.atoms + q.atoms
    scale, at = _integers([g[0] for g, _ in atoms])
    unit, mass = _integers([m for _, m in atoms] + [target])
    left = mass.pop()
    nodes = sorted(set(at))
    index = {x: k for k, x in enumerate(nodes)}
    supply, demand = [0] * len(nodes), [0] * len(nodes)
    for n, (x, m) in enumerate(zip(at, mass)):
        (supply if n < len(p.atoms) else demand)[index[x]] += m
    gaps = [b - a for a, b in zip(nodes, nodes[1:])]
    flow = [0] * len(gaps)  # net flow across each gap, > 0 rightward
    total = 0
    while left:
        cost, a, b = _shortest_walk(supply, demand, gaps, flow)
        step = 1 if a <= b else -1
        crossed = range(min(a, b), max(a, b))
        push = min([left, supply[a], demand[b]]
                   + [abs(flow[g]) for g in crossed if flow[g] * step < 0])
        for g in crossed:
            flow[g] += step * push
        supply[a] -= push
        demand[b] -= push
        left -= push
        total += push * cost
    return float(Fraction(total, scale * unit))


def _shortest_walk(supply: list[int], demand: list[int], gaps: list[int],
                   flow: list[int]) -> tuple[int, int, int]:
    """(cost, start, end) of the cheapest straight walk on the line from a
    node with supply left to one with demand left: one pass each way, each
    carrying the cheapest walk that reaches the current node."""
    best = None
    for step, order in ((1, range(len(supply))), (-1, range(len(supply) - 1, -1, -1))):
        run = None  # (cost, start)
        for k in order:
            if run is not None:
                g = k - 1 if step > 0 else k  # the gap just crossed
                run = (run[0] + (-gaps[g] if flow[g] * step < 0 else gaps[g]), run[1])
            if supply[k] and (run is None or run[0] > 0):
                run = (0, k)
            if demand[k] and run is not None and (best is None or run[0] < best[0]):
                best = (run[0], run[1], k)
    return best
