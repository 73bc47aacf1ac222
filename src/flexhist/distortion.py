"""Input-distortion measures on histograms: drop, move, and their blend.

``drop`` charges the fraction of elements removed and forbids additions;
``move`` charges worst-case per-element displacement between equally sized
histograms; ``drmv`` drops down to the target size and then moves, with the
move term weighted by eta.  The drop count is forced to ``|x| - |y|``, so
the optimisation is only over *which* elements survive; that reduces to a
bipartite feasibility question (can the demands y be met from capacities x
using only edges of length <= t?) that ``transport``'s threshold flow solves
exactly, with no enumeration of intermediates: by a greedy sweep and an
integer search over the radius on the line, by one network grown in distance
order in d >= 2.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Union

from .hist import (
    DomainError,
    Histogram,
    MetricSpace,
    ParameterError,
    Point,
    PointLike,
    as_point,
)
from .transport import DiscreteDistribution, _threshold_flow, winf, winf_lossy_witness


class FractionalHistogram:
    """Histogram with exact rational bar masses (intermediate constructions).

    Mirrors the read API of Histogram (space/size/count/items/support) so the
    distortion functions accept either kind.
    """

    __slots__ = ("_entries", "space")

    def __init__(self, entries: Iterable[tuple[PointLike, Union[int, Fraction]]],
                 space: MetricSpace):
        merged: dict[Point, Fraction] = {}
        for g, m in entries:
            mass = Fraction(m)
            if mass < 0:
                raise DomainError(f"negative bar mass {m!r}")
            if mass == 0:
                continue
            pt = as_point(g, space.dimension)
            merged[pt] = merged.get(pt, Fraction(0)) + mass
        object.__setattr__(self, "_entries", dict(sorted(merged.items())))
        object.__setattr__(self, "space", space)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("FractionalHistogram is immutable")

    @property
    def size(self) -> Fraction:
        return sum(self._entries.values(), Fraction(0))

    def count(self, g: PointLike) -> Fraction:
        return self._entries.get(as_point(g, self.space.dimension), Fraction(0))

    def items(self) -> tuple[tuple[Point, Fraction], ...]:
        return tuple(self._entries.items())

    def support(self) -> frozenset[Point]:
        return frozenset(self._entries)

    def __eq__(self, other) -> bool:
        return (isinstance(other, FractionalHistogram)
                and self.space == other.space and self._entries == other._entries)

    def __repr__(self) -> str:
        inner = ", ".join(f"{g}: {m}" for g, m in self._entries.items())
        return f"FractionalHistogram({{{inner}}})"


AnyHistogram = Union[Histogram, FractionalHistogram]


def drop(x: AnyHistogram, y: AnyHistogram) -> float:
    """Fraction of x's elements removed to reach y; +inf if y adds anywhere."""
    if x.space != y.space:
        raise DomainError("drop across different spaces")
    if x.size <= 0:
        raise DomainError("drop needs a non-empty source histogram")
    for g, m in y.items():
        if m > x.count(g):
            return math.inf
    return float(Fraction(x.size - y.size) / Fraction(x.size))


def move(x: AnyHistogram, y: AnyHistogram) -> float:
    """Worst per-element displacement between equal-size histograms.

    Infinite when sizes differ; zero when both are empty.
    """
    if x.space != y.space:
        raise DomainError("move across different spaces")
    if x.size != y.size:
        return math.inf
    if x.size == 0:
        return 0.0
    return winf(DiscreteDistribution.from_histogram(x),
                DiscreteDistribution.from_histogram(y))


class DrmvResult(NamedTuple):
    value: float
    witness: Optional[Histogram]  # surviving sub-histogram z realizing the value


def _min_move_flow(x: Histogram, y: Histogram) -> tuple[float, Histogram]:
    """min over z <= x with |z| = |y| of move(z, y), plus an optimal z.

    move(z, y) <= t is equivalent to routing every demand y(g) from supplies
    capped by x over pairs at distance <= t, so the minimum is the smallest
    pairwise distance threshold at which that flow saturates.
    """
    xs = list(x.items())
    t2, flow = _threshold_flow(xs, list(y.items()), x.space, Fraction(y.size))
    kept: dict[Point, int] = {}
    for (i, _j), m in flow.items():
        kept[xs[i][0]] = kept.get(xs[i][0], 0) + int(m)
    return math.sqrt(float(t2)), Histogram(kept, x.space)


def drmv(x: Histogram, y: Histogram, eta: float) -> DrmvResult:
    """Drop down to |y| elements, then move them onto y; eta weights the move.

    Exact at any scale: the drop fraction is pinned at (|x|-|y|)/|x|, and the
    best achievable move term comes out of the threshold flow.
    """
    if eta < 0:
        raise ParameterError("eta must be non-negative")
    if x.space != y.space:
        raise DomainError("drmv across different spaces")
    if x.size == 0:
        raise DomainError("drmv needs a non-empty source histogram")
    if y.size > x.size:
        return DrmvResult(math.inf, None)
    drop_part = float(Fraction(x.size - y.size, x.size))
    if y.size == 0:
        return DrmvResult(drop_part, Histogram({}, x.space))
    move_val, z = _min_move_flow(x, y)
    return DrmvResult(drop_part + eta * move_val, z)


def drop_move_switch(x: Histogram, z: Histogram, y: Histogram) -> FractionalHistogram:
    """Reorder a move-then-drop path into drop-then-move through the same ends.

    Given move(x, z) = a1 finite (so |x| = |z|) and drop(z, y) = a2 < 1,
    builds s with drop(x, s) = a2 and move(s, y) <= a1: take an optimal
    coupling of the normalized x and z, thin each cell (g_x, g) by the
    survival ratio y(g)/z(g), renormalize by 1/(1-a2), and read off the
    first marginal times |y|.  Bar masses are exact rationals.
    """
    if x.space != z.space:
        raise DomainError("move across different spaces")
    if x.size != z.size:
        raise DomainError("move(x, z) must be finite")
    if z.size == 0:
        raise DomainError("switch needs a non-empty intermediate")
    d = drop(z, y)
    if math.isinf(d):
        raise DomainError("drop(z, y) must be finite")
    a2 = Fraction(z.size - y.size, z.size)
    if a2 >= 1:
        raise DomainError("drop(z, y) must be < 1")
    _, coupling = winf_lossy_witness(DiscreteDistribution.from_histogram(x),
                                     DiscreteDistribution.from_histogram(z), 0.0)
    keep = 1 - a2  # = |y| / |z|
    first: dict[Point, Fraction] = {}
    for gx, gz, m in coupling.cells:
        cz = z.count(gz)
        if cz == 0:
            raise DomainError("coupling leaked mass outside the intermediate support")
        ratio = Fraction(y.count(gz), cz)
        if ratio == 0:
            continue
        first[gx] = first.get(gx, Fraction(0)) + m * ratio / keep
    if sum(first.values(), Fraction(0)) != 1:
        raise DomainError("optimal coupling did not transport all mass")
    scaled = [(g, m * y.size) for g, m in first.items()]
    return FractionalHistogram(scaled, x.space)
