"""Histogram data model, ground-set metrics and histogram statistics.

Histograms are finite multisets over a bounded Euclidean box [0, B)^d, stored
as their occupied points in ascending order and an int64 count for each.  Ground
points are tuples of coordinates; 1-D points may be passed as bare scalars
anywhere and are normalised internally.  All objects are immutable after construction.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Iterable, Iterator, Mapping, Union

import numpy as np

Scalar = Union[int, float]
Point = tuple[Scalar, ...]
PointLike = Union[Scalar, Point]


class DomainError(ValueError):
    """Input outside an operation's domain (empty histogram, space mismatch, ...)."""


class ParameterError(ValueError):
    """Structurally valid input with out-of-range parameters."""


class UndefinedStatisticError(DomainError):
    """The requested statistic does not exist on this histogram."""


def as_point(g: PointLike, dimension: int) -> Point:
    if isinstance(g, tuple):
        pt = g
    else:
        pt = (g,)
    if len(pt) != dimension:
        raise DomainError(f"point {g!r} has dimension {len(pt)}, space expects {dimension}")
    for v in pt:
        if not math.isfinite(v):
            raise DomainError(f"non-finite coordinate in point {g!r}")
    # ints where integral, so text round-trips and dict keys stay canonical
    return tuple(int(v) if isinstance(v, float) and v.is_integer() else v for v in pt)


@dataclass(frozen=True)
class MetricSpace:
    """Euclidean box [0, B)^d with the usual L2 distance."""

    dimension: int = 1
    bound: float = math.inf

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ParameterError("dimension must be >= 1")
        if not self.bound > 0:
            raise ParameterError("bound must be positive")

    def contains(self, g: PointLike) -> bool:
        pt = as_point(g, self.dimension)
        return all(0 <= v < self.bound for v in pt)

    def distance(self, a: PointLike, b: PointLike) -> float:
        pa = as_point(a, self.dimension)
        pb = as_point(b, self.dimension)
        if self.dimension == 1:
            return abs(pa[0] - pb[0])
        return math.sqrt(sum((u - v) ** 2 for u, v in zip(pa, pb)))

    def dist2_exact(self, a: PointLike, b: PointLike) -> Fraction:
        """Squared distance as an exact rational (floats convert exactly)."""
        pa = as_point(a, self.dimension)
        pb = as_point(b, self.dimension)
        return sum((Fraction(u) - Fraction(v)) ** 2 for u, v in zip(pa, pb))


class Histogram:
    """Immutable sparse histogram: non-negative integer count per ground point."""

    __slots__ = ("_bars", "_size", "space", "_hash", "_coords")

    def __init__(self, entries: Mapping[PointLike, int] | tuple[np.ndarray, np.ndarray],
                 space: MetricSpace):
        """entries: a ``point -> count`` mapping, or on a 1-D space a pair of
        arrays (coordinates, counts), checked as the mapping is."""
        if isinstance(entries, tuple):
            self._fill_arrays(*entries, space)
            return
        canonical: dict[Point, int] = {}
        for g, c in entries.items():
            if not 0 <= c < 2**63 or c != int(c):  # counts are int64 in bars()
                raise DomainError(f"count {c!r} at {g!r} must be a non-negative integer"
                                  " below 2^63")
            if c == 0:
                continue
            pt = as_point(g, space.dimension)
            canonical[pt] = canonical.get(pt, 0) + int(c)
        size = _checked_size(canonical.values())  # first: a merged count may not fit int64
        points = tuple(sorted(canonical))
        self._fill(points, np.array([canonical[p] for p in points], np.int64), size, space)

    def _fill_arrays(self, points, counts, space: MetricSpace) -> None:
        points, counts = np.asarray(points), np.asarray(counts)
        if space.dimension != 1 or points.ndim != 1 or points.shape != counts.shape:
            raise DomainError(f"(points, counts) must be 1-D arrays of one length on a 1-D"
                              f" space, got shapes {points.shape} and {counts.shape}"
                              f" on dimension {space.dimension}")
        if points.dtype.kind not in "iuf" or counts.dtype.kind not in "iuf":
            raise DomainError(f"points and counts must be numbers, got dtypes"
                              f" {points.dtype} and {counts.dtype}")
        ok = (counts >= 0) & (counts < 2**63)
        if counts.dtype.kind == "f":  # NaN fails every comparison
            ok &= np.floor(counts) == counts
        if not ok.all():
            i = np.argmin(ok)
            raise DomainError(f"count {counts[i].item()!r} at {points[i].item()!r} must be"
                              " a non-negative integer below 2^63")
        keep = counts != 0
        points, counts = points[keep], counts[keep].astype(np.int64)
        if not np.isfinite(points).all():
            raise DomainError(f"non-finite coordinate in point"
                              f" {points[np.argmin(np.isfinite(points))].item()!r}")
        size = _checked_size(counts)  # before the merge below can wrap
        order = np.argsort(points, kind="stable")
        points, counts = points[order], counts[order]
        first = np.ones(points.size, dtype=bool)  # equal points merge
        first[1:] = points[1:] != points[:-1]
        starts = np.flatnonzero(first)
        points, counts = points[starts], np.add.reduceat(counts, starts)
        keys = points.tolist()
        if points.dtype.kind == "f":  # ints where integral, as in as_point
            for i in np.flatnonzero(np.floor(points) == points).tolist():
                keys[i] = int(keys[i])
        self._fill(tuple(zip(keys)), counts, size, space)

    def _fill(self, points: tuple[Point, ...], counts: np.ndarray, size: int,
              space: MetricSpace) -> Histogram:
        # points canonical and ascending; counts their positive int64 counts, summing to size
        counts.flags.writeable = False
        object.__setattr__(self, "_bars", (points, counts))
        object.__setattr__(self, "_size", size)
        object.__setattr__(self, "space", space)
        return self

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Histogram is immutable")

    def __reduce__(self):
        # rebuild through __init__: the default protocol would set the slots
        # through the guard above
        return (Histogram, (dict(self.items()), self.space))

    @property
    def size(self) -> int:
        return self._size

    def count(self, g: PointLike) -> int:
        points, counts = self._bars
        i = bisect_left(points, pt := as_point(g, self.space.dimension))
        return int(counts[i]) if i < len(points) and points[i] == pt else 0

    def support(self) -> frozenset[Point]:
        return frozenset(self._bars[0])

    def items(self) -> Iterator[tuple[Point, int]]:
        return zip(self._bars[0], self._bars[1].tolist())  # ascending point order

    def bars(self) -> tuple[tuple[Point, ...], np.ndarray]:
        """(points, counts): the points ascending, their counts as a read-only int64 array."""
        return self._bars

    def coordinates(self) -> np.ndarray:
        """The points of a 1-D histogram as a read-only float64 array, ascending."""
        try:
            return self._coords
        except AttributeError:  # first call; kept, as the hash is
            v = np.array([v for v, in self._bars[0]], dtype=float)
            v.flags.writeable = False
            object.__setattr__(self, "_coords", v)
            return v

    def with_counts(self, counts) -> Histogram:
        """These points with new integral counts, one per bar in point order; <= 0 is left out."""
        points, counts = self.bars()[0], np.asarray(counts)
        keep = np.flatnonzero(counts > 0)
        kept = counts[keep]
        # a float at or past 2^63, inf too, or a uint64 past int64 has no int64
        # to cast to; int64 counts fit
        if kept.dtype.kind in "fu" and (kept >= 2**63).any():
            raise DomainError(f"count {kept.max().item()!r} does not fit int64")
        kept = kept.astype(np.int64)
        if keep.size < len(points):
            points = tuple([points[i] for i in keep.tolist()])
        size = _checked_size(kept)
        return object.__new__(Histogram)._fill(points, kept, size, self.space)

    def __len__(self) -> int:
        return len(self._bars[0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return (self.space == other.space and self._bars[0] == other._bars[0]
                and self._bars[1].tobytes() == other._bars[1].tobytes())  # both int64

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:  # first call; the bars never change, so keep it
            h = hash((self.space, self._bars[0], self._bars[1].tobytes()))
            object.__setattr__(self, "_hash", h)
            return h

    def __repr__(self) -> str:
        inner = ", ".join(f"{_fmt_point(g)}: {c}" for g, c in self.items())
        return f"Histogram({{{inner}}}, size={self.size})"


def _checked_size(counts: np.ndarray | Iterable[int]) -> int:
    """The exact sum of non-negative counts, which must stay below 2^63.

    An int64 array of n counts, none above (2^63 - 1) // n, sums in int64
    without wrapping; any other array is summed as Python ints.
    """
    if isinstance(counts, np.ndarray):
        if counts.dtype == np.int64 and (counts.size == 0
                                         or counts.max() <= (2**63 - 1) // counts.size):
            return int(counts.sum())
        counts = counts.tolist()
    size = sum(counts)
    if size >= 2**63:  # sums of counts are int64 too
        raise DomainError(f"{size} elements in one histogram, the limit is 2^63 - 1")
    return size


def require_same_space(x: Histogram, y: Histogram) -> None:
    if x.space != y.space:
        raise DomainError(f"mismatched spaces: {x.space} vs {y.space}")


def neighbors(x: Histogram, y: Histogram) -> bool:
    """True iff the histograms differ by at most one element (L1 of counts <= 1)."""
    require_same_space(x, y)
    diff = 0
    for g in x.support() | y.support():
        diff += abs(x.count(g) - y.count(g))
        if diff > 1:
            return False
    return True


def dhist(x: Histogram, y: Histogram) -> float:
    """Worst-case transport distance between the two normalised histograms."""
    require_same_space(x, y)
    if x.size == 0 or y.size == 0:
        raise DomainError("dhist needs non-empty histograms")
    from .transport import DiscreteDistribution, winf

    return winf(DiscreteDistribution.from_histogram(x), DiscreteDistribution.from_histogram(y))


def dsupp(s1: Iterable[PointLike], s2: Iterable[PointLike],
          space: MetricSpace | None = None) -> float:
    """Two-sided farthest-point distance between finite point sets.

    max over each set of the distance from its farthest point to the other
    set.  The 1-D endpoint formula max(|min diff|, |max diff|) is a lower
    bound of this, not an equivalent (interior points can stick out).
    """
    if space is None:
        space = MetricSpace(dimension=1)
    a = [as_point(g, space.dimension) for g in s1]
    b = [as_point(g, space.dimension) for g in s2]
    if not a or not b:
        raise DomainError("dsupp needs non-empty sets")
    d_ab = max(min(space.distance(p, q) for q in b) for p in a)
    d_ba = max(min(space.distance(q, p) for p in a) for q in b)
    return max(d_ab, d_ba)


# ---------------------------------------------------------------------------
# statistics


#: the statistic names StatisticKind accepts
STATISTICS = ("max", "min", "maxk", "mode", "support")


@dataclass(frozen=True)
class StatisticKind:
    """One of max / min / maxk / mode / support; maxk carries its threshold k."""

    name: str
    k: int | None = None

    def __post_init__(self) -> None:
        if self.name not in STATISTICS:
            raise ParameterError(f"unknown statistic {self.name!r}")
        if self.name == "maxk":
            if self.k is None or self.k < 1:
                raise ParameterError("maxk requires k >= 1")
        elif self.k is not None:
            raise ParameterError(f"{self.name} takes no k")

    def __str__(self) -> str:
        return f"maxk({self.k})" if self.name == "maxk" else self.name


MAX = StatisticKind("max")
MIN = StatisticKind("min")
MODE = StatisticKind("mode")
SUPPORT = StatisticKind("support")


def maxk(k: int) -> StatisticKind:
    return StatisticKind("maxk", k)


def parse_statistic(text: str, k: int | None = None) -> StatisticKind:
    name = text.strip().lower()
    if name == "maxk" and k is None:
        raise ParameterError("maxk needs --k")
    return StatisticKind(name, k)


class Undefined:
    """Distinguished 'no release' value (empty output, unmet count threshold)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "undefined"


UNDEFINED = Undefined()


def eval_statistic(kind: StatisticKind, x: Histogram):
    """Evaluate a histogram statistic.

    Max/Min/MaxK/Mode are 1-D only and return the bar coordinate; Support
    returns the support as a frozenset of points.  Mode ties resolve to the
    smallest bar.  Raises UndefinedStatisticError when x is empty or no bar
    reaches the MaxK threshold.
    """
    if x.size == 0:
        raise UndefinedStatisticError("statistic of an empty histogram")
    value = statistic_or_undefined(kind, x)
    if value is UNDEFINED:
        raise UndefinedStatisticError(f"no bar reaches count {kind.k}")
    return value


def statistic_or_undefined(kind: StatisticKind, y: Histogram):
    """The statistic of a histogram, or UNDEFINED when it has none (empty
    histogram, no bar reaching a maxk threshold)."""
    return _row_statistics(kind, y, y.bars()[1][None])[0]


def _row_statistics(kind: StatisticKind, x: Histogram, counts: np.ndarray) -> list:
    """The statistic of x.with_counts(row) for each row of counts (int64,
    none negative, one per bar of x in point order), UNDEFINED where it has
    none, without building the histograms.

    The one owner of the statistics' rules: max, min and maxk take the last
    bar held, the first bar held and the last bar holding at least k; mode
    takes the first bar of the largest count, so ties go to the smaller bar.
    """
    if counts.shape[1] == 0:
        return [UNDEFINED] * len(counts)
    points = x.bars()[0]
    if kind.name == "support":
        held = counts > 0
        return [frozenset(compress(points, row)) if d else UNDEFINED
                for row, d in zip(held.tolist(), held.any(axis=1).tolist())]
    try:
        require_1d_statistic(kind, x)
    except DomainError:
        if counts.any():  # an empty release has no statistic to reject
            raise
        return [UNDEFINED] * len(counts)
    rows = np.arange(len(counts))
    if kind.name == "mode":  # argmax takes the first maximum
        i = counts.argmax(axis=1)
        defined = counts[rows, i] > 0
    else:
        held = counts >= (kind.k or 1)  # maxk's threshold; max and min: 1
        if kind.name == "min":
            i = held.argmax(axis=1)
        else:  # max, maxk: the first bar held from the right
            i = counts.shape[1] - 1 - held[:, ::-1].argmax(axis=1)
        defined = held[rows, i]
    # the stored Python scalar, not a numpy one
    return [points[j][0] if d else UNDEFINED for j, d in zip(i.tolist(), defined.tolist())]


def _checked_rows(x: Histogram, rows) -> np.ndarray:
    """Rows of counts on x's bars as int64, every count <= 0 (NaN too) set to
    0, with the checks with_counts makes, row after row: the same DomainError
    for the first row it rejects."""
    rows = np.asarray(rows)
    if rows.ndim != 2 or rows.shape[1] != len(x):
        raise DomainError(f"count rows of shape {rows.shape} on {len(x)} bars")
    top = np.fmax.reduce(rows, axis=None, initial=0).item()  # fmax: NaN is no maximum
    if top > (2**63 - 1) // max(1, len(x)):  # a count past int64, or a row that may sum past it
        for row in rows:  # with_counts raises at the first row it rejects
            x.with_counts(row)
    return np.fmax(rows, 0).astype(np.int64, copy=False)


class CountRows(Sequence):
    """Histograms on the bars of ``base``, one row of counts each: item i is
    base.with_counts(rows[i]), built when it is read.

    The rows are checked when the object is made, as with_counts would check
    them one after another, and kept as a read-only int64 array with every
    count <= 0 set to 0.  ``statistics`` reads a statistic off them.  Equal
    to a list or tuple of the same histograms.
    """

    __slots__ = ("base", "rows")

    def __init__(self, base: Histogram, rows):
        self.base = base
        self.rows = _checked_rows(base, rows)
        self.rows.flags.writeable = False

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        return self.base.with_counts(self.rows[i])

    def statistics(self, kind: StatisticKind) -> list:
        """The statistic of each item, UNDEFINED where it has none, read off
        the rows without building the histograms."""
        return _row_statistics(kind, self.base, self.rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (CountRows, list, tuple)):
            return NotImplemented
        return list(self) == list(other)

    def __repr__(self) -> str:
        return f"CountRows({list(self)!r})"


def require_1d_statistic(kind: StatisticKind, x: Histogram) -> None:
    """Raise DomainError for a statistic other than support on a histogram of
    more than one dimension."""
    if kind.name != "support" and x.space.dimension != 1:
        raise DomainError(f"{kind} is defined on 1-D histograms only")


# ---------------------------------------------------------------------------
# text format: one "<ground-point> <count>" line per bar, '#' comments,
# sorted by ground point; d-dim coordinates comma-separated.


def _fmt_point(g: Point) -> str:
    return ",".join(repr(v) for v in g) if len(g) > 1 else repr(g[0])


def _parse_coord(tok: str) -> Scalar:
    try:
        return int(tok)
    except ValueError:
        return float(tok)


def parse_histogram_text(text: str, space: MetricSpace | None = None) -> Histogram:
    entries: dict[Point, int] = {}
    dim = None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            point_tok, count_tok = line.split()
            pt = tuple(_parse_coord(t) for t in point_tok.split(","))
            count = int(count_tok)
        except ValueError as exc:
            raise DomainError(f"line {ln}: expected '<ground-point> <count>', got {raw!r}") from exc
        if count < 0:  # before the sum, where a later line could cancel it
            raise DomainError(f"line {ln}: count {count} is negative")
        if dim is None:
            dim = len(pt)
        elif len(pt) != dim:
            raise DomainError(f"line {ln}: mixed point dimensions")
        entries[pt] = entries.get(pt, 0) + count
    if space is None:
        if dim is None:
            raise DomainError("empty histogram file and no space given")
        top = max(max(pt) for pt in entries)
        space = MetricSpace(dimension=dim, bound=float(top) + 1)
    check_points(entries, space)
    return Histogram(entries, space)


def check_points(points: Iterable[Point], space: MetricSpace) -> None:
    """Raise DomainError naming the first point that the space does not contain."""
    for pt in points:
        if not space.contains(pt):
            raise DomainError(f"point {_fmt_point(pt)} outside [0, {space.bound:g})"
                              f"^{space.dimension}")


def read_histogram(path: str, space: MetricSpace | None = None) -> Histogram:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_histogram_text(fh.read(), space)


def format_histogram(x: Histogram) -> str:
    return "".join(f"{_fmt_point(g)} {c}\n" for g, c in x.items())


def write_histogram(x: Histogram, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_histogram(x))
