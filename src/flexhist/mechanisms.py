"""Histogram release mechanisms: truncated-Laplace noise, bucketing, statistics.

The core mechanism perturbs every occupied bar with strictly non-positive
noise drawn from a Laplace density centred at -q/2 and renormalised on
[-q, 0], then rounds and clamps.  Outputs are therefore always pointwise
below the input: the mechanism can only drop elements, never invent them,
which is what its accuracy certificate is built on.  Empty bars are never
touched, so the output support stays inside the input support.
"""

from __future__ import annotations

import copyreg
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .hist import (  # UNDEFINED, Undefined and statistic_or_undefined live in hist
    UNDEFINED,
    CountRows,
    DomainError,
    Histogram,
    ParameterError,
    Point,
    StatisticKind,
    Undefined,
    statistic_or_undefined,
)

_M64 = (1 << 64) - 1


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def split_seed(master: int, *indices: int) -> int:
    """Fold task indices into a 64-bit stream seed.

    s := master; for each index v: s := splitmix64(s XOR splitmix64(v)).
    Fixed for reproducibility: identical (master, indices) give identical
    streams on every platform.
    """
    s = master & _M64
    for v in indices:
        s = _splitmix64(s ^ _splitmix64(v & _M64))
    return s


def _splitmix64_array(z: np.ndarray) -> np.ndarray:
    """_splitmix64 on a uint64 array (of one dimension or more: numpy wraps
    array arithmetic silently, but warns on overflow of a scalar)."""
    z = z + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def split_seed_grid(master: int, prefix: tuple[int, ...], shape: tuple[int, ...]) -> np.ndarray:
    """split_seed over a grid of trailing indices, as a uint64 array:
    out[i, j, ...] == split_seed(master, *prefix, i, j, ...) for every index
    of ``shape``."""
    mixed = _splitmix64_array(np.arange(max(shape, default=0), dtype=np.uint64))
    s = np.full(1, split_seed(master, *prefix), dtype=np.uint64)
    for n in shape:  # one more index per pass: s gains an axis
        s = _splitmix64_array(s[..., None] ^ mixed[:n])
    return s.reshape(shape)


# numpy's SeedSequence: an integer seed is split into little-endian uint32
# words and hashed into a pool of four uint32 words, which then yields the
# PCG64 seed words.  Each hash multiplies by a running constant that depends
# only on how many hashes came before, so the constants are fixed here: 4 + 12
# pool hashes (A) and 8 output words (B), each step reading two constants.
_M32 = 0xFFFFFFFF


def _hash_constants(init: int, mult: int, steps: int) -> np.ndarray:
    out = [init]
    for _ in range(steps):
        out.append(out[-1] * mult & _M32)
    return np.array(out, dtype=np.uint32)[:, None]  # a column: one row per hash


_HASH_A = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_HASH_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG's default 128-bit multiplier
_M128 = (1 << 128) - 1


def _hash32(value: np.ndarray, before: np.ndarray, after: np.ndarray) -> np.ndarray:
    value = (value ^ before) * after
    return value ^ (value >> np.uint32(16))


def seed_sequence_words(seeds: np.ndarray) -> np.ndarray:
    """SeedSequence(seed).generate_state(4, np.uint64) for every seed of a
    uint64 array, on a new last axis of length 4: the words PCG64(seed)
    seeds itself from (see RngStream.restate).

    numpy's SeedSequence, run over a (4, seeds) uint32 pool.  A seed below
    2^32 has one entropy word where a larger one has two, but the pool pads
    with the hash of 0, the high word such a seed has.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    flat = seeds.reshape(-1)
    pool = np.zeros((4, flat.size), dtype=np.uint32)
    pool[0] = flat & np.uint64(_M32)
    pool[1] = flat >> np.uint64(32)
    pool = _hash32(pool, _HASH_A[:4], _HASH_A[1:5])
    k = 4
    for src in range(4):  # mix each word into the other three, in order
        dst = [d for d in range(4) if d != src]
        mixed = _hash32(pool[src], _HASH_A[k:k + 3], _HASH_A[k + 1:k + 4])
        k += 3
        r = np.uint32(0xCA01F9DD) * pool[dst] - np.uint32(0x4973F715) * mixed
        pool[dst] = r ^ (r >> np.uint32(16))
    out = _hash32(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _HASH_B[:8], _HASH_B[1:])
    # little-endian pairs of uint32 make the uint64 words, as in numpy
    words = np.ascontiguousarray(out.T).astype("<u4", copy=False).view("<u8")
    return words.astype(np.uint64, copy=False).reshape(seeds.shape + (4,))


def __getattr__(name: str):
    # RngStream is defined on first use (PEP 562): it subclasses numpy's
    # Generator, and importing numpy.random adds about 6 MB to a process that
    # imports flexhist only to transport or score
    if name != "RngStream":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

    class RngStream(np.random.Generator):
        """Deterministic pseudo-random stream: numpy's Generator over PCG64.

        RngStream(seed) is np.random.default_rng(seed), with the seed taken mod
        2^64.  ``restate`` re-seeds the stream in place, so one object serves
        task after task.
        """

        __qualname__ = "RngStream"

        def __init__(self, seed: int):
            super().__init__(np.random.PCG64(seed & _M64))

        def restate(self, words: Sequence[int]) -> RngStream:
            """Re-seed in place: afterwards this stream draws what RngStream(seed)
            draws.  Returns self.

            ``words`` is seed's row of seed_sequence_words, as Python ints.
            PCG64's srandom step turns it into the (state, inc) pair that
            default_rng(seed) starts from: state 0 steps to inc, adds the seed
            and steps again, in 128-bit arithmetic.  The 32-bit half-draw that
            integers() can leave buffered is dropped too, so nothing of what the
            stream drew before carries over.
            """
            s_hi, s_lo, i_hi, i_lo = words
            inc = ((i_hi << 64 | i_lo) << 1 | 1) & _M128
            state = (((s_hi << 64 | s_lo) + inc) * _PCG_MULT + inc) & _M128
            self.bit_generator.state = {"bit_generator": "PCG64",
                                        "state": {"state": state, "inc": inc},
                                        "has_uint32": 0, "uinteger": 0}
            return self

        def choice_weighted(self, weights: np.ndarray) -> int:
            return int(pick(cumulative_weights(weights), self.random()))

    # numpy's Generator pickles and copies as the base class: register a
    # reduction that rebuilds this class at the same stream position
    copyreg.pickle(RngStream, lambda s: (_stream_at, (type(s), s.bit_generator.state)))
    globals()["RngStream"] = RngStream
    return RngStream


def _stream_at(cls: type, state: dict):
    stream = cls(0)
    stream.bit_generator.state = state
    return stream


def as_streams(rng) -> tuple[list, bool]:
    """(streams, one): ``rng`` as a list of streams, and whether it was a
    single stream rather than a sequence of them.

    A mechanism given a sequence of distinct streams returns one result per
    stream, each what it returns given that stream alone: every stream makes
    the draws it would make alone, in the same order.  A single stream is a
    batch of one.
    """
    one = isinstance(rng, np.random.Generator)
    return ([rng] if one else list(rng)), one


def cumulative_weights(weights) -> np.ndarray:
    """The cumulative sums of weights / their total along the last axis: one
    row per pick, or one row for every pick."""
    w = np.asarray(weights, dtype=float)
    total = w.sum(axis=-1, keepdims=True)
    if not total.min(initial=1.0) > 0:  # NaN is the minimum if there is one
        raise ParameterError("weights must have positive total")
    return np.add.accumulate(w / total, axis=-1)  # np.cumsum, with less call overhead


def pick(c: np.ndarray, u):
    """The bar each uniform draw u picks on cumulative weights c (one row
    per draw, or one row for every draw): searchsorted(c, u, side="right").

    A draw at or past c[-1], which rounding can leave below 1, picks the last
    bar with weight, the first where c reaches c[-1]: so every draw is capped
    at the float just below c[-1], and the pick is the count of sums <= u.
    """
    u = np.minimum(u, np.nextafter(c[..., -1], 0.0))
    if c.ndim == 1:  # the same count, by bisection
        return np.searchsorted(c, u, side="right")
    return (c <= u[..., None]).sum(axis=-1)


# ---------------------------------------------------------------------------
# noise


def emptiness_probs(q: int, eps: float, delta: float) -> np.ndarray:
    """Bar-emptying probabilities p_0..p_q of the count-reduction scheme.

    p_k = delta*(e^{k*eps}-1)/(e^eps-1) for k <= q/2 and p_k = 1 - p_{q-k}
    above; p_0 = 0 and p_q = 1.  The two halves agree at q/2 exactly when
    (eps, delta, q) sit on the pareto curve delta*(e^{eps*q/2}-1)/(e^eps-1)
    = 1/2, which is checked.
    """
    if q < 1 or int(q) != q:
        raise ParameterError("q must be a positive integer")
    if not (eps > 0 and 0 < delta < 1):
        raise ParameterError("need eps > 0 and delta in (0,1)")
    mid = delta * math.expm1(eps * q / 2) / math.expm1(eps)
    if abs(mid - 0.5) > 1e-9:
        raise ParameterError(
            f"(eps, delta, q) off the pareto curve: delta*ratio = {mid!r}, expected 0.5")
    q = int(q)
    p = np.empty(q + 1)
    for k in range(q + 1):
        if 2 * k <= q:
            p[k] = delta * math.expm1(k * eps) / math.expm1(eps)
        else:
            p[k] = 1.0 - delta * math.expm1((q - k) * eps) / math.expm1(eps)
    return p


def trlap_cdf(q: float, eps: float, t: float) -> float:
    """P(z <= t) for the shifted-truncated Laplace noise on [-q, 0]."""
    if t <= -q:
        return 0.0
    if t >= 0:
        return 1.0
    # Laplace(-q/2, 1/eps) cdf, renormalised so that mass on [-q, 0] is 1
    u = t + q / 2
    lap = 0.5 * math.exp(eps * u) if u <= 0 else 1.0 - 0.5 * math.exp(-eps * u)
    lo = 0.5 * math.exp(-eps * q / 2)
    return (lap - lo) / (1.0 - 2.0 * lo)


def trlap_sample(q: float, eps: float, rng: RngStream, size=None):
    """Inverse-CDF draws from the shifted-truncated Laplace density."""
    z = _trlap_quantile(q, eps, rng.random(size))
    return float(z) if size is None else z


def _trlap_quantile(q: float, eps: float, u) -> np.ndarray:
    """The truncated-Laplace noise at uniform levels u, elementwise."""
    lo = 0.5 * math.exp(-eps * q / 2)  # Laplace cdf at -q
    p = lo + np.asarray(u) * (1.0 - 2.0 * lo)  # untruncated cdf level
    with np.errstate(divide="ignore"):
        left = -q / 2 + np.log(2.0 * p) / eps
        right = -q / 2 - np.log(2.0 * (1.0 - p)) / eps
    return np.clip(np.where(p <= 0.5, left, right), -q, 0.0)


def trlap_output_pmf(k: int, q: float, eps: float) -> np.ndarray:
    """Exact release pmf over {0..k} for a bar of count k under the mechanism.

    The released count is max(0, round(k + z)); rounding is half away from
    zero, so count j < k collects the noise mass with k + z in [j-1/2, j+1/2)
    and j = 0 absorbs everything below 1/2.
    """
    if k < 0 or int(k) != k:
        raise ParameterError("k must be a non-negative integer")
    if not (q > 0 and eps > 0):
        raise ParameterError("q and eps must be positive")
    k = int(k)
    if k == 0:
        return np.array([1.0])
    pmf = np.empty(k + 1)
    pmf[0] = trlap_cdf(q, eps, 0.5 - k)
    for j in range(1, k):
        pmf[j] = trlap_cdf(q, eps, j + 0.5 - k) - trlap_cdf(q, eps, j - 0.5 - k)
    pmf[k] = 1.0 - trlap_cdf(q, eps, -0.5)
    return pmf


# ---------------------------------------------------------------------------
# mechanisms


def mech_trlap(x: Histogram, tau: float, eps: float,
               rng: RngStream | Sequence[RngStream]) -> Histogram | CountRows:
    """Per-bar truncated-Laplace release with truncation q = tau * |x|.

    tau = 0 degenerates to the identity (zero noise).  Occupied bars lose at
    most floor(q + 1/2) elements each; empty bars stay empty.  For a sequence
    of streams (see as_streams), CountRows: each stream draws its bars'
    uniform levels as alone, and the noise and rounding run on all the rows.
    """
    streams, one = as_streams(rng)
    if not 0 <= tau < 1:
        raise ParameterError(f"tau must be in [0,1), got {tau}")
    if x.size == 0:
        raise DomainError("mech_trlap needs a non-empty histogram")
    counts = x.bars()[1]
    if tau == 0:  # every release is x
        return x if one else CountRows(x, np.tile(counts, (len(streams), 1)))
    if not eps > 0:
        raise ParameterError("eps must be positive")
    u = np.empty((len(streams), len(counts)))
    for s, row in zip(streams, u):
        s.random(out=row)  # the draws of s.random(len(counts))
    z = _trlap_quantile(tau * x.size, eps, u)
    released = CountRows(x, np.floor(counts + z + 0.5))  # round half away; <= 0 is dropped
    return released[0] if one else released


@dataclass(frozen=True)
class BucketSpec:
    """Axis-aligned bucketing of [0,B)^d into cells of width w."""

    w: float
    B: float
    d: int = 1

    def __post_init__(self) -> None:
        if not self.w > 0:
            raise ParameterError("bucket width must be positive")
        if not self.B > 0:
            raise ParameterError("domain bound must be positive")
        if self.d < 1:
            raise ParameterError("dimension must be >= 1")

    @property
    def buckets_per_axis(self) -> int:
        return math.ceil(self.B / self.w)

    @property
    def bucket_count(self) -> int:
        return self.buckets_per_axis ** self.d

    def center(self, g: Point) -> Point:
        out = []
        for v in g:
            i = math.floor(v / self.w)  # cell [w*i, w*(i+1)) has center w*(i+1/2)
            c = round(self.w * (i + 0.5), 12)
            out.append(int(c) if float(c).is_integer() else c)
        return tuple(out)


@lru_cache(maxsize=16)
def mech_bucket(x: Histogram, spec: BucketSpec) -> Histogram:
    """Deterministic bucketing: every element moves to its cell center.

    Both arguments are immutable and hashable, and the result depends on
    nothing else, so each (dataset, spec) is bucketed once and every task on
    that dataset shares the (immutable) result.
    """
    if x.space.dimension != spec.d:
        raise DomainError("bucket spec dimension differs from histogram dimension")
    if spec.d == 1:
        return _bucket_line(x, spec)
    out: dict[Point, int] = {}
    for g, c in x.items():
        if any(not 0 <= v < spec.B for v in g):
            raise DomainError(f"point {g} outside [0,{spec.B})^{spec.d}")
        center = spec.center(g)
        out[center] = out.get(center, 0) + c
    return Histogram(out, x.space)


def _bucket_line(x: Histogram, spec: BucketSpec) -> Histogram:
    """mech_bucket on the line, in numpy: each occupied cell's centre is
    computed once, as BucketSpec.center computes it."""
    (points, counts), coords = x.bars(), x.coordinates()
    outside = (coords < 0) | (coords >= spec.B)
    if outside.any():
        raise DomainError(f"point {points[np.argmax(outside)]} outside [0,{spec.B})^{spec.d}")
    cells = np.floor(coords / spec.w)
    starts = np.flatnonzero(np.diff(cells, prepend=-np.inf))  # cells ascend too
    centres = spec.w * (cells[starts] + 0.5)
    # round(c, 12) leaves c as it is where c has at most 12 decimals, as every
    # multiple of 2^-12 has; it is correctly rounded, np.round is not
    inexact = np.flatnonzero(np.floor(centres * 4096) != centres * 4096)
    centres[inexact] = [round(c, 12) for c in centres[inexact].tolist()]
    return Histogram((centres, np.add.reduceat(counts, starts)), x.space)


@dataclass(frozen=True)
class MechParams:
    """Drop budget alpha, output-error bound beta, privacy eps over [0,B)^d."""

    alpha: float
    beta: float
    eps: float
    B: float
    d: int = 1

    def __post_init__(self) -> None:
        if not 0 <= self.alpha < 1:
            raise ParameterError("alpha must be in [0,1)")
        if not self.beta > 0:
            raise ParameterError("beta must be positive")
        if not self.eps > 0:
            raise ParameterError("eps must be positive")
        if not (0 < self.B < math.inf and self.d >= 1):
            raise ParameterError("B must be finite and positive, and d >= 1")

    @property
    def w(self) -> float:
        # per-axis width chosen so a cell's half-diagonal is beta
        return 2.0 * self.beta / math.sqrt(self.d)

    @property
    def bucket_spec(self) -> BucketSpec:
        return BucketSpec(w=self.w, B=self.B, d=self.d)

    @property
    def t(self) -> int:
        return self.bucket_spec.bucket_count

    @property
    def tau(self) -> float:
        return self.alpha / self.t


def mech_buckethist(x: Histogram, p: MechParams,
                    rng: RngStream | Sequence[RngStream]) -> Histogram | CountRows:
    """Bucket to width 2*beta, then truncated-Laplace with tau = alpha / t."""
    return mech_trlap(mech_bucket(x, p.bucket_spec), p.tau, p.eps, rng)


def mech_hbs(kind: StatisticKind, x: Histogram, p: MechParams,
             rng: RngStream | Sequence[RngStream]):
    """Release a histogram statistic through the bucketed noisy histogram.

    Returns UNDEFINED instead of raising when the released statistic does
    not exist; callers score that as full-range error.  For a sequence of
    streams, a list with one statistic per stream, read off the release's
    count rows.
    """
    streams, one = as_streams(rng)
    values = mech_buckethist(x, p, streams).statistics(kind)
    return values[0] if one else values
