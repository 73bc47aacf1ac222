"""Histogram.bars() and with_counts(), and the code built on them.

The statistic evaluation and the three noisy releases used to convert a
histogram to lists or dicts and back; those versions are kept verbatim
below as references.  The library's must give == results with the same
items() order and hash, and leave both random streams at the same place.
"""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexhist.audit import _reachable
from flexhist.baselines import bns_hist, sanpoints, sanpoints_mech
from flexhist.hist import (
    MAX,
    MIN,
    MODE,
    SUPPORT,
    DomainError,
    Histogram,
    MetricSpace,
    ParameterError,
    UndefinedStatisticError,
    eval_statistic,
    maxk,
)
from flexhist.mechanisms import UNDEFINED, RngStream, mech_trlap, trlap_sample

SPACE = MetricSpace(1, 64.0)
PLANE = MetricSpace(2, 8.0)


# ---------------------------------------------------------------------------
# references: the conversions these functions made before bars()


def _eval_statistic_loops(kind, x):
    if x.size == 0:
        raise UndefinedStatisticError("statistic of an empty histogram")
    bars = [(g[0], c) for g, c in x.items()]
    if kind.name == "max":
        return bars[-1][0]
    if kind.name == "min":
        return bars[0][0]
    if kind.name == "maxk":
        for g, c in reversed(bars):
            if c >= kind.k:
                return g
        raise UndefinedStatisticError(f"no bar reaches count {kind.k}")
    if kind.name == "mode":
        best_g, best_c = bars[0]
        for g, c in bars[1:]:
            if c > best_c:
                best_g, best_c = g, c
        return best_g
    raise ParameterError(f"unknown statistic {kind!r}")  # pragma: no cover


def _mech_trlap(x, tau, eps, rng):
    if tau == 0:
        return x
    points = [g for g, _ in x.items()]
    counts = np.array([c for _, c in x.items()], dtype=float)
    z = trlap_sample(tau * x.size, eps, rng, size=len(points))
    released = np.maximum(0.0, np.floor(counts + z + 0.5))  # round half away, then clamp
    out = {g: int(c) for g, c in zip(points, released) if c > 0}
    return Histogram(out, x.space)


def _bns_hist(x, eps, delta, rng):
    thr = 1.0 + 2.0 * math.log(2.0 / delta) / eps
    bars = list(x.items())
    noise = rng.laplace(scale=2.0 / eps, size=len(bars)).tolist()  # one draw per bar, in order
    out: dict[tuple, int] = {}
    for (g, n), z in zip(bars, noise):
        v = n + z
        if v > thr:
            out[g] = round(v)
    return Histogram(out, x.space)


def _sanpoints(x, eps, delta, k_rounds, rng):
    if len(x) == 0:
        return Histogram({}, x.space)
    remaining = dict(x.items())
    eps_round = eps / (2.0 * k_rounds)
    out: dict[tuple, int] = {}
    for _ in range(k_rounds):
        pts = list(remaining)  # point order: x's order, kept by pop
        heights = np.array([remaining[g] for g in pts], dtype=float)
        w = np.exp(eps_round * (heights - heights.max()) / 2.0)
        g = pts[rng.choice_weighted(w)]
        out[g] = max(0, round(remaining.pop(g) + rng.laplace(scale=2.0 * k_rounds / eps)))
    return Histogram(out, x.space)


# ---------------------------------------------------------------------------
# strategies and helpers


# half-integer points: integral ones become ints, the rest stay floats
line_hists = st.dictionaries(st.integers(0, 127), st.integers(1, 6) | st.integers(1, 400),
                            max_size=24).map(
    lambda d: Histogram({v / 2: c for v, c in d.items()}, SPACE))
plane_hists = st.dictionaries(st.tuples(st.integers(0, 7), st.integers(0, 7)),
                              st.integers(1, 60), max_size=12).map(
    lambda d: Histogram(d, PLANE))
seeds = st.integers(0, 2**64 - 1)
epsilons = st.floats(0.05, 5.0)


def assert_same(new, old):
    assert new == old
    assert list(new.items()) == list(old.items())
    assert hash(new) == hash(old)
    assert new.size == old.size


def assert_same_stream_position(rng_new, rng_old):
    assert rng_new.random() == rng_old.random()


# ---------------------------------------------------------------------------
# bars() and with_counts()


@settings(max_examples=150, deadline=None)
@given(st.one_of(line_hists, plane_hists))
def test_bars_are_the_items_in_point_order(x):
    points, counts = x.bars()
    assert list(zip(points, counts.tolist())) == list(x.items())
    assert counts.dtype == np.int64
    assert x.bars() is x.bars()  # built once


def test_bars_counts_are_read_only():
    x = Histogram({1: 3, 4: 2}, SPACE)
    with pytest.raises(ValueError):
        x.bars()[1][0] = 7
    assert x.bars()[1].tolist() == [3, 2]


@settings(max_examples=150, deadline=None)
@given(st.one_of(line_hists, plane_hists), st.data())
def test_with_counts_equals_the_checked_constructor(x, data):
    points = x.bars()[0]
    c = data.draw(st.lists(st.integers(0, 500), min_size=len(x), max_size=len(x)))
    y = x.with_counts(c)
    assert_same(y, Histogram(dict(zip(points, c)), x.space))
    back = pickle.loads(pickle.dumps(y))
    assert_same(back, y)
    assert back.bars()[0] == y.bars()[0]
    assert back.bars()[1].tolist() == y.bars()[1].tolist()


@settings(max_examples=100, deadline=None)
@given(line_hists, st.data())
def test_with_counts_leaves_out_nonpositive_and_takes_integral_floats(x, data):
    points = x.bars()[0]
    c = data.draw(st.lists(st.integers(-5, 50), min_size=len(x), max_size=len(x)))
    expected = Histogram({g: v for g, v in zip(points, c) if v > 0}, x.space)
    assert_same(x.with_counts(c), expected)
    assert_same(x.with_counts(np.array(c, dtype=float)), expected)
    assert all(type(v) is int for _, v in x.with_counts(np.array(c, dtype=float)).items())


def test_with_counts_rejects_counts_past_int64():
    x = Histogram({1: 3, 4: 2}, SPACE)
    for big in (2.0**63, 1e300, math.inf):
        with pytest.raises(DomainError, match="does not fit int64"):
            x.with_counts(np.array([1.0, big]))
    with pytest.raises(DomainError, match="limit is 2\\^63 - 1"):
        x.with_counts(np.array([2.0**62, 2.0**62]))
    top = float(np.nextafter(2.0**63, 0))  # the largest float below 2^63 fits
    assert x.with_counts(np.array([top, -math.inf])).bars()[1].tolist() == [int(top)]


# ---------------------------------------------------------------------------
# differential tests against the references


KINDS = st.one_of(st.sampled_from([MAX, MIN, MODE]), st.integers(1, 400).map(maxk))


@settings(max_examples=300, deadline=None)
@given(KINDS, line_hists)
def test_eval_statistic_matches_loops(kind, x):
    try:
        old = _eval_statistic_loops(kind, x)
    except UndefinedStatisticError:
        with pytest.raises(UndefinedStatisticError):
            eval_statistic(kind, x)
        return
    new = eval_statistic(kind, x)
    assert new == old
    assert type(new) is type(old)  # a Python scalar, never a numpy one


@settings(max_examples=150, deadline=None)
@given(st.one_of(line_hists, plane_hists).filter(lambda x: x.size > 0),
       st.floats(0.0, 0.95), epsilons, seeds)
def test_mech_trlap_matches_reference(x, tau, eps, seed):
    rng_new, rng_old = RngStream(seed), RngStream(seed)
    assert_same(mech_trlap(x, tau, eps, rng_new), _mech_trlap(x, tau, eps, rng_old))
    assert_same_stream_position(rng_new, rng_old)


@settings(max_examples=150, deadline=None)
@given(line_hists, epsilons, st.sampled_from([2.0**-20, 1e-6, 0.01, 0.5]), seeds)
def test_bns_hist_matches_reference(x, eps, delta, seed):
    rng_new, rng_old = RngStream(seed), RngStream(seed)
    assert_same(bns_hist(x, eps, delta, rng_new), _bns_hist(x, eps, delta, rng_old))
    assert_same_stream_position(rng_new, rng_old)


@settings(max_examples=150, deadline=None)
@given(line_hists, epsilons, st.integers(1, 24), seeds)
def test_sanpoints_matches_reference(x, eps, k_rounds, seed):
    k_rounds = min(k_rounds, max(1, len(x)))
    rng_new, rng_old = RngStream(seed), RngStream(seed)
    assert_same(sanpoints(x, eps, 2.0**-20, k_rounds, rng_new),
                _sanpoints(x, eps, 2.0**-20, k_rounds, rng_old))
    assert_same_stream_position(rng_new, rng_old)


@pytest.mark.parametrize("seed", [0, 7, 20260814, 2**64 - 1])
@pytest.mark.parametrize("eps", [0.05, 0.4, 0.8, 5.0])
def test_sanpoints_matches_reference_on_3000_bars(seed, eps):
    # the size of the large-hist benchmark, where the bars left to pick are
    # an index array rather than a list
    heights = np.random.default_rng(seed).poisson(3000, 3000)
    x = Histogram((np.arange(3000), heights), MetricSpace(1, 3000.0))
    rng_new, rng_old = RngStream(seed), RngStream(seed)
    assert_same(sanpoints(x, eps, 2.0**-20, 8, rng_new), _sanpoints(x, eps, 2.0**-20, 8, rng_old))
    assert_same_stream_position(rng_new, rng_old)


# ---------------------------------------------------------------------------
# sanpoints over a batch of streams against one stream at a time


def _streams(plan):
    """One stream per (seed, draws) pair, each after ``draws`` draws; an odd
    count also leaves half of a 64-bit draw buffered."""
    streams = []
    for seed, draws in plan:
        rng = RngStream(seed)
        rng.random(draws)
        if draws % 2:
            rng.integers(0, 1000, dtype=np.int32)
        streams.append(rng)
    return streams


stream_plans = st.lists(st.tuples(seeds, st.integers(0, 5)), min_size=1, max_size=6)


def _check_batch(x, eps, k_rounds, plan):
    batch, alone, ref = _streams(plan), _streams(plan), _streams(plan)
    got = sanpoints(x, eps, 2.0**-20, k_rounds, batch)
    assert isinstance(got, list) and len(got) == len(plan)
    for y, rng_alone, rng_ref in zip(got, alone, ref):
        assert_same(y, sanpoints(x, eps, 2.0**-20, k_rounds, rng_alone))
        assert_same(y, _sanpoints(x, eps, 2.0**-20, k_rounds, rng_ref))
    for rng_batch, rng_alone in zip(batch, alone):
        assert_same_stream_position(rng_batch, rng_alone)


@settings(max_examples=150, deadline=None)
@given(line_hists, epsilons, st.integers(1, 24), stream_plans)
def test_batched_sanpoints_matches_one_stream_at_a_time(x, eps, k_rounds, plan):
    _check_batch(x, eps, min(k_rounds, max(1, len(x))), plan)


@settings(max_examples=100, deadline=None)
@given(KINDS | st.just(SUPPORT), line_hists, epsilons, st.integers(1, 24), stream_plans)
def test_batched_sanpoints_mech_matches_one_stream_at_a_time(kind, x, eps, k_rounds, plan):
    batch, alone = _streams(plan), _streams(plan)
    got = sanpoints_mech(kind, x, eps, 2.0**-20, batch, k_rounds=k_rounds)
    assert got == [sanpoints_mech(kind, x, eps, 2.0**-20, rng, k_rounds=k_rounds)
                   for rng in alone]
    for rng_batch, rng_alone in zip(batch, alone):
        assert_same_stream_position(rng_batch, rng_alone)


@pytest.mark.parametrize("plan", [[(5, 0)], [(5, 0), (6, 3), (2**64 - 1, 1)]])
def test_batched_sanpoints_edges(plan):
    x = Histogram({1: 40, 7.5: 3, 20: 17, 33: 40}, SPACE)
    _check_batch(x, 0.7, len(x), plan)  # every bar picked
    _check_batch(x, 1e300, 2, plan)     # no noise to speak of
    empty = Histogram({}, SPACE)
    assert sanpoints(empty, 1.0, 2.0**-20, 3, _streams(plan)) == [empty] * len(plan)
    assert sanpoints_mech(MAX, empty, 1.0, 2.0**-20, _streams(plan)) == [UNDEFINED] * len(plan)
    assert sanpoints(x, 1.0, 2.0**-20, 2, []) == []
    for eps in (1e-300, 1e-310):  # noise past int64; an infinite scale at 1e-310
        with pytest.raises(DomainError, match="does not fit int64"):
            sanpoints(x, eps, 2.0**-20, 3, _streams(plan))


def test_batched_sanpoints_pick_past_the_last_cumulative_weight():
    # at eps' = 40 the weights cumulate to 1 - 2^-52, and the last one is 0:
    # a draw of 1 - 2^-53 lies past every sum, and the pick falls back to
    # the first bar where the sums reach their end, bar 2
    class TopDraw(RngStream):
        def random(self, *args, **kwargs):
            return 1.0 - 2.0**-53 if not args and not kwargs else super().random(*args, **kwargs)

    x = Histogram({0: 38, 1: 39, 2: 38, 3: 1}, SPACE)
    h = x.bars()[1].astype(float)
    w = np.exp(40.0 * (h - h.max()) / 2.0)
    c = np.cumsum(w / w.sum())
    assert c[-1] < 1.0 - 2.0**-53 and w[-1] == 0 and c[2] == c[-1]
    got = sanpoints(x, 80.0, 2.0**-20, 1, [RngStream(4), TopDraw(5), RngStream(6)])
    assert dict(got[1].items()) == {(2,): 38}
    assert_same(got[1], _sanpoints(x, 80.0, 2.0**-20, 1, TopDraw(5)))
    assert_same(got[1], sanpoints(x, 80.0, 2.0**-20, 1, TopDraw(5)))
    for y, seed in zip(got[::2], (4, 6)):
        assert_same(y, _sanpoints(x, 80.0, 2.0**-20, 1, RngStream(seed)))


# ---------------------------------------------------------------------------
# scoring and evaluation read the same bars


@settings(max_examples=300, deadline=None)
@given(KINDS, line_hists.filter(lambda x: x.size > 0))
def test_reachable_without_drops_is_the_statistic(kind, x):
    reach = _reachable(kind, x, 0).tolist()
    try:
        value = eval_statistic(kind, x)
    except UndefinedStatisticError:
        assert kind.name == "maxk" and reach == []
        return
    assert reach == [float(value)]
