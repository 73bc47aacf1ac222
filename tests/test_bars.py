"""Histogram.bars() and with_counts(), and the code built on them.

The statistic evaluation and the three noisy releases used to convert a
histogram to lists or dicts and back; those versions are kept verbatim
below as references.  The library's must give == results with the same
items() order and hash, and leave both random streams at the same place.
Every mechanism given a sequence of streams must give what it gives each
stream alone, and a statistic read off count rows must be the statistic of
the histogram those counts make.
"""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexhist.audit import _reachable
from flexhist.baselines import (
    bns_hist,
    bns_mech,
    exp_mech,
    ptr_mech,
    sanpoints,
    sanpoints_mech,
    ss_mech,
)
from flexhist.bench import RELEASES
from flexhist.hist import (
    MAX,
    MIN,
    MODE,
    SUPPORT,
    UNDEFINED,
    CountRows,
    DomainError,
    Histogram,
    MetricSpace,
    ParameterError,
    UndefinedStatisticError,
    eval_statistic,
    maxk,
    statistic_or_undefined,
)
from flexhist.mechanisms import (
    MechParams,
    RngStream,
    cumulative_weights,
    mech_buckethist,
    mech_hbs,
    mech_trlap,
    pick,
    trlap_sample,
)

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
        g = pts[int(pick(cumulative_weights(w), rng.random()))]
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
    # the state holds the buffered 32-bit half-draw too, which random() skips
    assert rng_new.bit_generator.state == rng_old.bit_generator.state
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
    assert isinstance(got, CountRows) and len(got) == len(plan)
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
    class TopDraw(np.random.Generator):
        def __init__(self, seed):
            super().__init__(np.random.PCG64(seed))  # RngStream(seed)'s bit generator

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


# ---------------------------------------------------------------------------
# every mechanism over a batch of streams against one stream at a time


# integer points, as the baselines need
int_hists = st.dictionaries(st.integers(0, 63), st.integers(1, 6) | st.integers(1, 400),
                            max_size=16).map(lambda d: Histogram(d, SPACE))

#: each mechanism of bench.RELEASES as a function of (kind, x, eps, rng)
STATISTIC_RELEASES = {
    "buckethist": lambda kind, x, eps, rng: mech_hbs(
        kind, x, MechParams(0.3, 4.0, eps, x.space.bound, x.space.dimension), rng),
    "expmech": lambda kind, x, eps, rng: exp_mech(kind, x, eps, rng),
    "ptr": lambda kind, x, eps, rng: ptr_mech(kind, x, eps, 1e-3, rng),
    "smoothsens": lambda kind, x, eps, rng: ss_mech(kind, x, eps, 1e-3, rng),
    "bnshist": lambda kind, x, eps, rng: bns_mech(kind, x, eps, 1e-3, rng),
    "sanpoints": lambda kind, x, eps, rng: sanpoints_mech(kind, x, eps, 2.0**-20, rng,
                                                          k_rounds=3),
}
#: the histogram releases, as functions of (x, eps, rng)
HISTOGRAM_RELEASES = {
    "trlap": lambda x, eps, rng: mech_trlap(x, 0.2, eps, rng),
    "trlap at tau = 0": lambda x, eps, rng: mech_trlap(x, 0.0, eps, rng),
    "buckethist": lambda x, eps, rng: mech_buckethist(
        x, MechParams(0.3, 4.0, eps, x.space.bound, x.space.dimension), rng),
    "bnshist": lambda x, eps, rng: bns_hist(x, eps, 1e-3, rng),
    "sanpoints": lambda x, eps, rng: sanpoints(x, eps, 2.0**-20, min(3, max(1, len(x))), rng),
}


def _releasable(name):
    allowed = RELEASES[name]
    return st.sampled_from([k for k in (MAX, MIN, MODE, SUPPORT) if k.name in allowed]) \
        | st.integers(1, 400).map(maxk)


@st.composite
def statistic_cases(draw):
    name = draw(st.sampled_from(sorted(STATISTIC_RELEASES)))
    kind = draw(_releasable(name))
    x = draw(int_hists)
    if name == "buckethist":  # needs a non-empty input; bucketing takes any dimension
        x = draw((int_hists | plane_hists) if kind == SUPPORT else int_hists)
        if x.size == 0:
            x = Histogram({3: 5}, x.space) if x.space.dimension == 1 else Histogram(
                {(3, 3): 5}, x.space)
    return name, kind, x


@settings(max_examples=400, deadline=None)
@given(statistic_cases(), epsilons, stream_plans)
def test_every_mechanism_batched_matches_one_stream_at_a_time(case, eps, plan):
    name, kind, x = case
    run = STATISTIC_RELEASES[name]
    batch, alone = _streams(plan), _streams(plan)
    got = run(kind, x, eps, batch)
    want = [run(kind, x, eps, rng) for rng in alone]
    assert isinstance(got, list) and got == want
    assert [type(v) for v in got] == [type(v) for v in want]
    for rng_batch, rng_alone in zip(batch, alone):
        assert_same_stream_position(rng_batch, rng_alone)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(HISTOGRAM_RELEASES)), int_hists | plane_hists, epsilons,
       stream_plans)
def test_every_histogram_release_batched_matches_one_stream_at_a_time(name, x, eps, plan):
    if name in ("bnshist", "sanpoints") and x.space.dimension != 1:
        x = Histogram({g[0]: c for g, c in x.items()}, SPACE)  # merges bars with one x
    if name.startswith(("trlap", "buckethist")) and x.size == 0:
        x = Histogram({3: 5}, SPACE)
    run = HISTOGRAM_RELEASES[name]
    batch, alone = _streams(plan), _streams(plan)
    got = run(x, eps, batch)
    assert isinstance(got, CountRows) and len(got) == len(plan)
    for y, rng in zip(got, alone):
        assert_same(y, run(x, eps, rng))
    assert got == list(got) and got == tuple(got) and got[::2] == list(got)[::2]
    for rng_batch, rng_alone in zip(batch, alone):
        assert_same_stream_position(rng_batch, rng_alone)


def test_mechanisms_take_an_empty_batch():
    x = Histogram({3: 40, 9: 7}, SPACE)
    for name, run in STATISTIC_RELEASES.items():
        assert run(MAX, x, 1.0, []) == [], name
    for name, run in HISTOGRAM_RELEASES.items():
        assert run(x, 1.0, []) == [], name


def test_mech_trlap_at_tau_zero_releases_x_for_every_stream():
    x = Histogram({3: 40, 9: 7}, SPACE)
    assert mech_trlap(x, 0.0, 1.0, RngStream(0)) is x
    assert mech_trlap(x, 0.0, 1.0, [RngStream(0), RngStream(1)]) == [x, x]


# ---------------------------------------------------------------------------
# statistics read off count rows


def _statistic_alone(kind, x, row):
    """statistic_or_undefined of x.with_counts(row), or the error it raises."""
    try:
        return statistic_or_undefined(kind, x.with_counts(row))
    except DomainError as exc:
        return exc


def _check_rows(kind, x, rows):
    want = [_statistic_alone(kind, x, row) for row in rows]
    errors = [w for w in want if isinstance(w, DomainError)]
    if errors:  # the first row rejected decides, as one release after another
        with pytest.raises(DomainError) as got:
            CountRows(x, rows).statistics(kind)
        assert str(got.value) == str(errors[0])
        return
    got = CountRows(x, rows).statistics(kind)
    assert got == want
    assert [type(v) for v in got] == [type(v) for v in want]
    for value, row in zip(got, rows):  # against the reference loops too
        y = x.with_counts(row)
        if kind == SUPPORT:
            assert value == (y.support() if y.size else UNDEFINED)
        elif x.space.dimension == 1:
            try:
                assert value == _eval_statistic_loops(kind, y)
            except UndefinedStatisticError:
                assert value is UNDEFINED


# small counts: rows with nothing above 0, mode ties, maxk with no bar qualifying
small_counts = st.sampled_from([-2, 0, 0, 1, 2, 3]) | st.integers(0, 400)


@settings(max_examples=400, deadline=None)
@given(KINDS | st.just(SUPPORT), line_hists | plane_hists, st.data())
def test_row_statistics_match_one_histogram_at_a_time(kind, x, data):
    rows = data.draw(st.lists(st.lists(small_counts, min_size=len(x), max_size=len(x)),
                              max_size=5))
    _check_rows(kind, x, np.array(rows, dtype=np.int64).reshape(len(rows), len(x)))
    _check_rows(kind, x, np.array(rows, dtype=float).reshape(len(rows), len(x)))


def test_row_statistics_examples():
    x = Histogram({1: 3, 4: 2, 7.5: 9, 9: 1}, SPACE)
    rows = CountRows(x, [[0, 0, 0, 0], [2, 5, 5, 1], [-1, 0, 3, 0], [1, 1, 1, 1]])
    assert rows.statistics(MAX) == [UNDEFINED, 9, 7.5, 9]
    assert rows.statistics(MIN) == [UNDEFINED, 1, 7.5, 1]
    assert rows.statistics(MODE) == [UNDEFINED, 4, 7.5, 1]  # ties: the smaller bar
    assert rows.statistics(maxk(3)) == [UNDEFINED, 7.5, 7.5, UNDEFINED]
    assert rows.statistics(SUPPORT)[1:3] == [frozenset({(1,), (4,), (7.5,), (9,)}),
                                             frozenset({(7.5,)})]
    plane = Histogram({(0, 1): 2, (3, 3): 4, (5, 0): 1}, PLANE)
    assert CountRows(plane, [[0, 2, 1], [0, 0, 0]]).statistics(SUPPORT) == [
        frozenset({(3, 3), (5, 0)}), UNDEFINED]
    assert CountRows(plane, [[0, 0, 0]]).statistics(MAX) == [UNDEFINED]  # empty: no 1-D check
    with pytest.raises(DomainError, match="1-D histograms only"):
        CountRows(plane, [[0, 0, 0], [1, 0, 0]]).statistics(MAX)
    # NaN and -inf drop out, as with_counts leaves them out
    assert CountRows(x, [[1.0, math.nan, -math.inf, math.nan]]).statistics(MAX) == [1]
    assert CountRows(Histogram({}, SPACE), np.zeros((2, 0))).statistics(MAX) == [UNDEFINED] * 2
    assert CountRows(x, np.zeros((0, 4))).statistics(MAX) == []
    with pytest.raises(DomainError, match="count rows of shape"):
        CountRows(x, [[1, 2, 3]])


@pytest.mark.parametrize("rows, match", [
    (np.array([[1.0, 2.0], [1.0, math.inf]]), "does not fit int64"),
    (np.array([[2.0**63, 1.0]]), "does not fit int64"),
    (np.array([[1, 1], [2**63, 0]], dtype=np.uint64), "does not fit int64"),
    (np.array([[2**62, 2**62]]), "limit is 2\\^63 - 1"),  # a row sum of 2^63
    (np.array([[2.0**62, 2.0**62], [1.0, math.inf]]), "limit is 2\\^63 - 1"),
    (np.array([[1.0, math.inf], [2.0**62, 2.0**62]]), "does not fit int64"),
])
def test_count_rows_reject_what_with_counts_rejects(rows, match):
    x = Histogram({1: 3, 4: 2}, SPACE)
    with pytest.raises(DomainError, match=match):
        for row in rows:
            x.with_counts(row)
    with pytest.raises(DomainError, match=match):
        CountRows(x, rows)


def test_count_rows_read_as_the_histograms_they_make():
    x = Histogram({1: 3, 4: 2, 9: 5}, SPACE)
    rows = CountRows(x, np.array([[1.0, -3.0, 2.0], [0.0, 0.0, 0.0]]))
    assert rows.rows.dtype == np.int64 and rows.rows.tolist() == [[1, 0, 2], [0, 0, 0]]
    with pytest.raises(ValueError):
        rows.rows[0, 0] = 7
    assert rows == [Histogram({1: 1, 9: 2}, SPACE), Histogram({}, SPACE)]
    assert rows != [Histogram({1: 1, 9: 2}, SPACE)] and rows != "rows"
    assert rows[-1] == Histogram({}, SPACE) and rows[:1] == [rows[0]]


# ---------------------------------------------------------------------------
# the pick rule


def _pick_two_searches(c, u):
    # the rule pick replaces: a right search, and past the end a left one
    i = int(np.searchsorted(c, u, side="right"))
    return i if i < len(c) else int(np.searchsorted(c, c[-1], side="left"))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.sampled_from([0.0, 1e-300, 0.5, 1.0, 3.0]) | st.floats(0, 1e3),
                         min_size=4, max_size=4).filter(lambda w: sum(w) > 0),
                min_size=1, max_size=4),
       st.lists(st.sampled_from([0.0, 0.5, 1.0 - 2.0**-53]) | st.floats(0, 1, exclude_max=True),
                min_size=4, max_size=4))
def test_pick_is_the_two_search_rule(weights, draws):
    c = cumulative_weights(np.array(weights))
    u = np.array(draws[:len(weights)])
    assert pick(c, u).tolist() == [_pick_two_searches(row, v) for row, v in zip(c, u)]
    first = c[0]  # one row of sums for every draw
    assert pick(first, np.array(draws)).tolist() == [_pick_two_searches(first, v)
                                                       for v in draws]
    assert int(pick(first, draws[0])) == _pick_two_searches(first, draws[0])
