"""Baseline mechanisms, pinned against brute-force oracles on tiny domains."""

import itertools
import math
import random
import re
import tracemalloc
from collections import deque
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flexhist import baselines
from flexhist.audit import _reachable, flexible_error
from flexhist.baselines import (
    bns_hist,
    bns_mech,
    exp_mech,
    ptr_mech,
    ptr_stability_radius,
    sanpoints,
    sanpoints_mech,
    smooth_sensitivity,
    ss_mech,
)
from flexhist.hist import (
    MAX,
    MIN,
    MODE,
    SUPPORT,
    DomainError,
    Histogram,
    MetricSpace,
    ParameterError,
    eval_statistic,
    maxk,
)
from flexhist.bench import gen_dataset, read_config
from flexhist.mechanisms import UNDEFINED, RngStream, split_seed

B100 = MetricSpace(1, 100.0)


def tiny_hist(counts):
    """Histogram over [0,len(counts)) from a dense counts vector."""
    space = MetricSpace(1, float(len(counts)))
    return Histogram({i: v for i, v in enumerate(counts) if v}, space)


def _stat_c(kind, c):
    """Statistic of a dense counts vector; None when undefined.

    Independent of the library: plain list scans, ties toward smaller bars.
    """
    if kind.name == "max":
        occupied = [i for i, v in enumerate(c) if v > 0]
        return occupied[-1] if occupied else None
    if kind.name == "maxk":
        qualified = [i for i, v in enumerate(c) if v >= kind.k]
        return qualified[-1] if qualified else None
    if kind.name == "mode":
        m = max(c)
        return c.index(m) if m > 0 else None
    raise AssertionError(kind)


def _counts_by_loop(x):
    """baselines._counts_vector as a loop over the bars."""
    bound = int(x.space.bound)
    c = np.zeros(bound, dtype=np.int64)
    for (v,), n in x.items():
        if v != int(v) or not 0 <= v < bound:
            raise DomainError(f"baseline mechanisms need integer points in [0, {bound}), got {v!r}")
        c[int(v)] = n
    return c


@settings(max_examples=200)
@given(st.dictionaries(st.one_of(st.integers(-3, 12), st.floats(-3, 12),
                                 st.sampled_from([1e30, -1e30, 2**60 + 1])),
                       st.integers(1, 5), max_size=6))
def test_counts_vector_matches_the_loop(entries):
    x = Histogram(entries, MetricSpace(1, 10.0))
    try:
        want = _counts_by_loop(x)
    except DomainError as exc:
        with pytest.raises(DomainError) as got:
            baselines._counts_vector(x)
        assert str(got.value) == str(exc)
        return
    assert baselines._counts_vector(x).tolist() == want.tolist()


# ---------------------------------------------------------------------------
# exponential mechanism


def test_exp_mech_matches_closed_form_distribution():
    # bound 4, f = 2, eps = 2: weights e^{-|2-r|/4}, frozen normalisation
    x = tiny_hist([0, 0, 1, 0])
    expected = np.array([
        0.19168941637660356,
        0.24613408273759835,
        0.3160424181481998,
        0.24613408273759835,
    ])
    n = 30000
    rng = RngStream(1111)
    tally = np.zeros(4, dtype=int)
    for _ in range(n):
        tally[exp_mech(MAX, x, 2.0, rng)] += 1
    assert scipy.stats.chisquare(tally, expected * n).pvalue > 1e-3


def test_exp_mech_uniform_at_eps_zero():
    x = tiny_hist([0, 0, 1, 0])
    n = 20000
    rng = RngStream(22)
    tally = np.zeros(4, dtype=int)
    for _ in range(n):
        tally[exp_mech(MAX, x, 0.0, rng)] += 1
    assert scipy.stats.chisquare(tally).pvalue > 1e-3


def test_exp_mech_undefined_statistic_falls_back_to_uniform_draw():
    x = tiny_hist([0, 0, 1, 0])
    rng = RngStream(5)
    draws = {exp_mech(maxk(5), x, 2.0, rng) for _ in range(200)}
    assert draws <= set(range(4))
    assert len(draws) > 1


def test_exp_mech_needs_bounded_domain():
    x = Histogram({2: 1}, MetricSpace(1))
    with pytest.raises(DomainError):
        exp_mech(MAX, x, 1.0, RngStream(0))
    plane = Histogram({(1, 2): 3, (4, 5): 1}, MetricSpace(2, 10.0))
    with pytest.raises(DomainError, match="^baseline mechanisms are 1-D only$"):
        exp_mech(MAX, plane, 1.0, RngStream(0))
    with pytest.raises(DomainError, match="^baseline mechanisms are 1-D only$"):
        ptr_mech(MAX, plane, 1.0, 0.01, RngStream(0))


# ---------------------------------------------------------------------------
# propose-test-release


def _unstable(kind, c):
    """One add/remove step from c changes the statistic or undefines it."""
    f = _stat_c(kind, c)
    if f is None:
        return False
    for i in range(len(c)):
        for dv in (1, -1):
            if dv < 0 and c[i] == 0:
                continue
            z = list(c)
            z[i] += dv
            if _stat_c(kind, tuple(z)) != f:
                return True
    return False


def _radius_bfs(kind, c0):
    """Shortest edit distance from c0 to an unstable counts vector."""
    cap = max(c0) + 3  # instability events never need counts above max+1
    seen = {c0}
    queue = deque([(c0, 0)])
    while queue:
        c, d = queue.popleft()
        if _unstable(kind, c):
            return d
        for i in range(len(c)):
            for dv in (1, -1):
                v = c[i] + dv
                if not 0 <= v <= cap:
                    continue
                z = c[:i] + (v,) + c[i + 1:]
                if z not in seen:
                    seen.add(z)
                    queue.append((z, d + 1))
    raise AssertionError("no unstable state reachable")


def test_ptr_radius_examples():
    assert ptr_stability_radius(MAX, tiny_hist([0, 0, 0, 5])) == 4
    assert ptr_stability_radius(MAX, tiny_hist([0, 0, 5, 0])) == 0
    assert ptr_stability_radius(maxk(2), tiny_hist([0, 4, 0, 1])) == 0
    assert ptr_stability_radius(maxk(2), tiny_hist([0, 4, 0, 0])) == 1
    assert ptr_stability_radius(MODE, tiny_hist([3, 3, 0, 0])) == 0
    x = Histogram({3: 50}, B100)
    assert ptr_stability_radius(MODE, x) == 49


def test_ptr_radius_matches_bfs_oracle():
    rng = random.Random(4242)
    checked = 0
    while checked < 150:
        bound = rng.choice((3, 4))
        c = tuple(rng.randint(0, 5) for _ in range(bound))
        kind = rng.choice((MAX, maxk(rng.randint(1, 3)), MODE))
        if _stat_c(kind, c) is None:
            continue
        lib = ptr_stability_radius(kind, tiny_hist(c) if any(c) else None)
        assert lib == _radius_bfs(kind, c), (kind, c)
        checked += 1


def test_ptr_mech_releases_exactly_when_stable():
    x = Histogram({3: 50}, B100)  # mode radius 49 >> ln(1/delta)/eps
    rng = RngStream(404)
    assert all(ptr_mech(MODE, x, 1.0, 0.01, rng) == 3 for _ in range(200))


def test_ptr_mech_randomises_when_unstable():
    x = Histogram({3: 50}, B100)  # max below the top bucket: radius 0
    rng = RngStream(405)
    out = [ptr_mech(MAX, x, 1.0, 0.01, rng) for _ in range(3000)]
    assert all(0 <= v < 100 for v in out)
    # exact release needs Lap(1) > ln(100): expect ~1.5% hits of the true value
    assert out.count(3) / len(out) < 0.05
    assert len(set(out)) > 50


def test_ptr_mech_undefined_statistic_randomises():
    x = Histogram({3: 50}, B100)
    rng = RngStream(7)
    out = {ptr_mech(maxk(60), x, 1.0, 0.01, rng) for _ in range(100)}
    assert out <= set(range(100)) and len(out) > 1


def test_ptr_radius_unsupported_statistic():
    from flexhist.hist import SUPPORT

    with pytest.raises(ParameterError):
        ptr_stability_radius(SUPPORT, tiny_hist([1, 0, 0]))


# ---------------------------------------------------------------------------
# smooth sensitivity


def _local_swing(kind, c):
    """Largest one-step statistic change at c, undefined neighbors skipped."""
    f = _stat_c(kind, c)
    ls = 0
    for i in range(len(c)):
        for dv in (1, -1):
            if dv < 0 and c[i] == 0:
                continue
            z = list(c)
            z[i] += dv
            fz = _stat_c(kind, tuple(z))
            if fz is not None:
                ls = max(ls, abs(fz - f))
    return ls


def _ss_brute(kind, x_counts, beta, cap):
    """sup over capped counts vectors y of swing(y) * e^{-beta * d(x,y)}."""
    bound = len(x_counts)
    best = 0.0
    for c in itertools.product(range(cap + 1), repeat=bound):
        if _stat_c(kind, c) is None:
            continue
        d = sum(abs(a - b) for a, b in zip(c, x_counts))
        w = math.exp(-beta * d)
        if w * (bound - 1) <= best:
            continue
        best = max(best, _local_swing(kind, c) * w)
    return best


def test_smooth_sensitivity_matches_brute_force():
    rng = random.Random(99)
    checked = 0
    while checked < 75:
        c = tuple(rng.randint(0, 4) for _ in range(3))
        kind = (MAX, maxk(rng.randint(1, 3)), MODE)[checked % 3]
        if _stat_c(kind, c) is None:
            continue
        beta = rng.choice((1.0, 1.5))
        cap = max(c) + 12  # mass beyond the cap contributes < 2 e^{-12 beta}
        brute = _ss_brute(kind, c, beta, cap)
        lib = smooth_sensitivity(kind, tiny_hist(c), beta)
        tail = (len(c) - 1) * math.exp(-beta * (cap - max(c)))
        assert brute - 1e-12 <= lib <= brute + tail, (kind, c, beta)
        checked += 1


def test_smooth_sensitivity_dominates_local_swing():
    rng = random.Random(7)
    for _ in range(40):
        c = tuple(rng.randint(0, 5) for _ in range(4))
        if _stat_c(MAX, c) is None:
            continue
        ss = smooth_sensitivity(MAX, tiny_hist(c), 1.0)
        assert ss >= _local_swing(MAX, c) - 1e-12
        assert ss <= len(c) - 1 + 1e-12


def test_smooth_sensitivity_non_increasing_in_beta():
    x = tiny_hist([0, 3, 0, 1, 2])
    vals = [smooth_sensitivity(MAX, x, b) for b in (0.5, 1.0, 2.0, 4.0)]
    assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


def test_smooth_sensitivity_validation():
    from flexhist.hist import SUPPORT

    with pytest.raises(ParameterError):
        smooth_sensitivity(MAX, tiny_hist([1, 0, 0]), 0.0)
    with pytest.raises(ParameterError):
        smooth_sensitivity(SUPPORT, tiny_hist([1, 0, 0]), 1.0)


# The three routines smooth_sensitivity used before they were evaluated in
# blocks, kept verbatim as references: the library's must return == results.
# Max now runs as _ss_maxk with k = 1, which must match the _ss_max reference.


def _ss_max(c: np.ndarray, beta: float) -> float:
    bound = len(c)
    idx = np.arange(bound)
    above = np.concatenate([np.cumsum(c[::-1])[::-1][1:], [0]])  # elements above T
    plant = (c == 0).astype(np.int64)
    # one addition at the top bucket swings the max from T to B-1
    best = float(((bound - 1 - idx) * np.exp(-beta * (above + plant))).max())
    # removal swing: top at T with a single copy, next occupied bar at N
    base = above + np.where(c >= 1, c - 1, 1)
    cum = np.cumsum(c)
    for t in range(1, bound):
        n = np.arange(t)
        between = cum[t - 1] - cum[n]  # elements strictly inside (N, T)
        cost = base[t] + between + plant[n]
        best = max(best, float(((t - n) * np.exp(-beta * cost)).max()))
    return best


def _ss_maxk(c: np.ndarray, k: int, beta: float) -> float:
    bound = len(c)
    qual = c >= k
    elimc = np.where(qual, c - k + 1, 0)  # per-bar cost to push below k
    e_above = np.concatenate([np.cumsum(elimc[::-1])[::-1][1:], [0]])
    e_cum = np.cumsum(elimc)
    make_b = np.clip(k - c, 0, None)  # raise bar b to qualify
    exact_b = np.abs(c - k)           # pin bar b at exactly k
    best = 0.0
    for b in range(bound):
        if b + 1 < bound:
            # addition swing: bar g one short of qualifying, so maxk jumps b -> g;
            # bars disqualified above b land on k-1 and are free targets
            g = np.arange(b + 1, bound)
            lift = np.where(qual[g], 0, k - 1 - c[g])
            cost = e_above[b] + make_b[b] + lift
            best = max(best, float(((g - b) * np.exp(-beta * cost)).max()))
        if b > 0:
            # removal swing: bar b at exactly k, next qualifying bar at p
            p = np.arange(b)
            between = e_cum[b - 1] - e_cum[p]
            lift_p = np.clip(k - c[p], 0, None)
            cost = e_above[b] + exact_b[b] + between + lift_p
            best = max(best, float(((b - p) * np.exp(-beta * cost)).max()))
    return best


def _ss_mode(c: np.ndarray, beta: float) -> float:
    bound = len(c)
    idx = np.arange(bound)
    hs = np.unique(c)
    hs = np.unique(np.concatenate([hs, hs + 1, hs + 2, [1]]))
    hs = hs[hs >= 1]
    best = 0.0
    for b in range(bound):
        left = idx < b
        for h in hs:
            # mode pinned at bar b with height h; challenger i one step from
            # taking over (ties break toward smaller bars)
            cap = np.where(left, h - 1, h)
            trims = np.clip(c - cap, 0, None)
            trims[b] = 0
            base = trims.sum() + abs(int(c[b]) - int(h))
            cost = base - trims + np.abs(c - cap)  # swap bar i's trim for its exact target
            vals = np.abs(idx - b) * np.exp(-beta * cost)
            vals[b] = 0.0
            best = max(best, float(vals.max()))
    return best


def _dataset0(name):
    """Dense counts of dataset 0 of a shipped config, and ss_mech's beta at
    each epsilon of its grid."""
    cfg = read_config(str(Path(__file__).resolve().parent.parent / "configs" / f"{name}.cfg"))
    x = gen_dataset(cfg, RngStream(split_seed(cfg.seed, 0)))
    betas = [eps / (2.0 * math.log(2.0 / cfg.delta)) for eps in cfg.eps_grid]
    return [x.count(g) for g in range(cfg.bound)], betas


_EXP5, _EXP5_BETAS = _dataset0("exp5")
_EXP6, _EXP6_BETAS = _dataset0("exp6")


@st.composite
def ss_cases(draw):
    # few distinct heights keep the references fast at 300 bars and make
    # ties likely; k sits at or next to one of the heights
    palette = draw(st.lists(st.integers(0, 400), min_size=1, max_size=6, unique=True))
    bars = draw(st.integers(1, 300))
    counts = draw(st.lists(st.sampled_from(palette), min_size=bars, max_size=bars))
    k = max(1, draw(st.sampled_from(palette)) + draw(st.integers(-1, 1)))
    beta = draw(st.sampled_from(_EXP5_BETAS + _EXP6_BETAS + [1e-4, 0.5, 3.0])
                | st.floats(1e-4, 4.0))
    return counts, k, beta


@settings(deadline=None, max_examples=80)
@given(case=ss_cases())
@example(case=([7] * 40, 7, 0.05))      # all counts equal, k at the height
@example(case=([0] * 12, 1, 0.5))       # all zeros
@example(case=([0, 3, 0, 3, 1, 3], 2, 1.0))  # ties and zeros
@example(case=([5], 5, 0.01))           # one bar
@example(case=(_EXP5, 250, _EXP5_BETAS[0]))
@example(case=(_EXP5, 251, _EXP5_BETAS[-1]))
@example(case=(_EXP6, 190, _EXP6_BETAS[0]))
@example(case=(_EXP6, 200, _EXP6_BETAS[-1]))
def test_smooth_sensitivity_matches_the_per_bar_loops(case):
    counts, k, beta = case
    c = np.array(counts, dtype=np.int64)
    assert baselines._ss_maxk(c, 1, beta) == _ss_max(c, beta)
    assert baselines._ss_maxk(c, k, beta) == _ss_maxk(c, k, beta)
    assert baselines._ss_mode(c, beta) == _ss_mode(c, beta)


@pytest.mark.parametrize("block", [1, 60, 120, 10**6])
def test_smooth_sensitivity_is_the_same_at_any_row_block(monkeypatch, block):
    # exp5 has 30 bars: heights and (height, bar) rows in blocks of 1 (as
    # past 8,192 bars), 2, 4 (ragged last blocks) and all at once
    monkeypatch.setattr(baselines, "_BLOCK", block)
    c = np.array(_EXP5, dtype=np.int64)
    beta = _EXP5_BETAS[1]
    assert baselines._ss_maxk(c, 1, beta) == _ss_max(c, beta)
    assert baselines._ss_maxk(c, 250, beta) == _ss_maxk(c, 250, beta)
    assert baselines._ss_mode(c, beta) == _ss_mode(c, beta)


@settings(deadline=None, max_examples=200)
@given(counts=st.lists(st.integers(0, 6), min_size=1, max_size=40).filter(any),
       released=st.integers(0, 40))
@example(counts=[0, 0, 0, 5], released=0)  # max at the top bar
@example(counts=[3, 0, 1, 0], released=3)  # empty bars above the max
def test_max_is_maxk_one(counts, released):
    # max has no code of its own in the baselines and in scoring: it runs as
    # maxk(1), which must agree with max's own formulas, kept here (and as
    # _ss_max above) as references
    x = tiny_hist(counts)
    c = np.array(counts, dtype=np.int64)
    one = maxk(1)
    top = eval_statistic(MAX, x)
    assert eval_statistic(one, x) == top == _stat_c(MAX, counts)
    # anything below the top bucket is one addition away from changing
    assert ptr_stability_radius(one, x) == ptr_stability_radius(MAX, x) == (
        0 if top < len(c) - 1 else int(c[top]) - 1)
    occupied = np.flatnonzero(c)
    # max stays at an occupied bar once every element right of it is dropped
    drop_right = x.size - np.cumsum(c[occupied])
    for m in (0, 1, 3, 10, 100):
        expected = occupied[drop_right <= m].astype(float)
        assert np.array_equal(_reachable(one, x, m), expected)
        assert np.array_equal(_reachable(MAX, x, m), expected)
    for beta in (0.01, 0.1, 0.7, 3.0):
        assert smooth_sensitivity(one, x, beta) == smooth_sensitivity(MAX, x, beta) == (
            _ss_max(c, beta))
    for budget in (0.0, 0.1, 0.5):
        assert flexible_error(one, x, released, budget) == (
            flexible_error(MAX, x, released, budget))


@pytest.mark.parametrize("routine", [
    lambda c: baselines._ss_maxk(c, 1, 0.01),
    lambda c: baselines._ss_maxk(c, 250, 0.01),
    lambda c: baselines._ss_mode(c, 0.01),
], ids=["max", "maxk", "mode"])
def test_smooth_sensitivity_never_holds_a_bars_squared_array(routine):
    c = np.random.default_rng(5).poisson(250, 600).astype(np.int64)
    tracemalloc.start()
    try:
        routine(c)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # one 600 x 600 int64 array alone takes 2.7 MiB


def test_ss_mech_centers_on_the_statistic():
    # strongly stable input: smooth sensitivity is tiny, noise stays small
    x = Histogram({3: 80}, B100)
    rng = RngStream(31)
    out = [ss_mech(MODE, x, 1.0, 0.01, rng) for _ in range(100)]
    assert all(abs(v - 3.0) < 30.0 for v in out)
    assert abs(np.mean(out) - 3.0) < 3.0


def test_ss_mech_undefined_statistic_randomises():
    x = Histogram({3: 5}, B100)
    rng = RngStream(8)
    out = {ss_mech(maxk(10), x, 1.0, 0.01, rng) for _ in range(50)}
    assert all(0 <= v < 100 for v in out)
    assert len(out) > 1


# ---------------------------------------------------------------------------
# sanitized histogram


def test_bns_hist_empty_input():
    out = bns_hist(Histogram({}, B100), 1.0, 0.01, RngStream(1))
    assert out.size == 0


def test_bns_hist_suppresses_small_bars():
    # threshold ~30 at delta = 2^-20: count-1 bars essentially never survive
    x = Histogram({1: 1, 40: 1, 77: 1}, B100)
    rng = RngStream(55)
    for _ in range(100):
        assert bns_hist(x, 1.0, 2.0**-20, rng).size == 0


def test_bns_hist_keeps_tall_bars():
    x = Histogram({10: 90, 60: 95}, B100)
    rng = RngStream(56)
    for _ in range(100):
        out = bns_hist(x, 1.0, 2.0**-20, rng)
        got = dict(out.items())
        assert set(got) == {(10,), (60,)}
        assert abs(got[(10,)] - 90) < 40 and abs(got[(60,)] - 95) < 40


def test_bns_hist_support_never_grows():
    x = Histogram({5: 20, 50: 3}, B100)
    rng = RngStream(57)
    for _ in range(200):
        assert bns_hist(x, 0.5, 0.01, rng).support() <= x.support()


def test_bns_hist_matches_one_scalar_draw_per_bar():
    # the stream a per-bar loop of scalar Laplace draws consumes, bar by bar
    x = Histogram({3: 9, 20: 30, 41: 2, 90: 41, 95: 18}, B100)
    eps, delta = 0.5, 0.01
    thr = 1.0 + 2.0 * math.log(2.0 / delta) / eps
    for seed in range(40):
        rng, ref = RngStream(seed), RngStream(seed)
        want = {}
        for g, n in x.items():
            v = n + ref.laplace(scale=2.0 / eps)
            if v > thr:
                want[g] = round(v)
        assert dict(bns_hist(x, eps, delta, rng).items()) == want
        assert rng.random() == ref.random()  # the stream ends in step


# ---------------------------------------------------------------------------
# choosing-based sanitizer


def test_sanpoints_reports_distinct_input_bars():
    x = Histogram({3: 9, 20: 5, 41: 2, 90: 7}, B100)
    rng = RngStream(77)
    for _ in range(50):
        out = sanpoints(x, 1.0, 0.01, 3, rng)
        assert out.support() <= x.support()
        assert len(out) <= 3


def test_sanpoints_empty_input():
    assert sanpoints(Histogram({}, B100), 1.0, 0.01, 2, RngStream(1)).size == 0


def test_sanpoints_round_count_validation():
    x = Histogram({3: 9, 20: 5}, B100)
    with pytest.raises(ParameterError):
        sanpoints(x, 1.0, 0.01, 3, RngStream(1))  # only two occupied bars
    with pytest.raises(ParameterError):
        sanpoints(x, 1.0, 0.01, 0, RngStream(1))


def test_sanpoints_high_eps_recovers_input():
    x = Histogram({3: 9, 20: 5, 41: 2}, B100)
    out = sanpoints(x, 100.0, 0.01, 3, RngStream(88))
    assert out == x  # noise scale 0.06: every rounded height is exact


def test_sanpoints_deterministic_per_seed():
    x = Histogram({3: 9, 20: 5, 41: 2, 90: 7}, B100)
    a = sanpoints(x, 1.0, 0.01, 2, RngStream(3))
    b = sanpoints(x, 1.0, 0.01, 2, RngStream(3))
    assert a == b


def test_releases_past_int64_raise_instead_of_wrapping():
    # the int64 cast used to turn these into bars of count -2^63 and a
    # negative size; at eps = 1e-310 the noise scale is inf
    x = Histogram({3: 9, 20: 5, 41: 2}, B100)
    for eps in (1e-300, 1e-310):
        with pytest.raises(DomainError, match="does not fit int64"):
            sanpoints(x, eps, 2**-20, 3, RngStream(1))
    with pytest.raises(DomainError, match="does not fit int64"):
        bns_hist(x, 1e-300, 0.99, RngStream(1))


# ---------------------------------------------------------------------------
# statistic wrappers


def test_bns_mech_undefined_when_everything_suppressed():
    x = Histogram({1: 1, 40: 1}, B100)
    assert bns_mech(MAX, x, 1.0, 2.0**-20, RngStream(9)) is UNDEFINED


def test_bns_mech_defined_path():
    x = Histogram({10: 90, 60: 95}, B100)
    assert bns_mech(MAX, x, 1.0, 2.0**-20, RngStream(9)) == 60


def test_sanpoints_mech_undefined_statistic():
    x = Histogram({3: 9, 20: 5}, B100)
    assert sanpoints_mech(maxk(10**6), x, 1.0, 0.01, RngStream(9)) is UNDEFINED


def test_sanpoints_mech_caps_rounds_at_occupied_bars():
    x = Histogram({3: 9, 20: 5}, B100)
    out = sanpoints_mech(MAX, x, 50.0, 0.01, RngStream(9), k_rounds=8)
    assert out in (3, 20)


@pytest.mark.parametrize("mech", [bns_mech, sanpoints_mech])
@pytest.mark.parametrize("counts", [(3, 1), (300, 100)])
def test_wrappers_reject_1d_statistics_on_2d_histograms_before_drawing(mech, counts):
    # small counts can release an empty histogram, whose statistic is undefined in
    # any dimension, so the check must come before the release
    x = Histogram({(1, 2): counts[0], (4, 5): counts[1]}, MetricSpace(2, 10.0))
    for kind in (MAX, MIN, maxk(2), MODE):
        rng = RngStream(0)
        msg = re.escape(f"{kind} is defined on 1-D histograms only")
        with pytest.raises(DomainError, match=msg):
            mech(kind, x, 1.0, 0.01, rng)
        assert rng.bit_generator.state == RngStream(0).bit_generator.state  # undrawn
    out = mech(SUPPORT, x, 1.0, 0.01, RngStream(0))  # support has no dimension limit
    assert out is UNDEFINED or out <= x.support()


def test_all_baselines_deterministic_per_seed():
    x = Histogram({3: 9, 20: 5, 41: 2}, B100)
    for mech in (
        lambda r: exp_mech(MAX, x, 1.0, r),
        lambda r: ptr_mech(MODE, x, 1.0, 0.01, r),
        lambda r: ss_mech(MODE, x, 1.0, 0.01, r),
        lambda r: bns_mech(MAX, x, 1.0, 0.01, r),
        lambda r: sanpoints_mech(MAX, x, 1.0, 0.01, r),
    ):
        assert mech(RngStream(606)) == mech(RngStream(606))
