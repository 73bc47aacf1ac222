"""Seed splitting, truncated-Laplace noise, bucketing, and the combined release."""

import copy
import math
import os
import pickle
import re
import subprocess
import sys

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import flexhist
from flexhist.hist import (
    MAX,
    UNDEFINED,
    DomainError,
    Histogram,
    MetricSpace,
    ParameterError,
    Undefined,
    eval_statistic,
    maxk,
)
from flexhist.mechanisms import (
    BucketSpec,
    MechParams,
    RngStream,
    cumulative_weights,
    emptiness_probs,
    mech_bucket,
    mech_buckethist,
    mech_hbs,
    mech_trlap,
    pick,
    restate,
    seed_sequence_words,
    split_seed,
    split_seed_grid,
    trlap_cdf,
    trlap_output_pmf,
    trlap_sample,
)

SPACE = MetricSpace(1, 100.0)


def H(entries):
    return Histogram(entries, SPACE)


# ---------------------------------------------------------------------------
# seed splitting


def test_split_seed_frozen_transcript():
    # Freeze the fold so reruns on any platform produce the same streams.
    assert split_seed(20260814) == 20260814
    assert split_seed(20260814, 0) == 7738877375164587134
    assert split_seed(20260814, 3, 1, 4, 1) == 18433771259621902302
    assert split_seed(1, 2, 3) == 411002803395772997


def test_split_seed_distinguishes_index_positions():
    assert split_seed(7, 1, 2) != split_seed(7, 2, 1)
    assert split_seed(7, 0) != split_seed(7)


@given(st.integers(0, 2**64 - 1), st.lists(st.integers(0, 2**64 - 1), max_size=4))
def test_split_seed_range_and_determinism(master, indices):
    s = split_seed(master, *indices)
    assert 0 <= s < 2**64
    assert s == split_seed(master, *indices)


@settings(max_examples=200)
@given(st.one_of(st.integers(-2**70, -1), st.integers(2**64, 2**70), st.integers(0, 2**64 - 1)),
       st.lists(st.integers(-2**65, 2**65), max_size=2),
       st.lists(st.integers(1, 4), min_size=1, max_size=3))
def test_split_seed_grid_matches_split_seed(master, prefix, shape):
    grid = split_seed_grid(master, tuple(prefix), tuple(shape))
    assert grid.dtype == np.uint64 and grid.shape == tuple(shape)
    for index in np.ndindex(*shape):
        assert int(grid[index]) == split_seed(master, *prefix, *index)


EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]


def _check_seeding(seeds):
    words = seed_sequence_words(np.array(seeds, dtype=np.uint64))
    assert words.dtype == np.uint64 and words.shape == (len(seeds), 4)
    stream = RngStream(0)
    for seed, row in zip(seeds, words.tolist()):
        assert row == np.random.SeedSequence(seed).generate_state(4, np.uint64).tolist()
        assert restate(stream, row) is stream
        assert stream.bit_generator.state == np.random.default_rng(seed).bit_generator.state


def test_seeding_matches_default_rng_at_the_word_edges():
    _check_seeding(EDGE_SEEDS)
    grid = seed_sequence_words(np.array(EDGE_SEEDS, dtype=np.uint64).reshape(5, 1))
    assert grid.shape == (5, 1, 4)  # the words go on a new last axis


@settings(max_examples=100)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
def test_seeding_matches_default_rng(seeds):
    _check_seeding(seeds)


def _draws(rng):
    # 32-bit integers first: a buffered half-draw would show in the first one
    return (rng.integers(0, 100, 3).tolist(), rng.random(3).tolist(),
            rng.laplace(scale=2.0, size=3).tolist(), rng.integers(0, 2**40, 2).tolist(),
            rng.poisson(7.0, 3).tolist(),
            int(pick(cumulative_weights(np.arange(1.0, 9.0)), rng.random())))


@settings(max_examples=50)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=6),
       st.integers(0, 3).map(lambda k: 2 * k + 1))
def test_restated_streams_draw_what_fresh_streams_draw(seeds, odd):
    stream = RngStream(0)
    words = seed_sequence_words(np.array(seeds, dtype=np.uint64)).tolist()
    for seed, row in zip(seeds, words):
        # an odd number of 32-bit draws past any buffered one leaves a half-draw buffered
        stream.integers(0, 100, size=odd + stream.bit_generator.state["has_uint32"])
        assert stream.bit_generator.state["has_uint32"] == 1
        assert _draws(restate(stream, row)) == _draws(RngStream(seed))


def test_rng_stream_is_default_rng_with_the_seed_mod_2_64():
    rng = RngStream(2**64 + 5)
    assert type(rng) is np.random.Generator
    assert rng.bit_generator.state == np.random.default_rng(5).bit_generator.state


def test_importing_flexhist_leaves_numpy_random_unloaded():
    # numpy.random loads at the first RngStream call: a process that only
    # transports or scores never loads it (about 6 MB); the serial runner
    # loads no thread pool
    code = ("import sys, flexhist, flexhist.bench, flexhist.baselines, flexhist.cli\n"
            "from flexhist.mechanisms import RngStream\n"
            "assert 'numpy.random' not in sys.modules\n"
            "assert 'concurrent.futures' not in sys.modules\n"
            "assert flexhist.RngStream is RngStream\n"
            "RngStream(0)\n"
            "assert 'numpy.random' in sys.modules\n")
    src = os.path.dirname(os.path.dirname(flexhist.__file__))
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60,
                   env={**os.environ, "PYTHONPATH": src})


def test_rng_stream_same_seed_same_draws():
    a = RngStream(12345)
    b = RngStream(12345)
    assert np.array_equal(a.random(16), b.random(16))
    assert np.array_equal(a.integers(0, 50, 16), b.integers(0, 50, 16))


def test_rng_stream_simple_draws():
    rng = RngStream(7)
    u = rng.random(1000)
    assert ((0 <= u) & (u < 1)).all()
    k = rng.integers(3, 9, 1000)
    assert k.min() >= 3 and k.max() <= 8
    lap = rng.laplace(scale=2.0, size=1000)
    assert np.isfinite(lap).all()
    pois = rng.poisson(4.0, 1000)
    assert (pois >= 0).all()


def _stream_draws(rng):
    return (rng.random(3).tolist(), rng.integers(0, 100, 5).tolist(),
            rng.laplace(scale=2.0, size=3).tolist(),
            int(pick(cumulative_weights(np.array([1.0, 2.0, 3.0])), rng.random())))


@pytest.mark.parametrize("copier", [lambda r: pickle.loads(pickle.dumps(r)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_copied_stream_draws_what_the_original_draws(copier):
    rng = RngStream(3)
    rng.integers(0, 5, size=3)  # an odd number of 32-bit draws leaves a half-draw buffered
    assert rng.bit_generator.state["has_uint32"] == 1
    twin = copier(rng)
    assert type(twin) is np.random.Generator and twin is not rng
    assert twin.bit_generator.state == rng.bit_generator.state
    assert _stream_draws(twin) == _stream_draws(rng)
    assert restate(twin, seed_sequence_words(np.array([7], np.uint64))[0].tolist()).random() \
        == RngStream(7).random()


def test_pick_frequencies():
    rng = RngStream(2024)
    n = 8000
    c = cumulative_weights(np.array([1.0, 3.0]))
    hits = sum(int(pick(c, rng.random())) for _ in range(n))
    # P(index 1) = 0.75; allow five binomial standard deviations
    assert abs(hits / n - 0.75) < 5 * math.sqrt(0.75 * 0.25 / n)


@pytest.mark.parametrize("weights, want", [
    (np.ones(255), 254),  # normalised cumsum ends at 0.9999999999999969
    (np.concatenate((np.ones(255), [0.0, 0.0])), 254),  # the last bar with weight
])
def test_pick_never_picks_past_the_last_weighted_bar(weights, want):
    top = np.nextafter(1.0, 0.0)  # the largest uniform draw
    assert np.cumsum(weights / weights.sum())[-1] < top
    assert int(pick(cumulative_weights(weights), top)) == want


def test_cumulative_weights_rejects_zero_total():
    with pytest.raises(ParameterError):
        cumulative_weights(np.array([0.0, 0.0]))


# ---------------------------------------------------------------------------
# noise parameters and emptiness probabilities


def test_noise_spec_validation():
    # the width q and eps of the noise: both must be positive
    for q, eps in [(0.0, 1.0), (-1.0, 1.0), (math.nan, 1.0),
                   (2.0, 0.0), (2.0, -1.0), (2.0, math.nan)]:
        for k in (0, 3):
            with pytest.raises(ParameterError, match="^q and eps must be positive$"):
                trlap_output_pmf(k, q, eps)
    for eps in (0.0, -1.0, math.nan):  # mech_trlap's q = tau*|x| is positive with tau
        with pytest.raises(ParameterError, match="^eps must be positive$"):
            mech_trlap(H({5: 2, 9: 1}), 0.5, eps, RngStream(3))


def test_emptiness_probs_on_curve():
    # q = 4, delta = 0.1 forces eps = ln 4: 0.1*(16-1)/(4-1) = 0.5 at the middle.
    eps = math.log(4.0)
    p = emptiness_probs(4, eps, 0.1)
    assert p[0] == 0.0
    assert p[4] == 1.0
    assert p[1] == pytest.approx(0.1, abs=1e-12)
    assert p[2] == pytest.approx(0.5, abs=1e-12)
    assert p[3] == pytest.approx(0.9, abs=1e-12)
    assert (np.diff(p) >= -1e-15).all()


def test_emptiness_probs_off_curve_rejected():
    with pytest.raises(ParameterError):
        emptiness_probs(4, math.log(4.0), 0.2)


def test_emptiness_probs_validation():
    with pytest.raises(ParameterError):
        emptiness_probs(0, 1.0, 0.1)
    with pytest.raises(ParameterError):
        emptiness_probs(2.5, 1.0, 0.1)
    with pytest.raises(ParameterError):
        emptiness_probs(4, -1.0, 0.1)
    with pytest.raises(ParameterError):
        emptiness_probs(4, 1.0, 1.0)


# ---------------------------------------------------------------------------
# truncated Laplace


def test_trlap_cdf_boundaries_and_midpoint():
    q, eps = 2.0, 1.0
    assert trlap_cdf(q, eps, -2.0) == 0.0
    assert trlap_cdf(q, eps, -5.0) == 0.0
    assert trlap_cdf(q, eps, 0.0) == 1.0
    assert trlap_cdf(q, eps, 3.0) == 1.0
    # density is symmetric about -q/2
    assert trlap_cdf(q, eps, -1.0) == pytest.approx(0.5, abs=1e-12)
    # frozen: mass of Laplace(-1, 1) on [-2, -0.5] over its mass on [-2, 0]
    assert trlap_cdf(q, eps, -0.5) == pytest.approx(0.8112296656009272, abs=1e-12)


def test_trlap_cdf_monotone():
    q, eps = 3.0, 0.7
    grid = np.linspace(-3.5, 0.5, 200)
    vals = [trlap_cdf(q, eps, t) for t in grid]
    assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))


def test_trlap_sample_support_and_mean():
    q, eps = 2.0, 1.0
    z = trlap_sample(q, eps, RngStream(31337), size=20000)
    assert ((-2.0 <= z) & (z <= 0.0)).all()
    # mean is -q/2 = -1; spread is below q/2, so 3 sigma / sqrt(N) < 0.022
    assert abs(z.mean() + 1.0) < 0.03
    assert abs((z < -1.0).mean() - 0.5) < 0.02


def test_trlap_sample_scalar():
    z = trlap_sample(2.0, 1.0, RngStream(5))
    assert isinstance(z, float)
    assert -2.0 <= z <= 0.0


def test_trlap_sample_matches_cdf():
    # empirical cdf at a few fixed thresholds vs the closed form
    q, eps = 4.0, 0.5
    z = trlap_sample(q, eps, RngStream(808), size=40000)
    for t in (-3.0, -2.0, -1.0, -0.25):
        assert abs((z <= t).mean() - trlap_cdf(q, eps, t)) < 0.01


def test_trlap_output_pmf_consistency():
    q, eps = 2.0, 1.0
    assert np.array_equal(trlap_output_pmf(0, q, eps), [1.0])
    pmf = trlap_output_pmf(5, q, eps)
    assert len(pmf) == 6
    assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
    # a bar can lose at most floor(q + 1/2) = 2 elements
    assert pmf[0] == 0.0 and pmf[1] == 0.0 and pmf[2] == 0.0
    assert pmf[3] > 0 and pmf[5] > 0
    with pytest.raises(ParameterError):
        trlap_output_pmf(-1, q, eps)


def test_mech_trlap_matches_output_pmf():
    # per-bar release counts follow the exact pmf (chi-square, both bars)
    x = H({3: 3, 40: 2})
    tau, eps = 0.4, 1.0  # q = tau * 5 = 2
    n = 20000
    rng = RngStream(424242)
    tallies = {3: np.zeros(4, dtype=int), 40: np.zeros(3, dtype=int)}
    for _ in range(n):
        y = mech_trlap(x, tau, eps, rng)
        got = dict(y.items())
        tallies[3][got.get((3,), 0)] += 1
        tallies[40][got.get((40,), 0)] += 1
    for grid, k in ((3, 3), (40, 2)):
        expected = trlap_output_pmf(k, 2.0, eps) * n
        keep = expected > 0
        stat = scipy.stats.chisquare(tallies[grid][keep], expected[keep])
        assert stat.pvalue > 1e-3


def test_mech_trlap_invariants():
    x = H({0: 10, 17: 4, 62: 7})
    rng = RngStream(1)
    q = 0.3 * x.size
    max_drop = math.floor(q + 0.5)
    for _ in range(200):
        y = mech_trlap(x, 0.3, 1.0, rng)
        got = dict(y.items())
        for g, c in x.items():
            released = got.pop(g, 0)
            assert 0 <= released <= c
            assert released >= c - max_drop
        assert not got  # support never grows


def test_mech_trlap_tau_zero_is_identity():
    x = H({5: 2})
    assert mech_trlap(x, 0.0, 1.0, RngStream(3)) is x


def test_mech_trlap_validation():
    with pytest.raises(ParameterError):
        mech_trlap(H({5: 2}), 1.0, 1.0, RngStream(3))
    with pytest.raises(ParameterError):
        mech_trlap(H({5: 2}), -0.1, 1.0, RngStream(3))
    with pytest.raises(DomainError):
        mech_trlap(H({}), 0.5, 1.0, RngStream(3))


# ---------------------------------------------------------------------------
# bucketing


def test_bucket_spec_centers():
    spec = BucketSpec(w=10.0, B=100.0)
    assert spec.buckets_per_axis == 10
    assert spec.bucket_count == 10
    assert spec.center((3.0,)) == (5,)
    assert spec.center((97.0,)) == (95,)
    assert spec.center((0.0,)) == (5,)


def test_bucket_spec_partial_last_cell():
    # B = 7, w = 2: four cells, the last one sticks out past the domain
    spec = BucketSpec(w=2.0, B=7.0)
    assert spec.buckets_per_axis == 4
    assert spec.center((6.9,)) == (7,)


def test_bucket_spec_irrational_width_rounds():
    w = 2.0 * 5.0 / math.sqrt(2.0)
    spec = BucketSpec(w=w, B=100.0, d=2)
    c = spec.center((1.0, 1.0))
    assert c == (round(w / 2, 12), round(w / 2, 12))
    assert spec.bucket_count == spec.buckets_per_axis ** 2


def test_bucket_spec_validation():
    with pytest.raises(ParameterError):
        BucketSpec(w=0.0, B=100.0)
    with pytest.raises(ParameterError):
        BucketSpec(w=1.0, B=0.0)
    with pytest.raises(ParameterError):
        BucketSpec(w=1.0, B=10.0, d=0)


def test_mech_bucket_merges_and_preserves_size():
    x = H({3: 2, 7: 1, 97: 1})
    y = mech_bucket(x, BucketSpec(w=10.0, B=100.0))
    assert dict(y.items()) == {(5,): 3, (95,): 1}
    assert y.size == x.size


def test_mech_bucket_errors():
    with pytest.raises(DomainError):
        mech_bucket(H({100: 1}), BucketSpec(w=10.0, B=100.0))  # 100 not < B
    with pytest.raises(DomainError):
        mech_bucket(H({5: 1}), BucketSpec(w=10.0, B=100.0, d=2))
    plane = Histogram({(1, 2): 1, (3, 12): 2}, MetricSpace(2, 100.0))
    with pytest.raises(DomainError, match=r"^point \(3, 12\) outside \[0,10.0\)\^2$"):
        mech_bucket(plane, BucketSpec(w=2.0, B=10.0, d=2))


def _bucket_by_dict(x, spec):
    """mech_bucket as a loop over the bars, the form it keeps for d >= 2."""
    out = {}
    for g, c in x.items():
        if any(not 0 <= v < spec.B for v in g):
            raise DomainError(f"point {g} outside [0,{spec.B})^{spec.d}")
        center = spec.center(g)
        out[center] = out.get(center, 0) + c
    return Histogram(out, x.space)


_widths = st.one_of(st.sampled_from([0.6, 0.3, 2 / 3, 1e-3, 1.0, 7.0, 0.1, 1e-13, 2**-19]),
                    st.floats(1e-6, 50.0))


@settings(max_examples=300)
@given(_widths,
       st.lists(st.tuples(st.one_of(st.integers(0, 2999), st.floats(0, 2999.999),
                                    st.integers(3000, 9000)),  # 3000 + k: k cells from 0
                          st.integers(1, 4)), max_size=10),
       st.sampled_from([0.0, -1.0, 3000.0, 1e300]))
def test_mech_bucket_on_the_line_matches_the_dict_loop(w, bars, outside):
    # coordinates up to 3,000, where np.round(c, 12) and round(c, 12) part
    spec = BucketSpec(w=w, B=3000.0)
    entries = {}
    for g, c in bars:
        g = (g - 3000) * w if isinstance(g, int) and g >= 3000 else g  # a cell edge
        if 0 <= g < 3000:
            entries[g] = entries.get(g, 0) + c
    if outside:  # a point left or right of [0, B) on its own, or with the rest
        entries[outside] = 1
    x = Histogram(entries, MetricSpace(1, math.inf))
    try:
        want = _bucket_by_dict(x, spec)
    except DomainError as exc:
        with pytest.raises(DomainError, match=f"^{re.escape(str(exc))}$"):
            mech_bucket(x, spec)
        return
    got = mech_bucket(x, spec)
    assert got == want and list(got.items()) == list(want.items())
    assert [type(g[0]) for g, _ in got.items()] == [type(g[0]) for g, _ in want.items()]
    assert got.bars()[1].tolist() == want.bars()[1].tolist()


def test_mech_bucket_on_the_line_pins():
    x = H({0: 1, 0.6: 2, 1.2: 3, 1.8: 4, 99.9: 5})
    got = mech_bucket(x, BucketSpec(w=0.6, B=100.0))
    assert list(got.items()) == [((0.3,), 1), ((0.9,), 2), ((1.5,), 3), ((2.1,), 4),
                                 ((99.9,), 5)]
    thirds = mech_bucket(H({0: 1, 1: 2, 2: 3}), BucketSpec(w=2 / 3, B=100.0))
    assert list(thirds.items()) == [((0.333333333333,), 1), ((1,), 2), ((2.333333333333,), 3)]
    assert mech_bucket(H({}), BucketSpec(w=0.3, B=100.0)) == H({})
    # c = 1025.6666666666665: np.round(c, 12) gives 1025.666666666666, round(c, 12) ...667
    far = mech_bucket(Histogram({1025.5: 1}, MetricSpace(1, 2000.0)),
                      BucketSpec(w=2 / 3, B=2000.0))
    assert far.bars()[0] == ((round(2 / 3 * 1538.5, 12),),) == ((1025.666666666667,),)
    tiny = mech_bucket(H({0: 1}), BucketSpec(w=2**-19, B=100.0))  # 2^-20 has 20 decimals
    assert tiny.bars()[0] == ((9.53674e-07,),)
    with pytest.raises(DomainError, match=r"^point \(-1,\) outside \[0,100.0\)\^1$"):
        mech_bucket(H({-1: 1, 5: 1, 101: 1}), BucketSpec(w=0.3, B=100.0))
    with pytest.raises(DomainError, match=r"^point \(100.5,\) outside"):
        mech_bucket(H({5: 1, 100.5: 1, 101: 1}), BucketSpec(w=0.3, B=100.0))


@given(st.integers(0, 99), st.integers(0, 99))
def test_mech_bucket_contracts_distances(a, b):
    """Points within one cell collapse; centers stay within w/2 of sources."""
    spec = BucketSpec(w=10.0, B=100.0)
    x = Histogram({a: 1} if a == b else {a: 1, b: 1}, SPACE)
    y = mech_bucket(x, spec)
    for g, _ in y.items():
        assert any(abs(g[0] - s) <= 5.0 for s in (a, b))


# ---------------------------------------------------------------------------
# derived parameters and the combined mechanism


def test_mech_params_derivation():
    p = MechParams(alpha=0.05, beta=5.0, eps=1.0, B=100.0)
    assert p.w == 10.0
    assert p.t == 10
    assert p.tau == pytest.approx(0.005, abs=0)


def test_mech_params_two_dimensional():
    p = MechParams(alpha=0.2, beta=5.0, eps=1.0, B=100.0, d=2)
    assert p.w == pytest.approx(10.0 / math.sqrt(2.0), rel=1e-15)
    assert p.t == math.ceil(100.0 / p.w) ** 2
    assert p.tau == pytest.approx(0.2 / p.t, rel=1e-15)


def test_mech_params_validation():
    with pytest.raises(ParameterError):
        MechParams(alpha=1.0, beta=5.0, eps=1.0, B=100.0)
    with pytest.raises(ParameterError):
        MechParams(alpha=0.1, beta=0.0, eps=1.0, B=100.0)
    with pytest.raises(ParameterError):
        MechParams(alpha=0.1, beta=5.0, eps=0.0, B=100.0)
    for B, d in ((0.0, 1), (math.inf, 1), (100.0, 0)):  # checked before tau reads them
        with pytest.raises(ParameterError, match="B must be finite and positive, and d >= 1"):
            MechParams(alpha=0.1, beta=5.0, eps=1.0, B=B, d=d)


def test_mech_buckethist_support_and_drop_budget():
    p = MechParams(alpha=0.2, beta=5.0, eps=1.0, B=100.0)
    x = H({i: 20 for i in range(0, 100, 10)})  # n = 200, q = tau*n = 4
    bucketed = mech_bucket(x, p.bucket_spec)
    centers = {g for g, _ in bucketed.items()}
    rng = RngStream(606)
    per_bar_max = math.floor(p.tau * x.size + 0.5)
    for _ in range(100):
        y = mech_buckethist(x, p, rng)
        assert {g for g, _ in y.items()} <= centers
        dropped = x.size - y.size
        assert 0 <= dropped <= p.t * per_bar_max


def test_mech_hbs_noise_free_stays_within_beta():
    p = MechParams(alpha=0.0, beta=5.0, eps=1.0, B=100.0)
    rng = RngStream(9)
    for entries in ({7: 1}, {3: 2, 41: 1, 99: 5}, {0: 1, 55: 2}):
        x = H(entries)
        out = mech_hbs(MAX, x, p, rng)
        assert abs(out - eval_statistic(MAX, x)) <= 5.0 + 1e-9


def test_mech_hbs_singleton_lands_on_center():
    p = MechParams(alpha=0.0, beta=5.0, eps=1.0, B=100.0)
    out = mech_hbs(MAX, H({7: 3}), p, RngStream(9))
    assert out == 5


def test_mech_hbs_undefined_paths():
    p = MechParams(alpha=0.0, beta=5.0, eps=1.0, B=100.0)
    out = mech_hbs(maxk(10), H({7: 3}), p, RngStream(9))
    assert out is UNDEFINED


def test_undefined_singleton():
    assert Undefined() is UNDEFINED
    assert repr(UNDEFINED) == "undefined"
