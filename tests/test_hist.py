"""Data model, ground metrics, statistics, and the histogram text format."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexhist.hist import (
    MAX,
    MIN,
    MODE,
    SUPPORT,
    DomainError,
    Histogram,
    MetricSpace,
    ParameterError,
    StatisticKind,
    UndefinedStatisticError,
    as_point,
    dhist,
    dsupp,
    eval_statistic,
    format_histogram,
    maxk,
    neighbors,
    parse_histogram_text,
    parse_statistic,
    read_histogram,
    write_histogram,
)

SPACE = MetricSpace(1, 100.0)


def H(entries, space=SPACE):
    return Histogram(entries, space)


# ---------------------------------------------------------------------------
# points and spaces


def test_as_point_canonicalizes_integral_floats():
    assert as_point(3.0, 1) == (3,)
    assert isinstance(as_point(3.0, 1)[0], int)
    assert as_point((1.5, 2.0), 2) == (1.5, 2)


def test_as_point_rejects_dimension_mismatch_and_nonfinite():
    with pytest.raises(DomainError):
        as_point((1, 2), 1)
    with pytest.raises(DomainError):
        as_point(math.nan, 1)
    with pytest.raises(DomainError):
        as_point((0.0, math.inf), 2)


def test_metric_space_validation():
    with pytest.raises(ParameterError):
        MetricSpace(0, 10.0)
    with pytest.raises(ParameterError):
        MetricSpace(1, 0.0)


def test_metric_space_distance_and_contains():
    sp = MetricSpace(2, 10.0)
    assert sp.distance((0, 0), (3, 4)) == 5.0
    assert sp.dist2_exact((0, 0), (3, 4)) == 25
    assert sp.contains((9.5, 0))
    assert not sp.contains((10, 0))
    assert not sp.contains((-1, 0))


@given(st.lists(st.integers(0, 50), min_size=3, max_size=3))
def test_1d_distance_triangle(points):
    a, b, c = points
    assert SPACE.distance(a, c) <= SPACE.distance(a, b) + SPACE.distance(b, c) + 1e-9


# ---------------------------------------------------------------------------
# histograms


def test_histogram_drops_zero_counts_and_merges_keys():
    x = H({0: 2, 1: 0, 1.0: 3})  # 1 and 1.0 canonicalize to the same point
    assert x.count(1) == 3
    assert x.support() == frozenset({(0,), (1,)})
    assert x.size == 5
    assert len(x) == 2


def test_histogram_rejects_bad_counts():
    with pytest.raises(DomainError):
        H({0: -1})
    with pytest.raises(DomainError):
        H({0: 1.5})
    # counts and their sum are int64 in bars() and the numpy layers
    for c in (2**63, 2.0**63, math.inf, math.nan):
        with pytest.raises(DomainError, match="below 2\\^63"):
            H({0: c})
    with pytest.raises(DomainError, match="limit is 2\\^63 - 1"):
        H({0: 2**62, 1: 2**62})
    assert H({0: 2**63 - 1}).bars()[1].tolist() == [2**63 - 1]


# n int64 counts of at most (2^63 - 1) // n each are summed in int64; larger
# ones as Python ints.  Every total sits within 3 of 2^63.
LIMIT_2, LIMIT_3 = (2**63 - 1) // 2, (2**63 - 1) // 3
SIZES_AT_THE_LIMIT = [
    [2**63 - 1],                           # int64 sum: n = 1
    [LIMIT_2, LIMIT_2],                    # int64 sum: every count at the limit
    [LIMIT_3, LIMIT_3, LIMIT_3],
    [LIMIT_2 + 1, LIMIT_2],                # exact sum: a count past the limit
    [LIMIT_2 + 1, LIMIT_2 + 1],            # exact sum, reaching 2^63
    [LIMIT_3 + 1, LIMIT_3 + 1, LIMIT_3 + 1],
    [LIMIT_2 + 1, LIMIT_2, 1],
]


@pytest.mark.parametrize("counts", SIZES_AT_THE_LIMIT)
def test_size_at_2_63_from_int64_arrays(counts):
    size = sum(counts)
    assert abs(size - 2**63) <= 3
    points = np.arange(len(counts))
    counts = np.array(counts, dtype=np.int64)
    ones = H({int(g): 1 for g in points})
    if size < 2**63:
        assert H((points, counts)).size == size
        assert ones.with_counts(counts).size == size
        return
    with pytest.raises(DomainError, match="limit is 2\\^63 - 1"):
        H((points, counts))
    with pytest.raises(DomainError, match="limit is 2\\^63 - 1"):
        ones.with_counts(counts)


def test_with_counts_rejects_uint64_counts_past_int64():
    # the int64 cast used to wrap 2^63 to -2^63 and give a negative size
    x = H({1: 3, 4: 2})
    with pytest.raises(DomainError, match="count 9223372036854775808 does not fit int64"):
        x.with_counts(np.array([2**63, 1], dtype=np.uint64))
    assert x.with_counts(np.array([2**63 - 1, 0], dtype=np.uint64)).size == 2**63 - 1


def test_histogram_immutable_and_hashable():
    x = H({0: 1})
    with pytest.raises(AttributeError):
        x.size = 7
    assert x == H({0: 1})
    assert hash(x) == hash(H({0: 1}))
    assert x != H({0: 2})
    # stored in point order, so insertion order never matters
    y = H({9: 2, 3: 1, 5: 4})
    assert y == H({3: 1, 5: 4, 9: 2}) and hash(y) == hash(H({5: 4, 9: 2, 3: 1}))


@pytest.mark.parametrize("x", [
    H({9: 2, 3: 1, 5: 4}),
    H({2.5: 3, 0: 1}, MetricSpace(1, 10.0)),
    H({(1, 2): 3, (0, 7.5): 1}, MetricSpace(2, 8.0)),
    H({}, MetricSpace(2, 8.0)),
])
def test_histogram_pickle_roundtrip(x):
    hash(x)  # a cached hash must not travel in place of the entries
    y = pickle.loads(pickle.dumps(x))
    assert y == x and hash(y) == hash(x)
    assert list(y.items()) == list(x.items()) and y.size == x.size and y.space == x.space
    with pytest.raises(AttributeError):
        y.size = 7


@pytest.mark.parametrize("x", [
    H({9: 2, 3: 1, 5: 4}),
    H({2.5: 3, 0: 1}, MetricSpace(1, 10.0)),
    H({}, MetricSpace(1, 8.0)),
    Histogram((np.arange(3000) * 0.5, np.arange(1, 3001)), MetricSpace(1, 1500.0)),
])
def test_coordinates_are_built_once_and_read_only(x):
    before = (hash(x), pickle.dumps(x))
    v = x.coordinates()
    assert x.coordinates() is v and not v.flags.writeable
    fresh = np.array([g for g, in x.bars()[0]], dtype=float)
    assert v.dtype == np.float64 and v.tobytes() == fresh.tobytes()
    with pytest.raises(ValueError):
        v[...] = 0.0
    # a cache of the view: equality, hash and pickling do not see it
    assert (hash(x), pickle.dumps(x)) == before
    y = pickle.loads(pickle.dumps(x))
    assert y == x and hash(y) == hash(x) and y.coordinates().tobytes() == v.tobytes()
    assert x == Histogram(dict(x.items()), x.space)


def test_histogram_items_sorted():
    x = H({5: 1, 2: 1, 9: 1})
    assert [g for g, _ in x.items()] == [(2,), (5,), (9,)]


# ---------------------------------------------------------------------------
# the (points, counts) array form of the constructor


def _merged(pairs):
    """The mapping the array form's pairs stand for: equal points add up."""
    out = {}
    for g, c in pairs:
        out[g] = out.get(g, 0) + c
    return out


def _same(x, y):
    assert x == y and hash(x) == hash(y)
    assert list(x.items()) == list(y.items()) and x.size == y.size
    (xp, xc), (yp, yc) = x.bars(), y.bars()
    assert xp == yp and [type(g[0]) for g in xp] == [type(g[0]) for g in yp]
    assert xc.dtype == yc.dtype == np.int64 and xc.tolist() == yc.tolist()
    assert not xc.flags.writeable


_coords = st.one_of(st.integers(0, 40), st.integers(0, 40).map(float),
                    st.sampled_from([-0.0, 0.5, 2.25, 1e-9, 39.999]),
                    st.floats(0, 40, allow_nan=False))


@settings(max_examples=200)
@given(st.lists(st.tuples(_coords, st.integers(0, 5)), max_size=12),
       st.booleans())
def test_array_form_equals_mapping_form(pairs, float_counts):
    points = np.array([g for g, _ in pairs], dtype=float)
    counts = np.array([c for _, c in pairs], dtype=float if float_counts else np.int64)
    _same(H((points, counts)), H(_merged(pairs)))
    if all(isinstance(g, int) for g, _ in pairs):  # an int coordinate array too
        ints = np.array([g for g, _ in pairs], dtype=np.int64)
        _same(H((ints, counts)), H(_merged(pairs)))


def test_array_form_examples():
    x = H((np.array([3.0, 1, 2.5, 1, 7, -0.0]), np.array([2, 1, 4, 5, 0, 1])))
    assert list(x.items()) == [((0,), 1), ((1,), 6), ((2.5,), 4), ((3,), 2)]
    assert [type(g[0]) for g, _ in x.items()] == [int, int, float, int]
    assert H((np.array([], dtype=float), np.array([], dtype=np.int64))) == H({})
    big = H((np.array([0, 1]), np.array([2**63 - 2, 1], dtype=np.uint64)))
    assert big.size == 2**63 - 1 and big.bars()[1].dtype == np.int64


@pytest.mark.parametrize("points, counts", [
    ([0, 1], [2, -1]),                                   # negative
    ([0, 1], [2, 1.5]),                                  # not integral
    ([0], [math.nan]),
    ([0], [math.inf]),
    ([0], [2.0**63]),                                    # past int64
    (np.array([0]), np.array([2**63], dtype=np.uint64)),
    ([0, 1], [2**62, 2**62]),                            # the total past int64
    ([0, 0.0], [2**62, 2**62]),                          # ... once merged
    ([math.nan, 1], [1, 1]),                             # non-finite points
    ([0, math.inf], [1, 1]),
    ([0, -math.inf], [1, 1]),
])
def test_array_form_rejects_what_the_mapping_form_rejects(points, counts):
    # scalar and 1-tuple keys alternate, so equal points stay two dict keys
    mapping = {(g,) if i % 2 else g: c for i, (g, c) in enumerate(zip(points, counts))}
    with pytest.raises(DomainError) as mapped:
        H(mapping)
    with pytest.raises(type(mapped.value)):
        H((np.array(points), np.array(counts)))


def test_array_form_leaves_out_zero_counts_before_checking_points():
    # the mapping form skips a zero count without looking at its point
    assert H({math.nan: 0, 1: 2}) == H((np.array([math.nan, 1]), np.array([0, 2])))


@pytest.mark.parametrize("points, counts, space", [
    (np.array([0, 1]), np.array([1]), SPACE),                  # lengths differ
    (np.array([[0, 1]]), np.array([[1, 1]]), SPACE),           # not 1-D
    (np.array([0]), np.array([1]), MetricSpace(2, 10.0)),      # a 2-D space
    (np.array(["a"]), np.array([1]), SPACE),                   # not numbers
    (np.array([0]), np.array([True]), SPACE),
])
def test_array_form_rejects_malformed_arrays(points, counts, space):
    with pytest.raises(DomainError):
        Histogram((points, counts), space)


def test_array_form_pickle_roundtrip():
    x = H((np.array([4.0, 0.5, 4]), np.array([1, 3, 2])))
    y = pickle.loads(pickle.dumps(x))
    _same(x, y)
    assert y == H({0.5: 3, 4: 3})


def test_with_counts_keeps_its_bars():
    x = H({1: 3, 2.5: 1, 7: 2})
    y = x.with_counts(np.array([2.0, 0.0, 5.0]))
    _same(y, H({1: 2, 7: 5}))
    assert x.with_counts(np.array([1, 1, 1])).bars()[0] is x.bars()[0]  # all kept: shared


# ---------------------------------------------------------------------------
# one bar layout, whichever way a histogram is built


def _probes(points, dimension):
    """Every stored point, spelled as given and with integral coordinates as
    floats (3 and 3.0), and absent points before, between and after them."""
    out = []
    for p in points:
        out += [p, tuple(float(v) for v in p)]
        out += [(p[0] + shift,) + p[1:] for shift in (-1, -0.25, 0.25, 1)]
    if dimension == 1:
        out += [p[0] for p in points] + [float(p[0]) for p in points]  # bare scalars
    return out


@settings(max_examples=200)
@given(st.integers(1, 2).flatmap(lambda d: st.tuples(
           st.just(d),
           st.lists(st.tuples(st.tuples(*[_coords] * d), st.integers(0, 5)), max_size=10),
           st.lists(st.tuples(*[_coords] * d), max_size=4))))
def test_every_construction_keeps_one_layout(case):
    d, pairs, dropped = case
    space = MetricSpace(d, 50.0)
    want = {}  # the canonical point -> count mapping the pairs stand for
    for g, c in pairs:
        if c:
            pt = as_point(g, d)
            want[pt] = want.get(pt, 0) + c
    built = [Histogram(_merged(pairs), space)]
    if d == 1:  # the array form is 1-D only
        built.append(Histogram((np.array([g[0] for g, _ in pairs], dtype=float),
                                np.array([c for _, c in pairs], dtype=np.int64)), space))
    # with_counts on a base that also holds the dropped points: their bars go
    base = Histogram({**{g: 1 for g in want}, **{g: 1 for g in dropped}}, space)
    built.append(base.with_counts([want.get(g, 0) for g, _ in base.items()]))

    first = built[0]
    for x in built:
        assert x == first and hash(x) == hash(first)
        assert x.support() == frozenset(want) and len(x) == len(want)
        assert dict(x.items()) == want and x.size == sum(want.values())
        points, counts = x.bars()
        assert list(points) == sorted(want) and counts.dtype == np.int64
        for g in _probes(list(want) + [as_point(g, d) for g in dropped], d):
            got = x.count(g)
            assert type(got) is int
            assert got == dict(x.items()).get(as_point(g, d), 0) == want.get(as_point(g, d), 0)
        if d == 1:
            old = np.array([g[0] for g in points], dtype=float)
            assert x.coordinates().dtype == old.dtype
            assert x.coordinates().tobytes() == old.tobytes()


# ---------------------------------------------------------------------------
# neighbors


def test_neighbors_examples():
    assert neighbors(H({0: 1, 3: 2}), H({0: 1, 3: 2}))
    assert neighbors(H({0: 2}), H({0: 1}))
    assert not neighbors(H({0: 2}), H({1: 2}))  # L1 difference is 4


def test_neighbors_space_mismatch():
    with pytest.raises(DomainError):
        neighbors(H({0: 1}), Histogram({0: 1}, MetricSpace(1, 50.0)))


@given(st.dictionaries(st.integers(0, 9), st.integers(1, 4), max_size=4),
       st.dictionaries(st.integers(0, 9), st.integers(1, 4), max_size=4))
def test_neighbors_symmetric(a, b):
    x, y = H(a or {0: 1}), H(b or {0: 1})
    assert neighbors(x, x)
    assert neighbors(x, y) == neighbors(y, x)


# ---------------------------------------------------------------------------
# dhist / dsupp


def test_dhist_examples():
    assert dhist(H({0: 1, 4: 2}), H({0: 1, 4: 2})) == 0.0
    assert dhist(H({0: 1, 1: 1}), H({0: 1, 2: 1})) == 1.0
    assert dhist(H({0: 2}), H({5: 2})) == 5.0


def test_dhist_needs_nonempty():
    with pytest.raises(DomainError):
        dhist(H({}), H({0: 1}))


def test_dhist_metric_laws_on_random_triples():
    import random

    rng = random.Random(7)
    for _ in range(50):
        hs = [H({rng.randrange(12): rng.randint(1, 3)
                 for _ in range(rng.randint(1, 3))}) for _ in range(3)]
        x, y, z = hs
        assert dhist(x, y) == pytest.approx(dhist(y, x), abs=1e-12)
        assert dhist(x, z) <= dhist(x, y) + dhist(y, z) + 1e-9
        assert dhist(x, x) == 0.0


def test_dsupp_examples():
    assert dsupp([1, 5], [1, 5]) == 0.0
    assert dsupp([1, 5], [2, 5]) == 1.0
    assert dsupp([0], [0, 10]) == 10.0
    with pytest.raises(DomainError):
        dsupp([], [0])


def test_dsupp_interior_point_can_exceed_endpoint_gaps():
    # endpoint differences are 0 here, but 4 is 4 away from {0, 10}
    assert dsupp([0, 4, 10], [0, 10]) == 4.0


@given(st.sets(st.integers(0, 30), min_size=1, max_size=5),
       st.sets(st.integers(0, 30), min_size=1, max_size=5))
def test_dsupp_dominates_endpoint_formula(s1, s2):
    endpoint = max(abs(min(s1) - min(s2)), abs(max(s1) - max(s2)))
    assert dsupp(s1, s2) >= endpoint - 1e-12


@given(st.sets(st.integers(0, 30), min_size=1, max_size=4),
       st.sets(st.integers(0, 30), min_size=1, max_size=4),
       st.sets(st.integers(0, 30), min_size=1, max_size=4))
@settings(max_examples=60)
def test_dsupp_metric_laws(s1, s2, s3):
    assert dsupp(s1, s1) == 0.0
    assert dsupp(s1, s2) == dsupp(s2, s1)
    assert dsupp(s1, s3) <= dsupp(s1, s2) + dsupp(s2, s3) + 1e-9


def test_statistic_lipschitz_in_dhist():
    """Max/Min move by at most the histogram distance; support likewise."""
    import random

    rng = random.Random(11)
    for _ in range(60):
        x = H({rng.randrange(15): rng.randint(1, 4) for _ in range(rng.randint(1, 4))})
        y = H({rng.randrange(15): rng.randint(1, 4) for _ in range(rng.randint(1, 4))})
        d = dhist(x, y)
        assert abs(eval_statistic(MAX, x) - eval_statistic(MAX, y)) <= d + 1e-9
        assert abs(eval_statistic(MIN, x) - eval_statistic(MIN, y)) <= d + 1e-9
        assert dsupp(x.support(), y.support(), x.space) <= d + 1e-9


# ---------------------------------------------------------------------------
# statistics


def test_statistic_kind_validation():
    with pytest.raises(ParameterError):
        StatisticKind("median")
    with pytest.raises(ParameterError):
        StatisticKind("maxk")  # missing k
    with pytest.raises(ParameterError):
        StatisticKind("max", k=3)
    assert str(maxk(500)) == "maxk(500)"
    assert str(MODE) == "mode"


def test_parse_statistic():
    assert parse_statistic("Max") == MAX
    assert parse_statistic("maxk", k=2) == maxk(2)
    with pytest.raises(ParameterError):
        parse_statistic("maxk")


def test_eval_statistic_examples():
    assert eval_statistic(MAX, H({1: 1, 3: 2})) == 3
    assert eval_statistic(MIN, H({1: 1, 3: 2})) == 1
    assert eval_statistic(maxk(2), H({1: 1, 3: 2, 7: 1})) == 3
    assert eval_statistic(MODE, H({2: 5, 4: 5})) == 2  # tie goes to the smaller bar
    assert eval_statistic(SUPPORT, H({2: 5, 4: 5})) == frozenset({(2,), (4,)})


def test_eval_statistic_undefined_cases():
    with pytest.raises(UndefinedStatisticError):
        eval_statistic(MAX, H({}))
    with pytest.raises(UndefinedStatisticError):
        eval_statistic(maxk(3), H({0: 2, 5: 2}))


def test_eval_statistic_needs_1d():
    x = Histogram({(0, 0): 3}, MetricSpace(2, 10.0))
    with pytest.raises(DomainError):
        eval_statistic(MAX, x)
    assert eval_statistic(SUPPORT, x) == frozenset({(0, 0)})


# ---------------------------------------------------------------------------
# text format


def test_parse_histogram_text_basics():
    x = parse_histogram_text("# heights\n3 2\n0 1\n\n3 1\n", SPACE)
    assert x.count(3) == 3  # duplicate lines accumulate
    assert x.count(0) == 1


def test_parse_histogram_infers_space():
    x = parse_histogram_text("0 1\n9 2\n")
    assert x.space == MetricSpace(1, 10.0)


def test_parse_histogram_errors():
    with pytest.raises(DomainError):
        parse_histogram_text("0 one\n", SPACE)
    with pytest.raises(DomainError):
        parse_histogram_text("0,1 2\n3 1\n")  # mixed dimensions
    with pytest.raises(DomainError):
        parse_histogram_text("# nothing\n")
    with pytest.raises(DomainError, match="outside"):
        parse_histogram_text("3 1\n100 2\n", SPACE)
    with pytest.raises(DomainError, match="outside"):
        parse_histogram_text("-1 3\n2 4\n")


@pytest.mark.parametrize("text, line", [
    ("4 -2\n", 1),
    ("0 -1\n0 3\n", 1),  # a later line would have cancelled it
    ("0 3\n0 -1\n", 2),
    ("1 2\n# note\n5 -7\n", 3),
])
def test_parse_histogram_rejects_a_negative_count_on_any_line(text, line):
    with pytest.raises(DomainError, match=f"^line {line}: count -\\d+ is negative$"):
        parse_histogram_text(text, SPACE)


def test_histogram_text_roundtrip_2d():
    x = Histogram({(0, 1): 2, (3.5, 2): 1}, MetricSpace(2, 10.0))
    assert parse_histogram_text(format_histogram(x), x.space) == x


@given(st.dictionaries(st.integers(0, 99), st.integers(1, 9), min_size=1, max_size=8))
def test_histogram_text_roundtrip(entries):
    x = H(entries)
    assert parse_histogram_text(format_histogram(x), SPACE) == x


def test_read_write_histogram(tmp_path):
    x = H({4: 2, 7: 1})
    path = tmp_path / "h.txt"
    write_histogram(x, str(path))
    assert read_histogram(str(path), SPACE) == x
    assert path.read_text() == "4 2\n7 1\n"
