"""Drop / move / drop-then-move distortions and the path-reordering construction."""

import math
import random
from fractions import Fraction

import pytest

from flexhist import transport
from flexhist.distortion import (
    FractionalHistogram,
    drmv,
    drop,
    drop_move_switch,
    move,
)
from flexhist.hist import DomainError, Histogram, MetricSpace, ParameterError

SPACE = MetricSpace(1, 200.0)


def H(entries, space=SPACE):
    return Histogram(entries, space)


def random_hist(rng, grid=10, bars=3, max_count=4):
    return H({rng.randrange(grid): rng.randint(1, max_count)
              for _ in range(rng.randint(1, bars))})


def sub_hist(rng, x, keep_at_least=0):
    """Random pointwise-dominated sub-histogram of x."""
    entries = {g: rng.randint(0, c) for g, c in x.items()}
    while sum(entries.values()) < keep_at_least:
        g = rng.choice([g for g, c in x.items() if entries[g] < c])
        entries[g] += 1
    return H(entries)


# ---------------------------------------------------------------------------
# drop


def test_drop_examples():
    x = H({0: 3, 1: 1})
    assert drop(x, x) == 0.0
    assert drop(x, H({0: 2, 1: 1})) == 0.25
    assert drop(H({0: 1}), H({0: 1, 1: 1})) == math.inf  # additions forbidden
    with pytest.raises(DomainError):
        drop(H({}), x)
    with pytest.raises(DomainError, match="^drop across different spaces$"):
        drop(x, H({0: 3}, MetricSpace(1, 50.0)))


def test_drop_quasi_metric_on_chains():
    rng = random.Random(2)
    for _ in range(100):
        x = random_hist(rng)
        y = sub_hist(rng, x)
        z = sub_hist(rng, y)
        assert drop(x, z) <= drop(x, y) + (drop(y, z) if y.size else 0.0) + 1e-12


# ---------------------------------------------------------------------------
# move


def test_move_examples():
    assert move(H({0: 1, 1: 1}), H({0: 1, 2: 1})) == 1.0
    assert move(H({0: 2}), H({0: 1})) == math.inf
    assert move(H({}), H({})) == 0.0
    assert move(H({3: 2}), H({3: 2})) == 0.0
    with pytest.raises(DomainError, match="^move across different spaces$"):
        move(H({3: 2}), H({3: 2}, MetricSpace(1, 50.0)))


def test_move_metric_laws():
    rng = random.Random(4)
    for _ in range(100):
        n = rng.randint(1, 5)
        xs = []
        for _ in range(3):
            bars = {}
            for _ in range(n):
                g = rng.randrange(12)
                bars[g] = bars.get(g, 0) + 1
            xs.append(H(bars))
        x, y, z = xs
        assert move(x, y) == move(y, x)
        assert move(x, x) == 0.0
        assert move(x, z) <= move(x, y) + move(y, z) + 1e-9


# ---------------------------------------------------------------------------
# drmv


def test_drmv_examples():
    big = MetricSpace(1, 200.0)
    x = Histogram({0: 1, 100: 1}, big)
    r = drmv(x, Histogram({1: 1}, big), eta=1.0)
    assert r.value == pytest.approx(1.5, abs=1e-12)  # drop the far point, move 0 -> 1
    assert r.witness == Histogram({0: 1}, big)
    assert drmv(x, x, 0.3).value == 0.0
    assert drmv(Histogram({0: 1}, big), Histogram({0: 2}, big), 1.0).value == math.inf


def test_drmv_validation():
    with pytest.raises(DomainError):
        drmv(H({}), H({0: 1}), 1.0)
    with pytest.raises(ParameterError):
        drmv(H({0: 1}), H({0: 1}), -1.0)
    with pytest.raises(DomainError, match="^drmv across different spaces$"):
        drmv(H({0: 1}), H({0: 1}, MetricSpace(1, 50.0)), 1.0)


def test_drmv_empty_target():
    r = drmv(H({0: 2}), H({}), 1.0)
    assert r.value == 1.0
    assert r.witness == H({})


def _drmv_brute(x, y, eta):
    """Enumerate every z <= x with |z| = |y|; the drop count is forced."""
    import itertools

    if y.size > x.size:
        return math.inf
    drop_part = (x.size - y.size) / x.size
    if y.size == 0:
        return drop_part
    bars = list(x.items())
    best = math.inf
    for counts in itertools.product(*[range(c + 1) for _, c in bars]):
        if sum(counts) != y.size:
            continue
        z = H({g: c for (g, _), c in zip(bars, counts) if c > 0}, x.space)
        best = min(best, move(z, y))
    return drop_part + eta * best


def _assert_drmv_matches_brute(x, y, eta):
    r = drmv(x, y, eta)
    assert r.value == pytest.approx(_drmv_brute(x, y, eta), abs=1e-9)
    if r.witness is not None and r.witness.size:
        assert all(c <= x.count(g) for g, c in r.witness.items())
        assert r.witness.size == y.size
        assert r.value == pytest.approx(
            (x.size - y.size) / x.size + eta * move(r.witness, y), abs=1e-9)


def test_drmv_matches_enumeration():
    rng = random.Random(6)
    for _ in range(80):
        x = random_hist(rng, grid=8, bars=3, max_count=4)
        if x.size > 10:
            continue
        y = sub_hist(rng, x)
        # shuffle y's bars around so moving is actually exercised
        moved = {}
        for g, c in y.items():
            shift = rng.choice([-1, 0, 1])
            tgt = min(7, max(0, g[0] + shift))
            moved[tgt] = moved.get(tgt, 0) + c
        _assert_drmv_matches_brute(x, H(moved), rng.choice([0.0, 0.5, 1.0, 2.0]))
    # 2-D: distances are square roots of sums of squares, so the candidate
    # radii are no longer the coordinate gaps
    plane = MetricSpace(2, 10.0)

    def point():
        return (rng.randrange(4), rng.randrange(4))

    for _ in range(40):
        x = H({point(): rng.randint(1, 3) for _ in range(rng.randint(1, 3))}, plane)
        y = H({point(): rng.randint(1, 2) for _ in range(rng.randint(1, 3))}, plane)
        _assert_drmv_matches_brute(x, y, rng.choice([0.0, 0.5, 1.0, 2.0]))


def test_drmv_quasi_metric_triangle():
    rng = random.Random(8)
    for _ in range(60):
        x = random_hist(rng, grid=6, bars=3, max_count=3)
        y = sub_hist(rng, x, keep_at_least=1)
        z = sub_hist(rng, y)
        eta = rng.choice([0.0, 0.5, 1.0])
        total = drmv(x, z, eta).value
        via = drmv(x, y, eta).value + (drmv(y, z, eta).value if y.size else 0.0)
        assert total <= via + 1e-9


# ---------------------------------------------------------------------------
# drop-move switch


def test_switch_identity():
    x = H({0: 2, 3: 1})
    s = drop_move_switch(x, x, x)
    assert s.size == 3
    assert drop(x, s) == 0.0
    assert move(s, x) == 0.0


def test_switch_worked_example():
    x, z, y = H({0: 2}), H({1: 2}), H({1: 1})
    s = drop_move_switch(x, z, y)
    assert s.items() == (((0,), Fraction(1)),)
    assert drop(x, s) == 0.5
    assert move(s, y) <= 1.0 + 1e-12


def test_switch_guarantees_on_random_instances():
    rng = random.Random(10)
    done = 0
    while done < 100:
        x = random_hist(rng, grid=8, bars=3, max_count=3)
        # z = x with bars shifted (equal sizes keep move finite)
        z = {}
        for g, c in x.items():
            tgt = min(7, max(0, g[0] + rng.choice([-2, -1, 0, 1, 2])))
            z[tgt] = z.get(tgt, 0) + c
        z = H(z)
        y = sub_hist(rng, z, keep_at_least=1)
        a1, a2 = move(x, z), drop(z, y)
        s = drop_move_switch(x, z, y)
        assert drop(x, s) == pytest.approx(a2, abs=1e-9)
        assert move(s, y) <= a1 + 1e-9
        done += 1


def test_switch_solves_transport_once(monkeypatch):
    calls = []
    solve = transport._threshold_flow
    monkeypatch.setattr(transport, "_threshold_flow",
                        lambda *args: calls.append(args) or solve(*args))
    drop_move_switch(H({0: 2, 3: 1}), H({1: 2, 4: 1}), H({1: 1, 4: 1}))
    assert len(calls) == 1


def test_switch_validation():
    x = H({0: 2})
    with pytest.raises(DomainError):
        drop_move_switch(x, H({0: 1}), H({0: 1}))  # move(x, z) infinite
    with pytest.raises(DomainError):
        drop_move_switch(x, H({1: 2}), H({}))  # full drop, a2 = 1
    with pytest.raises(DomainError):
        drop_move_switch(x, H({1: 2}), H({1: 2, 3: 1}))  # drop(z, y) infinite
    with pytest.raises(DomainError):
        drop_move_switch(H({}), H({}), H({}))  # empty intermediate
    with pytest.raises(DomainError):
        drop_move_switch(x, H({1: 2}, MetricSpace(1, 50.0)), H({1: 1}))  # two spaces


# ---------------------------------------------------------------------------
# fractional histograms


def test_fractional_rejects_negative_mass():
    with pytest.raises(DomainError):
        FractionalHistogram([(0, Fraction(-1, 2))], SPACE)
