"""Pins the benchmark's reference checks to the program's brute-force oracles.

    PYTHONPATH=src python3 -m pytest perfbench/test_oracles.py
"""

import os
import random
import sys
from fractions import Fraction

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

from flexhist import audit, transport  # noqa: E402
from flexhist.hist import MAX, MODE, Histogram, MetricSpace, maxk  # noqa: E402

import oracles  # noqa: E402

SPACE = MetricSpace(1, 8.0)
BUDGETS = (0.0, 0.1, 0.2, 0.34, 0.5)


def _tiny_histograms(seed, count=100):
    rnd = random.Random(seed)
    for _ in range(count):
        bars = {}
        for _ in range(rnd.randint(1, 12)):
            g = rnd.randrange(8)
            bars[g] = bars.get(g, 0) + 1
        yield Histogram(bars, SPACE)


@pytest.mark.parametrize("kind", [MAX, maxk(2), maxk(3), MODE], ids=str)
def test_flexible_error_matches_brute_force(kind):
    released_values = [r / 2 for r in range(-1, 17)]
    for x in _tiny_histograms(str(kind)):
        bars = [(g[0], c) for g, c in x.items()]
        for budget in BUDGETS:
            points = oracles.reachable(kind, bars, oracles.drop_allowance(budget, x.size))
            for released in released_values:
                want = audit.flexible_error_brute(kind, x, released, budget)
                assert oracles.flexible_error(points, released, SPACE.bound) == want


@pytest.mark.parametrize("kind", [MAX, maxk(2), MODE], ids=str)
def test_truth_is_the_statistic(kind):
    for x in _tiny_histograms(7):
        bars = [(g[0], c) for g, c in x.items()]
        want = audit.flexible_error_brute(kind, x, 0.0, 0.0)
        got = oracles.truth(kind, bars)
        assert (SPACE.bound if got is None else got) == want


def test_drop_allowance_is_exact_floor():
    assert oracles.drop_allowance(0.005, 10_000) == 50
    assert oracles.drop_allowance(0.005, 9_999) == 49
    assert oracles.drop_allowance(0.25, 4) == 1
    assert oracles.drop_allowance(0.0, 100) == 0


def _tiny_distribution(rnd):
    pts = rnd.sample(range(8), rnd.randint(1, 4))
    weights = [rnd.randint(1, 5) for _ in pts]
    total = sum(weights)
    return transport.DiscreteDistribution(
        [(g, Fraction(w, total)) for g, w in zip(pts, weights)], SPACE)


def test_quantile_winf_matches_brute_force():
    rnd = random.Random(11)
    for _ in range(40):
        p, q = _tiny_distribution(rnd), _tiny_distribution(rnd)
        got = oracles.quantile_winf([(g[0], w) for g, w in p.atoms],
                                    [(g[0], w) for g, w in q.atoms])
        assert float(got) == audit.brute_winf_lossy(p, q, 0.0)


def test_tv_matches_program():
    rnd = random.Random(12)
    for _ in range(40):
        p, q = _tiny_distribution(rnd), _tiny_distribution(rnd)
        got = oracles.tv([(g[0], w) for g, w in p.atoms], [(g[0], w) for g, w in q.atoms])
        assert float(got) == transport.tv_distance(p, q)


def test_quantile_winf_rejects_unequal_mass():
    with pytest.raises(ValueError):
        oracles.quantile_winf([(0, 1)], [(0, Fraction(1, 2))])
