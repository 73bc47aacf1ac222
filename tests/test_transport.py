"""Lossy transport distances against definitions, examples, and an LP oracle."""

import heapq
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from flexhist import transport
from flexhist.distortion import drmv, drop_move_switch
from flexhist.hist import DomainError, Histogram, MetricSpace
from flexhist.transport import (
    _FUZZ,
    Coupling,
    DiscreteDistribution,
    _bipartite,
    _threshold_flow,
    tv_distance,
    w_avg_lossy,
    winf,
    winf_lossy,
    winf_lossy_witness,
)

SPACE = MetricSpace(1, 100.0)


def dist(atoms, space=SPACE):
    return DiscreteDistribution(atoms, space)


def delta(point, space=SPACE):
    return dist([(point, 1)], space)


def random_dist(rng, max_atoms=4, grid=10, denom=16, space=SPACE):
    """Masses are multiples of 1/denom so comparisons against gamma are exact."""
    n = rng.randint(1, max_atoms)
    points = rng.sample(range(grid), n)
    cuts = sorted(rng.sample(range(1, denom), n - 1)) if n > 1 else []
    parts = [b - a for a, b in zip([0] + cuts, cuts + [denom])]
    return dist([(g, Fraction(m, denom)) for g, m in zip(points, parts)], space)


# ---------------------------------------------------------------------------
# construction


def test_distribution_validation():
    with pytest.raises(DomainError):
        dist([(0, Fraction(1, 2))])  # masses must sum to 1
    with pytest.raises(DomainError):
        dist([(0, 0)])
    with pytest.raises(DomainError):
        dist([])


def test_distribution_merges_duplicate_atoms():
    p = dist([(0, Fraction(1, 2)), (0.0, Fraction(1, 2))])
    assert len(p) == 1
    assert p.mass(0) == 1


def test_from_histogram():
    p = DiscreteDistribution.from_histogram(Histogram({0: 1, 4: 3}, SPACE))
    assert p.mass(4) == Fraction(3, 4)
    with pytest.raises(DomainError):
        DiscreteDistribution.from_histogram(Histogram({}, SPACE))


def test_distribution_immutable():
    p = delta(0)
    with pytest.raises(AttributeError):
        p.atoms = ()


# ---------------------------------------------------------------------------
# tv


def test_tv_examples():
    half = dist([(0, Fraction(1, 2)), (1, Fraction(1, 2))])
    assert tv_distance(half, half) == 0.0
    assert tv_distance(delta(0), delta(1)) == 1.0
    assert tv_distance(half, delta(0)) == 0.5


def test_tv_space_mismatch():
    with pytest.raises(DomainError):
        tv_distance(delta(0), delta(0, MetricSpace(1, 50.0)))


# ---------------------------------------------------------------------------
# worst-case transport


def test_winf_examples():
    p = dist([(0, Fraction(1, 2)), (1, Fraction(1, 2))])
    q = dist([(0, Fraction(1, 2)), (2, Fraction(1, 2))])
    assert winf(p, p) == 0.0
    assert winf(p, q) == 1.0
    assert winf(delta(0), delta(7)) == 7.0


def test_winf_lossy_examples():
    p = dist([(0, Fraction(1, 2)), (1, Fraction(1, 2))])
    assert winf_lossy(p, delta(3), 1.0) == 0.0
    assert winf_lossy(p, delta(0), 0.5) == 0.0
    # at gamma = 0.25 only half the mass sits on 0, so the 1 -> 0 edge is forced
    assert winf_lossy(p, delta(0), 0.25) == 1.0


def test_winf_lossy_fuzz_boundary():
    # 1/2 of p's mass must move 5 unless the loss covers it; the 1e-12 slack
    # (_FUZZ) absorbs a shortfall of 1e-13 but not one of 1e-11
    p, q = dist([(0, Fraction(1, 2)), (5, Fraction(1, 2))]), delta(0)
    assert winf_lossy(p, q, 0.5) == 0.0
    assert winf_lossy(p, q, 0.5 - 1e-13) == 0.0
    assert winf_lossy(p, q, 0.5 - 1e-11) == 5.0


def test_winf_lossy_gamma_validation():
    with pytest.raises(DomainError):
        winf_lossy(delta(0), delta(1), -0.1)
    with pytest.raises(DomainError):
        winf_lossy(delta(0), delta(1), 1.5)
    with pytest.raises(DomainError, match="^transport across different spaces$"):
        winf_lossy_witness(delta(0), delta(0, MetricSpace(1, 50.0)), 0.5)


def test_winf_lossy_monotone_in_gamma():
    rng = random.Random(3)
    for _ in range(40):
        p, q = random_dist(rng), random_dist(rng)
        values = [winf_lossy(p, q, g / 8) for g in range(9)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
        assert values[8] == 0.0


def test_winf_2d():
    sp = MetricSpace(2, 10.0)
    assert winf(delta((0, 0), sp), delta((3, 4), sp)) == 5.0


# ---------------------------------------------------------------------------
# witness couplings


def test_witness_matches_value_and_budgets():
    rng = random.Random(5)
    for _ in range(40):
        p, q = random_dist(rng), random_dist(rng)
        gamma = rng.choice([0, 1, 2, 4, 8]) / 16
        beta, coupling = winf_lossy_witness(p, q, gamma)
        assert beta == winf_lossy(p, q, gamma)
        assert coupling.total_mass() == 1
        assert float(coupling.deviation_sum(p, q)) <= gamma + 1e-9
        assert coupling.max_distance(p.space) <= beta + 1e-9


def test_witness_trivial_cases():
    p = delta(4)
    beta, coupling = winf_lossy_witness(p, p, 0.0)
    assert beta == 0.0
    assert coupling.cells == (((4,), (4,), Fraction(1)),)
    beta, coupling = winf_lossy_witness(delta(0), delta(7), 0.0)
    assert beta == 7.0
    assert len(coupling.cells) == 1


def test_coupling_marginals():
    c = Coupling((((0,), (1,), Fraction(1, 2)), ((0,), (0,), Fraction(1, 2))))
    assert c.first_marginal() == {(0,): Fraction(1)}
    assert c.second_marginal() == {(1,): Fraction(1, 2), (0,): Fraction(1, 2)}


# ---------------------------------------------------------------------------
# the threshold flow against the binary search it replaced
#
# The binary search over candidate radii, with a fresh network and max-flow
# at every probe, kept verbatim as the reference.


def _threshold_flow_reference(src, dst, space, need):
    d2 = [[space.dist2_exact(a, b) for b, _ in dst] for a, _ in src]
    candidates = sorted({Fraction(0)} | {v for row in d2 for v in row})
    src_caps = [c for _, c in src]
    dst_caps = [c for _, c in dst]

    def solve(k: int):
        beta2 = candidates[k]
        net, s, t = _bipartite(src_caps, dst_caps,
                               ((i, j, 0.0) for i, row in enumerate(d2)
                                for j, v in enumerate(row) if v <= beta2))
        return net.max_flow(s, t), net

    lo, hi, best = 0, len(candidates) - 1, None
    routed, net = solve(0)
    if routed >= need:
        hi, best = 0, net
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        routed, net = solve(mid)
        if routed >= need:
            hi, best = mid, net
        else:
            lo = mid
    if best is None:  # the answer is the largest candidate, which no probe visits
        _, best = solve(hi)
    ns = len(src)
    back = [best.cap[ns + j] for j in range(len(dst))]  # residual back-edges
    flow = {(i, j): b[i] for i in range(ns) for j, b in enumerate(back)
            if b.get(i, 0) > 0}  # = shipped amounts, in (i, j) order
    return candidates[hi], flow


@st.composite
def threshold_cases(draw):
    """(src, dst, need): 1-D or 2-D atoms with exact capacities, and a need
    from below 0 up to the smaller side's total."""
    dim = draw(st.sampled_from([1, 2]))
    atom = st.tuples(st.tuples(*[st.integers(0, 9)] * dim),
                     st.integers(1, 12).map(lambda k: Fraction(k, 4)))
    src = draw(st.lists(atom, min_size=1, max_size=8))
    dst = draw(st.lists(atom, min_size=1, max_size=8))
    total = min(sum(c for _, c in src), sum(c for _, c in dst))
    return src, dst, total * Fraction(draw(st.integers(-2, 16)), 16)


@settings(deadline=None, max_examples=200)
@given(case=threshold_cases())
@example(case=([((0,), Fraction(1))], [((3,), Fraction(1))], Fraction(1)))  # largest radius
@example(case=([((0,), Fraction(1, 2)), ((4,), Fraction(1, 2))], [((4,), Fraction(1))],
               -_FUZZ))  # need <= 0, as at gamma = 1
@example(case=([((2, 2), Fraction(1, 2)), ((2, 2), Fraction(1, 2))],
               [((2, 2), Fraction(1))], Fraction(1)))  # only zero-distance pairs
def test_threshold_flow_matches_the_binary_search(case):
    src, dst, need = case
    _assert_threshold_flow_matches_reference(src, dst, MetricSpace(len(src[0][0]), 10.0), need)


#: 1-D coordinates: quarter points or arbitrary floats
LINE_COORD = st.one_of(st.integers(0, 40).map(lambda k: k / 4),
                       st.floats(0, 10, allow_nan=False, allow_infinity=False))


@st.composite
def line_threshold_cases(draw):
    """(src, dst, need) in 1-D: atoms in any order on quarter or arbitrary
    float points, drawn from a small pool so that points repeat within and
    across the two sides; capacities in quarters and thirds."""
    pool = draw(st.lists(LINE_COORD, min_size=1, max_size=6))
    cap = st.builds(Fraction, st.integers(1, 12), st.sampled_from([3, 4]))
    atom = st.tuples(st.sampled_from(pool).map(lambda v: (v,)), cap)
    src = draw(st.lists(atom, min_size=1, max_size=8))
    dst = draw(st.lists(atom, min_size=1, max_size=8))
    total = min(sum(c for _, c in src), sum(c for _, c in dst))
    return src, dst, total * Fraction(draw(st.integers(-2, 16)), 16)


@settings(deadline=None, max_examples=200)
@given(case=line_threshold_cases())
@example(case=([((0.1,), Fraction(1, 3)), ((0.1,), Fraction(2, 3))],
               [((0.30000000000000004,), Fraction(1))], Fraction(1)))  # duplicates, float gap
@example(case=([((2.75,), Fraction(1, 4)), ((0.5,), Fraction(3, 4))],
               [((2.5,), Fraction(1, 2)), ((0.25,), Fraction(1, 2))], Fraction(3, 4)))  # unsorted
def test_line_sweep_matches_the_max_flow_oracle(case):
    src, dst, need = case
    _assert_threshold_flow_matches_reference(src, dst, MetricSpace(1, 10.0), need)


def _assert_threshold_flow_matches_reference(src, dst, space, need):
    want_r2, want_flow = _threshold_flow_reference(src, dst, space, need)
    r2, flow = _threshold_flow(src, dst, space, need)
    assert r2 == want_r2
    assert list(flow) == sorted(flow)
    for (i, j), m in flow.items():
        assert m > 0
        assert space.dist2_exact(src[i][0], dst[j][0]) <= r2
    for i, (_, c) in enumerate(src):
        assert sum(m for (a, _), m in flow.items() if a == i) <= c
    for j, (_, c) in enumerate(dst):
        assert sum(m for (_, b), m in flow.items() if b == j) <= c
    assert sum(flow.values()) == sum(want_flow.values()) >= need


# ---------------------------------------------------------------------------
# average-case transport vs a direct LP on the definition


def _wavg_lp(p, q, theta):
    """Min-cost shipment of mass 1 - theta with marginals capped by p and q."""
    pts = sorted(set(p.points()) | set(q.points()))
    n = len(pts)
    pm = [float(p.mass(g)) for g in pts]
    qm = [float(q.mass(g)) for g in pts]
    cost = [p.space.distance(a, b) for a in pts for b in pts]
    a_ub, b_ub = [], []
    for i in range(n):  # row sums <= p
        row = [1.0 if k // n == i else 0.0 for k in range(n * n)]
        a_ub.append(row)
        b_ub.append(pm[i])
    for j in range(n):  # column sums <= q
        col = [1.0 if k % n == j else 0.0 for k in range(n * n)]
        a_ub.append(col)
        b_ub.append(qm[j])
    a_eq = [[1.0] * (n * n)]
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0 - theta],
                  bounds=(0, None), method="highs")
    assert res.success
    return float(res.fun)


def test_w_avg_examples():
    p = dist([(0, Fraction(1, 2)), (1, Fraction(1, 2))])
    assert w_avg_lossy(p, p, 0.0) == 0.0
    assert w_avg_lossy(delta(0), delta(4), 0.5) == pytest.approx(2.0, abs=1e-12)
    assert w_avg_lossy(p, delta(0), 0.0) == pytest.approx(0.5, abs=1e-12)


def _random_dist_2d(rng, space, max_atoms=4, denom=22):
    """Atoms on the integer grid of a 2-D space: square-root distances."""
    side = int(space.bound)
    n = rng.randint(1, max_atoms)
    cells = rng.sample(range(side * side), n)
    cuts = sorted(rng.sample(range(1, denom), n - 1)) if n > 1 else []
    parts = [b - a for a, b in zip([0] + cuts, cuts + [denom])]
    return dist([(divmod(i, side), Fraction(m, denom)) for i, m in zip(cells, parts)], space)


def test_w_avg_matches_lp_oracle():
    rng = random.Random(9)
    for _ in range(60):
        p, q = random_dist(rng), random_dist(rng)
        theta = rng.choice([0, 1, 3, 8, 12]) / 16
        assert w_avg_lossy(p, q, theta) == pytest.approx(_wavg_lp(p, q, theta), abs=1e-7)
    space = MetricSpace(2, 12.0)
    rng = random.Random(10)
    for _ in range(60):
        p, q = _random_dist_2d(rng, space), _random_dist_2d(rng, space)
        theta = rng.choice([0, 1, 3, 8, 12]) / 16
        assert w_avg_lossy(p, q, theta) == pytest.approx(_wavg_lp(p, q, theta), abs=1e-7)


def test_w_avg_2d_roundoff_keeps_the_path_tree_acyclic():
    # float reduced costs went just below zero on this instance, which closed
    # a cycle in Dijkstra's path tree; augmenting along it never ended
    space = MetricSpace(2, 12.0)
    p = dist([((1, 1), Fraction(1, 22)), ((4, 1), Fraction(7, 22)),
              ((7, 2), Fraction(9, 22)), ((11, 6), Fraction(5, 22))], space)
    q = delta((3, 8), space)
    assert w_avg_lossy(p, q, 0.0) == pytest.approx(_wavg_lp(p, q, 0.0), abs=1e-9)
    assert w_avg_lossy(p, q, 0.0) == pytest.approx(7.404934717584874, abs=1e-12)


def test_w_avg_theta_validation():
    with pytest.raises(DomainError):
        w_avg_lossy(delta(0), delta(1), 2.0)
    with pytest.raises(DomainError, match="^transport across different spaces$"):
        w_avg_lossy(delta(0), delta(0, MetricSpace(1, 50.0)), 0.5)


# ---------------------------------------------------------------------------
# 1-D average-case transport against the flow network it replaced
#
# The network form of _min_cost_partial, kept verbatim as the reference.


def _min_cost_partial_reference(p, q, target):
    space = p.space
    net, s, t = _bipartite([m for _, m in p.atoms], [m for _, m in q.atoms],
                           ((i, j, space.distance(a, b))
                            for i, (a, _) in enumerate(p.atoms)
                            for j, (b, _) in enumerate(q.atoms)))
    n = net.n
    potential = [0.0] * n  # all raw costs >= 0, so Dijkstra works from the start
    shipped = Fraction(0)
    total_cost = 0.0
    while shipped < target:
        dist = [math.inf] * n
        prev = [-1] * n
        dist[s] = 0.0
        pq = [(0.0, s)]
        while pq:
            d, u = heapq.heappop(pq)
            if d > dist[u] + 1e-15:
                continue
            cost_u, pot_u = net.cost[u], potential[u]
            for v, c in net.cap[u].items():
                if c <= 0:
                    continue
                # reduced costs are >= 0 in exact arithmetic; float roundoff
                # can push one below, and a negative edge can close a cycle
                # in prev, so clamp it at 0
                rc = cost_u[v] + pot_u - potential[v]
                nd = d + rc if rc > 0.0 else d
                if nd < dist[v] - 1e-15:
                    dist[v] = nd
                    prev[v] = u
                    heapq.heappush(pq, (nd, v))
        if prev[t] == -1:
            break  # cannot ship more (supplies exhausted)
        for u in range(n):
            if dist[u] < math.inf:
                potential[u] += dist[u]
        pushed, path_cost = net.augment(prev, s, t, target - shipped)
        total_cost += path_cost * float(pushed)
        shipped += pushed
    return total_cost


@st.composite
def line_pairs(draw):
    """Two 1-D distributions with exact masses on points from one small pool,
    so that atoms of p and q often share a point."""
    pool = draw(st.lists(LINE_COORD, min_size=1, max_size=8))

    def distribution():
        atoms = draw(st.lists(st.tuples(st.sampled_from(pool), st.integers(1, 12)),
                              min_size=1, max_size=8))
        total = sum(w for _, w in atoms)
        return dist([(g, Fraction(w, total)) for g, w in atoms])

    return distribution(), distribution()


@settings(deadline=None, max_examples=150)
@given(pq=line_pairs(), theta=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0, 1)))
def test_line_w_avg_matches_the_flow_network(pq, theta):
    p, q = pq
    want = _min_cost_partial_reference(p, q, 1 - Fraction(theta)) if theta < 1 else 0.0
    assert w_avg_lossy(p, q, theta) == pytest.approx(want, abs=1e-9)


@settings(deadline=None, max_examples=150)
@given(pq=line_pairs())
def test_line_w_avg_at_full_mass_is_the_cdf_gap_integral(pq):
    p, q = pq
    points = sorted(set(p.points()) | set(q.points()))
    cdf_p = cdf_q = integral = Fraction(0)
    for a, b in zip(points, points[1:]):
        cdf_p += p.mass(a)
        cdf_q += q.mass(a)
        integral += abs(cdf_p - cdf_q) * (Fraction(b[0]) - Fraction(a[0]))
    assert w_avg_lossy(p, q, 0.0) == float(integral)


def test_line_solvers_build_no_flow_network(monkeypatch):
    def refuse(n):
        raise AssertionError("a 1-D solve built a flow network")

    monkeypatch.setattr(transport, "_FlowNet", refuse)
    p = dist([(0, Fraction(1, 2)), (2.5, Fraction(1, 2))])
    q = dist([(1, Fraction(1, 4)), (3, Fraction(3, 4))])
    assert winf_lossy(p, q, 0.0) == 3.0
    assert winf_lossy_witness(p, q, 0.25)[0] == 1.0
    assert w_avg_lossy(p, q, 0.0) == 1.25
    x = Histogram({0: 2, 3: 1}, SPACE)
    assert drmv(x, Histogram({1: 1, 3: 1}, SPACE), 1.0).value == pytest.approx(1 / 3 + 1)
    drop_move_switch(x, Histogram({1: 2, 4: 1}, SPACE), Histogram({1: 1, 4: 1}, SPACE))
    sp = MetricSpace(2, 10.0)
    with pytest.raises(AssertionError, match="flow network"):  # d >= 2 keeps the network
        winf(delta((0, 0), sp), delta((3, 4), sp))


# ---------------------------------------------------------------------------
# noise floor of the numpy interop: masses passed as floats stay exact


def test_float_masses_convert_exactly():
    p = dist([(0, 0.5), (1, np.float64(0.5))])
    assert p.mass(0) == Fraction(1, 2)
    assert winf_lossy(p, delta(0), 0.5) == 0.0
