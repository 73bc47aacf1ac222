"""Independent verification routes: LP transport oracle, exact DP audit, flexible error."""

import math
import random
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flexhist.audit import (
    AuditInstance,
    _drop_allowance,
    _full_range,
    _reachable,
    brute_winf_lossy,
    check_drop_witness,
    dp_delta_exact,
    flexible_error,
    flexible_error_brute,
    trlap_pmf_factory,
)
from flexhist.certificates import trlap_delta
from flexhist.hist import (
    MAX,
    MIN,
    MODE,
    SUPPORT,
    DomainError,
    Histogram,
    MetricSpace,
    ParameterError,
    maxk,
)
from flexhist.mechanisms import UNDEFINED, trlap_output_pmf
from flexhist.transport import DiscreteDistribution, winf_lossy

SPACE = MetricSpace(1, 100.0)


def H(entries, space=SPACE):
    return Histogram(entries, space)


def dist(atoms, space=SPACE):
    return DiscreteDistribution(atoms, space)


# ---------------------------------------------------------------------------
# transport oracle


def test_brute_winf_lossy_spot_values():
    p = dist([((0,), Fraction(1))])
    q = dist([((1,), Fraction(1))])
    assert brute_winf_lossy(p, q, 0.0) == 1.0
    assert brute_winf_lossy(p, q, 1.0) == 0.0
    half = dist([((0,), Fraction(1, 2)), ((1,), Fraction(1, 2))])
    assert brute_winf_lossy(half, p, 0.5) == 0.0
    assert brute_winf_lossy(half, p, 0.25) == 1.0


def test_brute_winf_lossy_agrees_with_production_route():
    rng = random.Random(31415)
    for _ in range(25):
        pts = rng.sample(range(12), 4)
        cuts = sorted(rng.randint(0, 16) for _ in range(3))
        masses = [Fraction(b - a, 16) for a, b in zip([0] + cuts, cuts + [16])]
        p = dist([((pts[i],), masses[i]) for i in range(4) if masses[i] > 0],
                 MetricSpace(1, 12.0))
        q = dist([((pts[3 - i],), masses[i]) for i in range(4) if masses[i] > 0],
                 MetricSpace(1, 12.0))
        gamma = rng.randrange(0, 9) / 8
        assert brute_winf_lossy(p, q, gamma) == winf_lossy(p, q, gamma)


def test_brute_winf_lossy_guards():
    big = dist([((i,), Fraction(1, 5)) for i in range(5)])
    one = dist([((0,), Fraction(1))])
    with pytest.raises(DomainError):
        brute_winf_lossy(big, one, 0.0)
    with pytest.raises(DomainError):
        brute_winf_lossy(one, one, 1.5)
    with pytest.raises(DomainError):
        brute_winf_lossy(one, dist([((0,), Fraction(1))], MetricSpace(1, 50.0)), 0.0)


# ---------------------------------------------------------------------------
# exact DP audit


def _fixed_factory(count, size, eps):
    # toy per-bar law, independent of size and eps
    del size, eps
    return {1: np.array([0.4, 0.6]), 2: np.array([0.2, 0.3, 0.5])}[count]


def test_dp_delta_exact_single_bar_by_hand():
    inst = AuditInstance(x=H({0: 2}), x2=H({0: 1}), pmf_factory=_fixed_factory)
    # P = [.2,.3,.5] vs Q = [.4,.6,0]: TV = 0.5, and the Q-null outcome keeps
    # the bracket at 0.5 for every eps
    assert dp_delta_exact(inst, 0.0) == pytest.approx(0.5, abs=1e-15)
    assert dp_delta_exact(inst, math.log(2.0)) == pytest.approx(0.5, abs=1e-15)


def test_dp_delta_exact_product_law_by_hand():
    inst = AuditInstance(x=H({0: 1, 1: 1}), x2=H({0: 1}), pmf_factory=_fixed_factory)
    # P = [.4,.6] x [.4,.6], Q = [.4,.6] x [1,0]; both one-sided sums are 0.6
    assert dp_delta_exact(inst, 0.0) == pytest.approx(0.6, abs=1e-15)


def test_dp_delta_exact_identical_inputs():
    inst = AuditInstance(x=H({0: 2}), x2=H({0: 2}), pmf_factory=_fixed_factory)
    assert dp_delta_exact(inst, 0.7) == 0.0


def test_dp_delta_exact_non_increasing_in_eps():
    inst = AuditInstance(x=H({0: 10}), x2=H({0: 9}),
                         pmf_factory=trlap_pmf_factory(0.5))
    vals = [dp_delta_exact(inst, e) for e in (0.5, 1.0, 2.0)]
    assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


def test_dp_delta_exact_within_closed_form():
    # single-bar worst case at q = 6: the audit cannot beat the closed form
    inst = AuditInstance(x=H({0: 12}), x2=H({0: 11}),
                         pmf_factory=trlap_pmf_factory(0.5))
    got = dp_delta_exact(inst, 1.0)
    assert 0.0 < got <= trlap_delta(1.0, 6.0) + 1e-9  # 0.0450152865851...
    # rounding to integer counts tightens the law, so no matching lower bound


def test_dp_delta_exact_at_fixed_tau_exceeds_the_closed_form():
    # the bucketed input of `mech run --alpha 0.3 --beta 0.5 --bound 3` on
    # three bars of 30 has t = 3, so tau = 0.1 and q = tau*90 = 9; the
    # neighbour's width is tau*89, and delta rises above the closed form
    x, x2 = H({0: 30, 1: 30, 2: 30}), H({0: 30, 1: 30, 2: 29})
    moving = dp_delta_exact(AuditInstance(x, x2, trlap_pmf_factory(0.1)), 1.0)
    assert moving == pytest.approx(0.0152777456895, abs=1e-12)
    assert moving > trlap_delta(1.0, 9.0)
    # with q held at 9 on both sides the exact delta is the closed form
    fixed = AuditInstance(x, x2, lambda c, n, eps: trlap_output_pmf(c, 9, eps))
    assert dp_delta_exact(fixed, 1.0) == pytest.approx(0.00965141093268, abs=1e-12)
    assert dp_delta_exact(fixed, 1.0) == pytest.approx(trlap_delta(1.0, 9.0), abs=1e-15)


def test_dp_delta_exact_at_a_clamped_tau_exceeds_the_closed_form():
    # `mech run` on 0 30, 1 30, 2 5 with --eps 1 --beta 0.5 --bound 3 derives
    # alpha >= 1 and clamps it, so tau = (1 - 2^-53)/3 is fixed and the
    # neighbours' noise widths differ; the closed form would state 1.695e-05
    tau = math.nextafter(1.0, 0.0) / 3
    x = H({0: 30, 1: 30, 2: 5})
    for x2, want in ((H({0: 30, 1: 29, 2: 5}), 4.40054359278e-05),
                     (H({0: 30, 1: 30, 2: 4}), 3.70819682277e-05)):
        for a, b in ((x, x2), (x2, x)):
            exact = dp_delta_exact(AuditInstance(a, b, trlap_pmf_factory(tau)), 1.0)
            assert exact == pytest.approx(want, rel=1e-10)
            assert exact > trlap_delta(1.0, tau * 65) == pytest.approx(1.69518102851e-05, rel=1e-10)


def test_audit_instance_requires_neighbors():
    with pytest.raises(DomainError):
        AuditInstance(x=H({0: 3}), x2=H({0: 1}), pmf_factory=_fixed_factory)


def test_dp_delta_exact_guards():
    huge = AuditInstance(x=H({0: 2 * 10**6}), x2=H({0: 2 * 10**6 - 1}),
                         pmf_factory=_fixed_factory)
    with pytest.raises(DomainError):
        dp_delta_exact(huge, 1.0)
    inst = AuditInstance(x=H({0: 2}), x2=H({0: 1}), pmf_factory=_fixed_factory)
    with pytest.raises(ParameterError):
        dp_delta_exact(inst, -0.5)


def test_trlap_pmf_factory():
    f = trlap_pmf_factory(0.5)
    assert np.array_equal(f(3, 10, 1.0), trlap_output_pmf(3, 5.0, 1.0))
    with pytest.raises(ParameterError):
        trlap_pmf_factory(0.0)
    with pytest.raises(ParameterError):
        trlap_pmf_factory(1.0)


# ---------------------------------------------------------------------------
# flexible error


def test_flexible_error_examples():
    x = H({1: 1, 2: 1, 3: 1, 100: 1}, MetricSpace(1, 101.0))
    assert flexible_error(MAX, x, 5.0, 0.25) == 2.0  # drop the 100, land on 3
    assert flexible_error(MAX, x, 5.0, 0.0) == 95.0
    assert flexible_error(MAX, H({1: 1, 3: 2}), 2.5, 0.0) == 0.5
    assert flexible_error(MODE, H({0: 3, 1: 3}), 1.0, 1 / 6) == 0.0
    assert flexible_error(MODE, H({0: 3, 1: 3}), 1.0, 0.0) == 1.0
    assert flexible_error(MIN, x, 50.0, 0.25) == 48.0  # drop the 1, land on 2
    assert flexible_error(MIN, x, 50.0, 0.0) == 49.0


@pytest.mark.parametrize("budget, n, allowed", [
    (1 / 6, 6, 1), (0.3, 10, 3), (0.7, 10, 7),
    (0.29999999999, 10, 2),  # 2.9999999999 budgeted drops allow 2, not 3
    (0.005, 200, 1), (0.005, 199, 0),
])
def test_drop_allowance_pins(budget, n, allowed):
    assert _drop_allowance(budget, n) == allowed


@given(st.floats(0.0, 1.0, exclude_max=True), st.integers(1, 10**9))
def test_drop_allowance_brackets_the_float_exactly(budget, n):
    m = _drop_allowance(budget, n)
    top = Fraction(budget) + Fraction(math.ulp(budget)) / 2  # largest real rounding to budget
    assert Fraction(m, n) <= top < Fraction(m + 1, n)


def test_flexible_error_undefined_release_scores_full_range():
    assert flexible_error(MAX, H({5: 2}), UNDEFINED, 0.3) == 100.0


@pytest.mark.parametrize("budget", [5.0, 1.0, -0.1, math.nan])
def test_flexible_error_checks_the_budget_of_an_undefined_release(budget):
    x = H({5: 2})
    msg = re.escape(f"drop budget must be in [0,1), got {budget}")
    for released in (UNDEFINED, [UNDEFINED], [UNDEFINED, UNDEFINED]):
        with pytest.raises(ParameterError, match=msg):
            flexible_error(MAX, x, released, budget)
    with pytest.raises(ParameterError, match=msg):
        flexible_error_brute(MAX, x, UNDEFINED, budget)


def test_flexible_error_maxk_never_qualified():
    assert flexible_error(maxk(5), H({1: 2}), 1.0, 0.0) == 100.0


def test_flexible_error_handles_fractional_ground_points():
    x = Histogram({2.5: 2, 7.5: 1}, MetricSpace(1, 10.0))
    assert flexible_error(MAX, x, 2.5, 0.4) == 0.0
    assert flexible_error(MODE, x, 2.5, 0.0) == 0.0


def test_flexible_error_rejects_an_unscored_statistic_whatever_the_release():
    # an undefined support release used to score the full range
    x = Histogram({5: 2}, MetricSpace(1, 100.0))
    for released in (UNDEFINED, [UNDEFINED], [UNDEFINED, 1.0], 1.0):
        with pytest.raises(ParameterError, match="no flexible-error scoring for statistic support"):
            flexible_error(SUPPORT, x, released, 0.1)


def test_flexible_error_validation():
    with pytest.raises(DomainError):
        flexible_error(MAX, H({}), 1.0, 0.1)
    with pytest.raises(ParameterError):
        flexible_error(MAX, H({5: 2}), 1.0, 1.0)
    with pytest.raises(ParameterError):
        flexible_error(SUPPORT, H({5: 2}), 1.0, 0.1)
    with pytest.raises(DomainError):
        flexible_error(MAX, Histogram({5: 2}, MetricSpace(1)), UNDEFINED, 0.1)
    for released in (math.nan, math.inf, -math.inf):  # no nearest point, no distance
        with pytest.raises(ParameterError, match="not finite"):
            flexible_error(maxk(5), H({5: 2}), released, 0.1)  # even with nothing reachable


def test_flexible_error_matches_brute_force():
    rng = random.Random(2026)
    space = MetricSpace(1, 12.0)
    budgets = (0.0, 1 / 8, 1 / 4, 1 / 2, 3 / 4)
    kinds = [MAX, MIN, MODE, maxk(1), maxk(2), maxk(3)]
    for trial in range(40):
        bars = rng.randint(1, 4)
        pts = rng.sample(range(12), bars)
        entries = {g: rng.randint(1, 3) for g in pts}
        x = Histogram(entries, space)
        if x.size > 8:
            continue
        released = rng.choice([0.0, 1.0, 2.5, 5.0, 7.0, 11.5, UNDEFINED])
        kind = kinds[trial % len(kinds)]
        prev = math.inf
        for budget in budgets:
            fast = flexible_error(kind, x, released, budget)
            slow = flexible_error_brute(kind, x, released, budget)
            assert abs(fast - slow) <= 1e-12, (kind, entries, released, budget)
            assert fast <= prev + 1e-12  # more budget never hurts
            prev = fast


def test_flexible_error_brute_guard():
    with pytest.raises(DomainError):
        flexible_error_brute(MAX, H({0: 13}), 1.0, 0.1)
    with pytest.raises(DomainError, match="^flexible_error needs a non-empty histogram$"):
        flexible_error_brute(MAX, H({}), 1.0, 0.1)


def test_flexible_error_brute_scores_a_support_by_dsupp():
    x = Histogram({1: 5, 4: 1, 9: 4}, MetricSpace(1, 10.0))
    assert flexible_error_brute(SUPPORT, x, frozenset({(1,), (9,)}), 0.1) == 0  # drop the 4
    assert flexible_error_brute(SUPPORT, x, frozenset({(1,), (9,)}), 0.0) == 3
    assert flexible_error_brute(SUPPORT, x, frozenset({(2,)}), 0.5) == 1  # keep only the 1s
    y = Histogram({(0, 0): 3, (3, 4): 1}, MetricSpace(2, 10.0))  # support: any dimension
    assert flexible_error_brute(SUPPORT, y, frozenset({(0, 0)}), 0.25) == 0.0
    assert flexible_error_brute(SUPPORT, y, frozenset({(0, 0)}), 0.0) == 5.0


def test_flexible_error_rejects_non_1d_histograms():
    x = Histogram({(1, 9): 2, (5, 0): 1}, MetricSpace(2, 10.0))
    for kind in (MAX, MIN, MODE, maxk(1)):
        msg = re.escape(f"{kind} is defined on 1-D histograms only")
        with pytest.raises(DomainError, match=msg):
            flexible_error_brute(kind, x, 5.0, 0.0)
        with pytest.raises(DomainError, match=msg):
            flexible_error(kind, x, 5.0, 0.0)
    # before any work: neither an undefined release nor the budget is looked at
    with pytest.raises(DomainError, match="1-D"):
        flexible_error(MAX, x, UNDEFINED, 0.0)
    with pytest.raises(DomainError, match="1-D"):
        flexible_error_brute(MAX, x, UNDEFINED, 0.0)
    with pytest.raises(DomainError, match="1-D"):
        flexible_error(MAX, x, 5.0, 2.0)


KINDS = (MAX, MIN, MODE, maxk(1), maxk(2), maxk(3))
TINY = MetricSpace(1, 12.0)


def _at_most_12_elements(entries):
    kept, total = {}, 0
    for g, c in sorted(entries.items()):
        if total + c > 12:
            break
        kept[g] = c
        total += c
    return kept


@settings(deadline=None, max_examples=150)
@given(entries=st.dictionaries(st.integers(0, 11), st.integers(1, 4), min_size=1,
                               max_size=8).map(_at_most_12_elements),
       kind=st.sampled_from(KINDS),
       released=st.one_of(st.floats(0.0, 12.0), st.integers(0, 11).map(float),
                          st.just(UNDEFINED)),
       budget=st.floats(0.0, 0.75))
@example(entries={0: 2, 3: 2, 5: 2, 9: 2}, kind=MODE, released=9.0, budget=0.5)  # all equal
@example(entries={2: 3, 5: 1, 8: 3}, kind=MODE, released=8.0, budget=1 / 7)  # tie left of 8
@example(entries={2: 3, 5: 1, 8: 3}, kind=MODE, released=8.0, budget=0.0)  # m = 0
@example(entries={1: 2, 4: 3, 6: 2}, kind=MAX, released=1.0, budget=6 / 7)  # m = n - 1
@example(entries={1: 2, 4: 3, 6: 2}, kind=maxk(2), released=0.0, budget=6 / 7)
def test_flexible_error_matches_brute_force_on_tiny_inputs(entries, kind, released, budget):
    x = Histogram(entries, TINY)
    want = flexible_error_brute(kind, x, released, budget)
    assert flexible_error(kind, x, released, budget) == want


@settings(deadline=None, max_examples=150)
@given(entries=st.dictionaries(st.integers(0, 99), st.integers(1, 6), min_size=1, max_size=10),
       kind=st.sampled_from(KINDS + (maxk(50),)),  # maxk(50): no bar ever qualifies
       released=st.lists(st.one_of(st.floats(-50.0, 150.0), st.integers(-50, 150),
                                   st.just(UNDEFINED)), max_size=12),
       budget=st.floats(0.0, 0.75),
       form=st.sampled_from((list, tuple, lambda v: np.array(v, dtype=object))))
@example(entries={5: 2}, kind=maxk(50), released=[UNDEFINED, 3.0], budget=0.0, form=list)
@example(entries={5: 2}, kind=MAX, released=[UNDEFINED, UNDEFINED], budget=0.0, form=tuple)
def test_flexible_error_of_a_sequence_scores_each_value_as_alone(entries, kind, released,
                                                                 budget, form):
    x = H(entries)
    out = flexible_error(kind, x, form(released), budget)
    assert isinstance(out, np.ndarray) and out.dtype == np.float64
    singles = [flexible_error(kind, x, v, budget) for v in released]
    assert all(type(v) is float for v in singles)
    assert out.tolist() == singles


def test_flexible_error_of_a_float_array():
    x = H({1: 3, 40: 2, 70: 5})
    values = np.array([0.0, 39.5, 55.0, 99.0])
    assert flexible_error(MAX, x, values, 0.0).tolist() == [
        flexible_error(MAX, x, v, 0.0) for v in values] == [70.0, 30.5, 15.0, 29.0]
    assert flexible_error(MAX, x, (), 0.0).shape == (0,)


@pytest.mark.parametrize("bad, shown", [
    (math.nan, None), (math.inf, None), (-math.inf, None), (np.float64("nan"), None),
    (10**400, None), (-10**400, None),  # ints beyond the float range
    (10**5000, "<int of 16610 bits>"),  # an int too long for repr
], ids=["nan0", "inf", "-inf", "nan1", "10**400", "-10**400", "10**5000"])
def test_flexible_error_of_a_sequence_rejects_what_a_single_value_rejects(bad, shown):
    x = H({5: 2, 8: 1})
    with pytest.raises(ParameterError) as alone:
        flexible_error(MAX, x, bad, 0.1)
    with pytest.raises(ParameterError) as among:
        flexible_error(MAX, x, [UNDEFINED, 3.0, bad, 7.0], 0.1)
    want = f"released value {shown or repr(bad)} is not finite"
    assert str(among.value) == str(alone.value) == want
    with pytest.raises(ParameterError, match="drop budget"):
        flexible_error(MAX, x, [UNDEFINED, 3.0], 1.0)
    with pytest.raises(DomainError):
        flexible_error(MAX, Histogram({5: 2}, MetricSpace(1)), [3.0, UNDEFINED], 0.1)


# The three routines flexible_error used before the reachable-set cache,
# kept verbatim as references for medium inputs the brute force cannot reach.


def _flex_extreme(x: Histogram, released: float, m: int, largest: bool) -> float:
    """Max (largest) or min: with j drops the reachable value is the
    (j+1)-th element counted from that end, for j up to m (never all n)."""
    pts = np.array([g[0] for g, _ in x.items()], dtype=float)
    cnt = np.array([c for _, c in x.items()], dtype=np.int64)
    elems = np.repeat(pts, cnt)  # items() is point-sorted ascending
    if largest:
        elems = elems[::-1]
    reach = elems[: min(m, elems.size - 1) + 1]
    return float(np.abs(reach - released).min())


def _flex_maxk(x: Histogram, k: int, released: float, m: int) -> float:
    bars = sorted(x.items(), reverse=True)  # largest ground point first
    best = math.inf
    used = 0
    for g, c in bars:
        if c < k:
            continue
        if used <= m:
            best = min(best, abs(g[0] - released))
        used += c - k + 1  # cost of disqualifying this bar before moving left
    if math.isinf(best):  # nothing qualifies even before dropping
        return _full_range(x)
    return best


def _flex_mode(x: Histogram, released: float, m: int) -> float:
    pts = np.array([g[0] for g, _ in x.items()], dtype=float)
    cnt = np.array([c for _, c in x.items()], dtype=np.int64)
    # cost[b] = sum over rivals of the trims needed before bar b wins the
    # argmax; a smaller point wins ties, so rivals left of b must be beaten
    # outright (the +1).
    tie = (pts[None, :] < pts[:, None]).astype(np.int64)
    trims = np.maximum(0, cnt[None, :] - cnt[:, None] + tie)
    np.fill_diagonal(trims, 0)
    costs = trims.sum(axis=1)
    feasible = costs <= m
    return float(np.abs(pts[feasible] - released).min())


def _reference(kind, x, released, m):
    if kind.name in ("max", "min"):
        return _flex_extreme(x, released, m, largest=kind.name == "max")
    if kind.name == "maxk":
        return _flex_maxk(x, kind.k, released, m)
    return _flex_mode(x, released, m)


@settings(deadline=None, max_examples=120)
@given(bars=st.lists(st.tuples(st.integers(1, 3), st.integers(1, 5)),
                     min_size=1, max_size=300),
       kind=st.sampled_from(KINDS),
       drops=st.integers(0, 10**6),
       released=st.one_of(st.floats(0.0, 999.0), st.integers(0, 999).map(float)))
@example(bars=[(1, 3)] * 40, kind=MODE, drops=10, released=25.0)  # all counts equal
@example(bars=[(1, 4), (1, 2), (1, 4)], kind=MODE, drops=1, released=3.0)  # tie left of 3
@example(bars=[(1, 4), (1, 2), (1, 4)], kind=MODE, drops=0, released=3.0)  # m = 0
@example(bars=[(1, 2), (1, 1), (3, 2)], kind=MAX, drops=4, released=0.0)  # m = n - 1
@example(bars=[(1, 2), (1, 1), (3, 2)], kind=maxk(2), drops=4, released=0.0)
@example(bars=[(1 + i % 3, 1 + i * 7 % 5) for i in range(300)], kind=MODE, drops=250,
         released=400.0)  # 300 bars
@example(bars=[(1 + i % 3, 1 + i * 7 % 5) for i in range(300)], kind=maxk(3), drops=500,
         released=400.0)
def test_flexible_error_matches_the_replaced_routines(bars, kind, drops, released):
    # bar i sits gap_i past bar i-1; heavy count ties; m anywhere in [0, n)
    x = Histogram({int(p): c for p, (_, c) in zip(np.cumsum([g for g, _ in bars]), bars)},
                  MetricSpace(1, 1000.0))
    m = drops % x.size
    budget = m / x.size
    assert _drop_allowance(budget, x.size) == m
    assert flexible_error(kind, x, released, budget) == _reference(kind, x, released, m)


def _mode_case(cnt):
    return Histogram((np.arange(cnt.size) * 2, cnt), MetricSpace(1, 2.0 * cnt.size))


@pytest.mark.parametrize("seed, drops", [(0, 0), (1, 40), (2, 2_000), (3, 20_000)])
def test_mode_reachable_matches_the_quadratic_reference_on_wide_spreads(seed, drops):
    # Poisson(3000) heights with a few towers and a run of ties: only the bars
    # whose trims of taller rivals fit m are merge-counted
    rng = np.random.default_rng(seed)
    cnt = rng.poisson(3000, 400)
    cnt[rng.choice(400, 5, replace=False)] = 3400
    cnt[rng.choice(400, 30, replace=False)] = np.sort(cnt)[-40]
    x = _mode_case(cnt)
    excess = np.maximum(cnt[None, :] - cnt[:, None], 0).sum(axis=1)
    assert 0 < np.count_nonzero(excess <= drops) < cnt.size  # the candidates: a strict subset
    reach = _reachable(MODE, x, drops)
    pts = x.coordinates()
    assert set(reach.tolist()) == {float(p) for p in pts if _flex_mode(x, p, drops) == 0.0}
    for released in (-3.5, 1.0, 401.0, 799.0, 1e4):
        assert flexible_error(MODE, x, released, drops / x.size) == _flex_mode(x, released, drops)


@pytest.mark.parametrize("drops", [0, 1, 399, 400, 5_000])
def test_mode_reachable_with_all_counts_equal_counts_every_bar(drops):
    # every bar is a candidate; bar b must beat the b bars to its left by one
    # each, so exactly the bars with b <= drops are reachable
    x = _mode_case(np.full(400, 3000))
    reach = _reachable(MODE, x, drops)
    assert reach.tolist() == [2.0 * b for b in range(min(drops + 1, 400))]
    for released in (0.0, 301.0, 799.0):
        assert flexible_error(MODE, x, released, drops / x.size) == _flex_mode(x, released, drops)


def test_flexible_error_at_1e5_bars_stays_in_bounded_memory():
    n = 10**5
    cnt = np.random.default_rng(7).integers(1, 40, n)  # every bar occupied, heavy ties
    x = Histogram({i: int(c) for i, c in enumerate(cnt)}, MetricSpace(1, float(n)))
    top_k = int(np.flatnonzero(cnt >= 20)[-1])
    cases = [(MAX, n - 1.0), (MIN, 0.0), (maxk(20), float(top_k)),
             (MODE, float(np.argmax(cnt)))]  # each release is the true value
    _reachable.cache_clear()
    tracemalloc.start()
    try:
        for kind, truth in cases:
            assert flexible_error(kind, x, truth, 0.3) == 0.0
        assert flexible_error(MAX, x, 0.0, 0.0) == n - 1.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, peak


def test_flexible_error_reuses_the_reachable_set_of_a_dataset():
    _reachable.cache_clear()
    x = H({1: 3, 4: 5, 9: 2, 20: 5})
    first = flexible_error(MODE, x, 19.0, 0.2)
    hits = _reachable.cache_info().hits
    assert flexible_error(MODE, x, 19.0, 0.2) == first == 1.0
    assert flexible_error(MODE, x, 2.0, 0.2) == 2.0  # another release, same set
    assert _reachable.cache_info().hits == hits + 2
    with pytest.raises(ValueError):  # the cached set is shared, so read-only
        _reachable(MODE, x, 2)[0] = 0.0


# ---------------------------------------------------------------------------
# drop witnesses


def test_check_drop_witness_accepts_sub_histograms():
    x = H({0: 4, 7: 4})
    y = H({0: 3, 7: 3})
    assert check_drop_witness(x, y, 0.25)  # dropped exactly 2/8
    assert not check_drop_witness(x, y, 0.2499)
    assert check_drop_witness(x, x, 0.0)


def test_check_drop_witness_rejects_added_mass():
    x = H({0: 4})
    assert not check_drop_witness(x, H({0: 5}), 0.9)
    assert not check_drop_witness(x, H({1: 1}), 0.9)


@pytest.mark.parametrize("budget, three_fit", [
    (0.3, True),
    (0.2999999999995, False),  # 2.999999999995 budgeted drops allow 2, not 3
    (0.29999999999, False),
])
def test_check_drop_witness_uses_the_scoring_drop_rule(budget, three_fit):
    x = H({0: 5, 7: 5})
    assert check_drop_witness(x, H({0: 3, 7: 4}), budget) is three_fit  # 3 of 10
    assert check_drop_witness(x, H({0: 3, 7: 5}), budget)  # 2 of 10
    assert (_drop_allowance(budget, 10) >= 3) is three_fit


def test_check_drop_witness_budget_above_one_accepts_any_sub_histogram():
    x = H({0: 5, 7: 5})
    assert check_drop_witness(x, H({}), 1.5)
    assert check_drop_witness(x, H({7: 1}), 1.5)
    assert not check_drop_witness(x, H({7: 6}), 1.5)


def test_check_drop_witness_empty_source():
    assert check_drop_witness(H({}), H({}), 0.0)


def test_check_drop_witness_space_mismatch():
    with pytest.raises(DomainError):
        check_drop_witness(H({0: 1}), Histogram({0: 1}, MetricSpace(1, 50.0)), 0.5)
