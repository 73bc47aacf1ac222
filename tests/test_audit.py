"""Independent verification routes: LP transport oracle, exact DP audit, flexible error."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from flexhist.audit import (
    AuditInstance,
    _drop_allowance,
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
from flexhist.mechanisms import UNDEFINED, NoiseSpec, trlap_output_pmf
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
    assert np.array_equal(f(3, 10, 1.0), trlap_output_pmf(3, NoiseSpec(q=5.0, eps=1.0)))
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
    assert flexible_error(MAX, H({5: 2}), None, 0.3) == 100.0


def test_flexible_error_maxk_never_qualified():
    assert flexible_error(maxk(5), H({1: 2}), 1.0, 0.0) == 100.0


def test_flexible_error_handles_fractional_ground_points():
    x = Histogram({2.5: 2, 7.5: 1}, MetricSpace(1, 10.0))
    assert flexible_error(MAX, x, 2.5, 0.4) == 0.0
    assert flexible_error(MODE, x, 2.5, 0.0) == 0.0


def test_flexible_error_validation():
    with pytest.raises(DomainError):
        flexible_error(MAX, H({}), 1.0, 0.1)
    with pytest.raises(ParameterError):
        flexible_error(MAX, H({5: 2}), 1.0, 1.0)
    with pytest.raises(ParameterError):
        flexible_error(SUPPORT, H({5: 2}), 1.0, 0.1)
    with pytest.raises(DomainError):
        flexible_error(MAX, Histogram({5: 2}, MetricSpace(1)), UNDEFINED, 0.1)


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


def test_check_drop_witness_empty_source():
    assert check_drop_witness(H({}), H({}), 0.0)


def test_check_drop_witness_space_mismatch():
    with pytest.raises(DomainError):
        check_drop_witness(H({0: 1}), Histogram({0: 1}, MetricSpace(1, 50.0)), 0.5)
