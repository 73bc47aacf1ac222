"""Certificate values, the closed-form certificates, and the noise delta."""

import math

import pytest

from flexhist.certificates import (
    AccuracyCert,
    DPCert,
    buckethist_accuracy_cert,
    hbs_accuracy_cert,
    solve_q,
    trlap_delta,
    trlap_dp_cert,
)
from flexhist.hist import MAX, MIN, MODE, SUPPORT, ParameterError, maxk
from flexhist.mechanisms import MechParams


# ---------------------------------------------------------------------------
# certificate values


def test_accuracy_cert_validation():
    with pytest.raises(ParameterError):
        AccuracyCert(alpha=-0.1, beta=1.0, gamma=0.0)
    with pytest.raises(ParameterError):
        AccuracyCert(alpha=0.1, beta=-1.0, gamma=0.0)
    with pytest.raises(ParameterError):
        AccuracyCert(alpha=0.1, beta=1.0, gamma=1.5)


def test_accuracy_cert_line():
    c = AccuracyCert(alpha=0.05, beta=5.0, gamma=0.0)
    assert c.line() == "CERT accuracy α=0.05 β=5 γ=0 distortion=drop"


def test_dp_cert_validation_and_line():
    with pytest.raises(ParameterError):
        DPCert(eps=-1.0, delta=0.1)
    with pytest.raises(ParameterError):
        DPCert(eps=1.0, delta=1.5)
    assert DPCert(eps=1.0, delta=2.0**-20).line() == "CERT dp ε=1 δ=9.53674316406e-07"


# ---------------------------------------------------------------------------
# noise-stage privacy


def test_trlap_delta_frozen_value():
    assert trlap_delta(1.0, 6.0) == pytest.approx(0.045015286585190224, abs=0)


def test_trlap_delta_decreasing_in_q():
    vals = [trlap_delta(1.0, q) for q in (4.0, 6.0, 10.0, 20.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_trlap_dp_cert_values():
    c = trlap_dp_cert(eps=1.0, tau=0.5, n=12)  # q = 6
    assert c.eps == 1.0
    assert c.delta == pytest.approx(0.045015286585190224, abs=1e-18)
    # more data, same tau: strictly smaller delta
    assert trlap_dp_cert(1.0, 0.5, 20).delta < c.delta


def test_trlap_dp_cert_narrow_window_refused():
    with pytest.raises(ParameterError, match="cert unavailable"):
        trlap_dp_cert(eps=1.0, tau=0.1, n=10)  # eps*q = 1 < 2
    with pytest.raises(ParameterError):
        trlap_dp_cert(eps=0.0, tau=0.5, n=10)


def test_trlap_dp_cert_vacuous_delta_refused():
    # q = 0.5 passes the eps*q >= 2 gate but the closed form exceeds one
    with pytest.raises(ParameterError, match="vacuous"):
        trlap_dp_cert(eps=4.0, tau=0.5, n=1)


def test_solve_q_frozen_values():
    assert solve_q(1.0, 2.0**-20) == pytest.approx(27.42224479056748, rel=1e-15)
    assert solve_q(0.1, 2.0**-20) == pytest.approx(218.3529221026871, rel=1e-15)


def test_solve_q_inverts_delta():
    for eps in (0.1, 0.5, 1.0, 3.0):
        for delta in (0.2, 0.01, 2.0**-20):
            assert trlap_delta(eps, solve_q(eps, delta)) == pytest.approx(delta, rel=1e-12)


def test_solve_q_validation():
    with pytest.raises(ParameterError):
        solve_q(0.0, 0.1)
    with pytest.raises(ParameterError):
        solve_q(1.0, 0.0)
    with pytest.raises(ParameterError):
        solve_q(1.0, 1.0)


# ---------------------------------------------------------------------------
# closed-form certificates


def test_buckethist_accuracy_cert_recovers_params():
    p = MechParams(alpha=0.05, beta=5.0, eps=1.0, B=100.0)
    c = buckethist_accuracy_cert(p)
    assert c.alpha == p.tau * p.t
    assert c.alpha == pytest.approx(0.05, rel=1e-12)
    assert c.beta == 5.0
    assert c.gamma == 0.0


def test_bucketing_accuracy_cert():
    # the bucketing stage's error is the cell half-diagonal (w/2)*sqrt(d)
    p = MechParams(alpha=0.05, beta=5.0, eps=1.0, B=100.0)
    assert p.bucket_spec.w == 10.0
    assert buckethist_accuracy_cert(p).beta == 5.0
    p2 = MechParams(alpha=0.05, beta=5.0 * math.sqrt(2.0), eps=1.0, B=100.0, d=2)
    assert p2.bucket_spec.w == pytest.approx(10.0, rel=1e-15)
    c2 = buckethist_accuracy_cert(p2)
    assert c2.beta == (p2.w / 2.0) * math.sqrt(2.0)
    assert c2.beta == pytest.approx(5.0 * math.sqrt(2.0), rel=1e-15)
    assert c2.alpha == p2.tau * p2.t
    assert c2.gamma == 0.0


def test_analytic_metric_sens_coverage():
    # max, min and support carry the histogram bound over unchanged, and so
    # does maxk(1), which is max
    p = MechParams(alpha=0.05, beta=5.0, eps=1.0, B=100.0)
    for kind in (MAX, MIN, SUPPORT, maxk(1)):
        c = hbs_accuracy_cert(kind, p)
        assert (c.alpha, c.beta, c.gamma) == (p.tau * p.t, 5.0, 0.0)
        assert c.line() == buckethist_accuracy_cert(p).line()
    for kind in (MODE, maxk(2), maxk(5)):
        with pytest.raises(ParameterError) as exc:
            hbs_accuracy_cert(kind, p)
        assert str(exc.value) == f"no analytic bound for statistic {kind}"


def test_hbs_accuracy_cert():
    p = MechParams(alpha=0.05, beta=5.0, eps=1.0, B=100.0)
    c = hbs_accuracy_cert(MAX, p)
    assert c.alpha == p.tau * p.t
    assert c.alpha == pytest.approx(0.05, rel=1e-12)
    assert c.beta == 5.0
    assert c == buckethist_accuracy_cert(p)
    with pytest.raises(ParameterError):
        hbs_accuracy_cert(MODE, p)
