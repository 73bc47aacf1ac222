"""Accuracy and privacy guarantees as checkable values.

Accuracy certificates carry (alpha, beta, gamma): the release matches the
target function applied to *some* input within drop distortion alpha of the
real one, up to output error beta, except with probability gamma.  Privacy
certificates carry (eps, delta).  For the one shipped mechanism, bucketing
then shifted truncated-Laplace noise, composing the stage bounds gives
closed forms, and this module states them directly: alpha = tau*t,
beta = (w/2)*sqrt(d), gamma = 0, and no analytic bound for mode or maxk
with k >= 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .hist import MAX, MIN, SUPPORT, ParameterError, StatisticKind, maxk
from .mechanisms import MechParams


@dataclass(frozen=True)
class AccuracyCert:
    alpha: float
    beta: float
    gamma: float

    def __post_init__(self) -> None:
        if self.alpha < 0 or self.beta < 0:
            raise ParameterError("alpha and beta must be non-negative")
        if not 0 <= self.gamma <= 1:
            raise ParameterError("gamma must be in [0,1]")

    def line(self) -> str:
        return (f"CERT accuracy α={self.alpha:.12g} β={self.beta:.12g} "
                f"γ={self.gamma:.12g} distortion=drop")


@dataclass(frozen=True)
class DPCert:
    eps: float
    delta: float

    def __post_init__(self) -> None:
        if self.eps < 0:
            raise ParameterError("eps must be non-negative")
        if not 0 <= self.delta <= 1:
            raise ParameterError("delta must be in [0,1]")

    def line(self) -> str:
        return f"CERT dp ε={self.eps:.12g} δ={self.delta:.12g}"


def trlap_delta(eps: float, q: float) -> float:
    """Closed-form delta of the truncated-Laplace release at truncation q."""
    return math.expm1(eps) / (2.0 * math.expm1(eps * q / 2.0))


def trlap_dp_cert(eps: float, q: float) -> DPCert:
    """Privacy certificate of the noise stage at noise width q (tau*|x| for
    the shipped mechanism).

    The closed form holds when q is the same on both neighbouring inputs, as
    on the derived path; a fixed tau, which makes q follow |x|, is not
    covered.  Requires eps*q >= 2 — below that the truncation window is too
    narrow for the closed form to certify anything.
    """
    if eps <= 0 or q <= 0:
        raise ParameterError("eps and q must be positive")
    if eps * q < 2:
        raise ParameterError(
            f"cert unavailable: eps*tau*n = {eps * q:g} < 2")
    delta = trlap_delta(eps, q)
    if delta >= 1:
        raise ParameterError(f"cert vacuous at these parameters (delta = {delta:g})")
    return DPCert(eps=eps, delta=delta)


def solve_q(eps: float, delta: float) -> float:
    """Truncation width whose closed-form delta equals the given delta."""
    if eps <= 0 or not 0 < delta < 1:
        raise ParameterError("need eps > 0 and delta in (0,1)")
    return (2.0 / eps) * math.log1p(math.expm1(eps) / (2.0 * delta))


def buckethist_accuracy_cert(p: MechParams) -> AccuracyCert:
    """(alpha, beta, 0) for the bucket-then-noise histogram release.

    Bucketing moves every element by at most the cell half-diagonal
    (w/2)*sqrt(d); the noise only drops elements, at most tau*|x| per
    bucket over t buckets.
    """
    return AccuracyCert(alpha=p.tau * p.t, beta=(p.w / 2.0) * math.sqrt(p.d),
                        gamma=0.0)


def hbs_accuracy_cert(kind: StatisticKind, p: MechParams) -> AccuracyCert:
    """(alpha, beta, 0) for a statistic released off the noisy histogram.

    Max, min and support move by at most the histogram distance itself, and
    so does maxk(1), which is max (every stored bar has count >= 1); mode
    and maxk with k >= 2 admit no such bound (a hair of mass crossing a tie
    or the threshold can swing them across the whole range).
    """
    if kind not in (MAX, MIN, SUPPORT, maxk(1)):
        raise ParameterError(f"no analytic bound for statistic {kind}")
    return buckethist_accuracy_cert(p)
