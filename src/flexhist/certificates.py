"""Accuracy and privacy guarantees as checkable values.

Accuracy certificates carry (alpha, beta, gamma): the release matches the
target function applied to *some* input within drop distortion alpha of the
real one, up to output error beta, except with probability gamma.  Privacy
certificates carry (eps, delta).  For the one shipped mechanism, bucketing
then shifted truncated-Laplace noise, composing the stage bounds gives
closed forms, and this module states them directly: alpha = tau*t,
beta = (w/2)*sqrt(d), gamma = 0, and no analytic bound for mode or maxk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .hist import MAX, MIN, SUPPORT, ParameterError, StatisticKind
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


def trlap_dp_cert(eps: float, tau: float, n: int) -> DPCert:
    """Privacy certificate of the noise stage on inputs of size n (q = tau*n).

    Requires eps*tau*n >= 2 — below that the truncation window is too narrow
    for the closed form to certify anything.
    """
    if eps <= 0 or tau <= 0 or n <= 0:
        raise ParameterError("eps, tau, n must be positive")
    q = tau * n
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

    Max, min and support move by at most the histogram distance itself;
    mode and k-threshold maxima admit no such bound (a hair of mass crossing
    a tie can swing them across the whole range).
    """
    if kind not in (MAX, MIN, SUPPORT):
        raise ParameterError(f"no analytic bound for statistic {kind}")
    return buckethist_accuracy_cert(p)
