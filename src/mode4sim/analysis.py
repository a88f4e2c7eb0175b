"""Closed-form statistics of the semi-persistent allocation lifetime.

One hold period ("time before evaluation", TBE) is a counter draw, uniform
on [n_min, n_max] beacon periods. An allocation survives a geometric number
of evaluations (keep probability p_keep), so its total lifetime ("time
before change", TBC) is a geometric compound of TBE draws:

    P_TBC(n) = (1 - p_keep) * sum_i p_keep^(i-1) * P_TBE^(*i)(n)

evaluated with zero-padded FFTs (exact linear convolution), truncated when
the residual geometric mass drops below eps. The probability that a change
falls inside an observation window of n* beacon periods, with a uniformly
random window phase inside the hold, is

    P_r(n*) = 1 - sum_{n >= n*} ((n - n*) / n) * P_TBC(n).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class AnalysisError(ValueError):
    pass


@dataclass
class HoldTimeDistribution:
    """Probability vector over hold lengths in beacon periods.

    pmf[n] = P(hold = n periods); index 0 is unused. The vector may miss
    `residual_mass` of probability beyond its last index.
    """

    pmf: np.ndarray
    residual_mass: float = 0.0

    def __post_init__(self):
        self.pmf = np.asarray(self.pmf, dtype=float)
        if (self.pmf < 0).any():
            raise AnalysisError("negative probability mass")
        total = self.pmf.sum() + self.residual_mass
        if not math.isclose(total, 1.0, abs_tol=1e-9):
            raise AnalysisError(f"mass sums to {total}, not 1")

    def mean(self) -> float:
        return float(np.arange(len(self.pmf)) @ self.pmf)


def tbe_distribution(n_min: int, n_max: int) -> HoldTimeDistribution:
    """Distribution of a single counter draw: 1/(n_max-n_min+1) on each value."""
    if not (1 <= n_min <= n_max):
        raise AnalysisError("need 1 <= n_min <= n_max")
    pmf = np.zeros(n_max + 1)
    pmf[n_min:n_max + 1] = 1.0 / (n_max - n_min + 1)
    return HoldTimeDistribution(pmf)


def tbc_distribution(n_min: int, n_max: int, p_keep: float,
                     eps: float = 1e-6) -> HoldTimeDistribution:
    """Geometric compound of counter draws via frequency-domain products."""
    if not (0.0 <= p_keep < 1.0):
        raise AnalysisError("p_keep must lie in [0, 1); p_keep = 1 never changes")
    if not 0.0 < eps < 1.0:
        raise AnalysisError("eps must lie in (0, 1)")
    tbe = tbe_distribution(n_min, n_max)
    if p_keep == 0.0:
        terms = 1
    else:
        terms = max(1, math.ceil(math.log(eps) / math.log(p_keep)))
    support = terms * n_max
    size = 1 << (support + 1).bit_length()  # pad: linear, not circular
    freq = np.fft.rfft(tbe.pmf, n=size)
    acc = np.zeros_like(freq)
    power = np.ones_like(freq)
    for i in range(1, terms + 1):
        power = power * freq
        acc += (1.0 - p_keep) * p_keep ** (i - 1) * power
    pmf = np.fft.irfft(acc, n=size)[: support + 1]
    pmf = np.clip(pmf, 0.0, None)
    # The untruncated series is missing exactly the geometric tail mass.
    return HoldTimeDistribution(pmf, residual_mass=p_keep ** terms)


def tbc_ccdf(dist: HoldTimeDistribution) -> np.ndarray:
    """ccdf[n] = P(hold > n periods), truncation tail counted as mass above."""
    tail = np.concatenate([np.cumsum(dist.pmf[::-1])[::-1][1:], [0.0]])
    return tail + dist.residual_mass


def reallocation_probability(dist: HoldTimeDistribution, n_star: int) -> float:
    """Probability that a change lands inside an n_star-period window.

    The truncated tail is left out of the no-change sum, so the result
    overstates by at most `dist.residual_mass` (reported alongside in the
    CLI); for n_star at or beyond the support the window always sees the
    change and the value is 1.
    """
    if n_star < 1:
        raise AnalysisError("n_star must be >= 1")
    n = np.arange(len(dist.pmf))
    keep_weight = np.zeros(len(dist.pmf))
    tail = n >= n_star
    keep_weight[tail] = (n[tail] - n_star) / np.maximum(n[tail], 1)
    return float(1.0 - keep_weight @ dist.pmf)
