"""Coarse packet detection via delay-and-correlate (Schmidl-Cox style).

A transmitted training block that repeats with period L produces a plateau
in the timing metric

    P(d) = sum_{m=0}^{L-1} conj(y[d+m]) * y[d+m+L]
    R(d) = sum_{m=0}^{L-1} |y[d+m+L]|^2
    M(d) = |P(d)|^2 / R(d)^2          (M = 0 where R = 0)

P and R are accumulated on raw integer codes with incremental updates, so a
naive per-position recomputation agrees bit-exactly.  M is the only floating
point quantity, formed once per position from the exact integers.

M(d) is bounded by the energy ratio of the two window halves; it sits in
[0, 1] for stationary inputs but can exceed 1 on a sharp level transition
(loud half followed by quiet half).  The trigger compares against a
threshold in [0, 1] and requires the metric to hold for ``plateau_min``
consecutive positions so single-sample spikes cannot fire it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signal import SampleStream


@dataclass(frozen=True)
class CoarseConfig:
    half_period: int
    metric_threshold: float
    plateau_min: int = 8

    def __post_init__(self) -> None:
        if self.half_period < 1:
            raise ValueError("half_period must be >= 1")
        if not 0.0 <= self.metric_threshold <= 1.0:
            raise ValueError("metric_threshold must be in [0, 1]")
        if self.plateau_min < 1:
            raise ValueError("plateau_min must be >= 1")


@dataclass(frozen=True)
class CoarseOutput:
    metric: np.ndarray
    first_trigger: int | None


def schmidl_cox_correlations(
    stream: SampleStream, lag: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact integer (P_re, P_im, R) for every d in [0, len - 2*lag].

    Computed with prefix sums over the lag products, i.e. each position is a
    single add/subtract update of its neighbour.  int64 is exact here for
    the <= 16-bit formats and streams shorter than 2**32 samples.
    """
    n = len(stream)
    if lag < 1 or n < 2 * lag:
        raise ValueError("stream must hold at least two half-periods")
    i = stream.i.astype(np.int64)
    q = stream.q.astype(np.int64)
    # conj(y[t]) * y[t+L]
    prod_re = i[:-lag] * i[lag:] + q[:-lag] * q[lag:]
    prod_im = i[:-lag] * q[lag:] - q[:-lag] * i[lag:]
    energy = i * i + q * q

    def windowed(values: np.ndarray, offset: int, count: int) -> np.ndarray:
        csum = np.concatenate(([0], np.cumsum(values)))
        return csum[offset + lag : offset + lag + count] - csum[offset : offset + count]

    count = n - 2 * lag + 1
    p_re = windowed(prod_re, 0, count)
    p_im = windowed(prod_im, 0, count)
    r = windowed(energy, lag, count)
    return p_re, p_im, r


def schmidl_cox_metric(stream: SampleStream, lag: int) -> np.ndarray:
    """Timing metric M(d) = |P(d)|^2 / R(d)^2, with M = 0 where R = 0."""
    p_re, p_im, r = schmidl_cox_correlations(stream, lag)
    p_re_f = p_re.astype(np.float64)
    p_im_f = p_im.astype(np.float64)
    r_f = r.astype(np.float64)
    p2 = p_re_f * p_re_f + p_im_f * p_im_f
    r2 = r_f * r_f
    return np.divide(p2, r2, out=np.zeros_like(p2), where=r2 > 0)


def coarse_trigger(metric, cfg: CoarseConfig) -> int | None:
    """First index where the metric holds >= threshold for ``plateau_min``
    consecutive positions, or None."""
    run = 0
    for d, value in enumerate(metric):
        if value >= cfg.metric_threshold:
            run += 1
            if run >= cfg.plateau_min:
                return d - cfg.plateau_min + 1
        else:
            run = 0
    return None


def detect_coarse(stream: SampleStream, cfg: CoarseConfig) -> CoarseOutput:
    metric = schmidl_cox_metric(stream, cfg.half_period)
    return CoarseOutput(metric=metric, first_trigger=coarse_trigger(metric, cfg))
