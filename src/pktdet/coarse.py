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
threshold in [0, 1], rounded to the Q15 grid of its register, and requires
the metric to hold for ``plateau_min`` consecutive positions so
single-sample spikes cannot fire it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .signal import SampleStream, window_sums


@dataclass(frozen=True)
class CoarseConfig:
    """Coarse-stage parameters; the field defaults are the stage defaults of
    the CLI and the INI files."""

    half_period: int = 16
    metric_threshold: float = 0.5
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
    # conj(y[t]) * y[t+L], and |y[t+L]|^2
    prod_re = i[:-lag] * i[lag:] + q[:-lag] * q[lag:]
    prod_im = i[:-lag] * q[lag:] - q[:-lag] * i[lag:]
    energy = i[lag:] * i[lag:] + q[lag:] * q[lag:]
    return window_sums(prod_re, lag), window_sums(prod_im, lag), window_sums(energy, lag)


def schmidl_cox_metric(stream: SampleStream, lag: int) -> np.ndarray:
    """Timing metric M(d) = |P(d)|^2 / R(d)^2, with M = 0 where R = 0."""
    p_re, p_im, r = schmidl_cox_correlations(stream, lag)
    p_re_f = p_re.astype(np.float64)
    p_im_f = p_im.astype(np.float64)
    r_f = r.astype(np.float64)
    p2 = p_re_f * p_re_f + p_im_f * p_im_f
    r2 = r_f * r_f
    return np.divide(p2, r2, out=np.zeros_like(p2), where=r2 > 0)


def threshold_q15(cfg: CoarseConfig) -> int:
    """The metric threshold on the ``coarse/thresh_q15`` register's grid,
    ``round(metric_threshold * 2**15)``: the configured and the
    register-decoded stage both compare against it."""
    return round(cfg.metric_threshold * (1 << 15))


def coarse_trigger(metric, cfg: CoarseConfig) -> int | None:
    """First index where the metric holds >= threshold for ``plateau_min``
    consecutive positions, or None."""
    above = np.asarray(metric) >= cfg.metric_threshold
    starts = np.flatnonzero(window_sums(above, cfg.plateau_min) == cfg.plateau_min)
    return int(starts[0]) if len(starts) else None


def detect_coarse(stream: SampleStream, cfg: CoarseConfig) -> CoarseOutput:
    """The coarse stage: the first trigger of the stream's metric against
    the Q15 threshold (:func:`threshold_q15`), as the register holds it."""
    metric = schmidl_cox_metric(stream, cfg.half_period)
    on_grid = replace(cfg, metric_threshold=threshold_q15(cfg) / (1 << 15))
    return CoarseOutput(first_trigger=coarse_trigger(metric, on_grid))
