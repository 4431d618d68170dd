"""Coarse packet detection via delay-and-correlate (Schmidl-Cox style).

A transmitted training block that repeats with period L produces a plateau
in the timing metric

    P(d) = sum_{m=0}^{L-1} conj(y[d+m]) * y[d+m+L]
    R(d) = sum_{m=0}^{L-1} |y[d+m+L]|^2
    M(d) = |P(d)|^2 / R(d)^2          (M = 0 where R = 0)

P and R are window sums of exact lag products of the stream's int64 codes,
taken from one prefix sum, so a naive per-position recomputation agrees
bit-exactly.  M is the only floating point quantity, formed once per
position from the exact integers.

M(d) is bounded by the energy ratio of the two window halves; it sits in
[0, 1] for stationary inputs but can exceed 1 on a sharp level transition
(loud half followed by quiet half).  The trigger compares against the
``coarse/thresh_q15`` register word as it is, ``thr_q15 / 2**15``, which
may lie above 1, and requires the metric to hold for ``plateau``
consecutive positions so single-sample spikes cannot fire it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signal import SampleStream, _int_field, _real, prefix_sums


@dataclass(frozen=True)
class CoarseConfig:
    """Coarse-stage parameters; the field defaults are the stage defaults of
    the CLI and the INI files."""

    half_period: int = 16
    metric_threshold: float = 0.5
    plateau_min: int = 8

    def __post_init__(self) -> None:
        _int_field(self, "half_period", 1)
        if not 0.0 <= _real(self.metric_threshold, "metric_threshold") <= 1.0:
            raise ValueError("metric_threshold must be in [0, 1]")
        _int_field(self, "plateau_min", 1)


@dataclass(frozen=True)
class CoarseOutput:
    first_trigger: int | None


def schmidl_cox_correlations(stream: SampleStream, lag: int) -> np.ndarray:
    """Exact integer (P_re, P_im, R) for every d in [0, len - 2*lag], as the
    rows of a (3, m) int64 array; m is 0 for a stream shorter than two
    half-periods.

    The three lag products are the columns of one C-ordered (n - lag, 3)
    ``terms`` block, whose :func:`prefix_sums` run down axis 0, which numpy
    does about twice as fast as along the rows of a (3, m) block; the rows
    returned are a transposed view of the window differences.  int64 is
    exact for the <= 16-bit formats and streams shorter than 2**32 samples."""
    if lag < 1:
        raise ValueError("lag must be >= 1")
    n = len(stream)
    i, q = stream.codes
    # conj(y[t]) * y[t+L] and |y[t+L]|^2, none below L + 1 samples
    terms = np.empty((max(n - lag, 0), 3), dtype=np.int64)
    np.add(i[:-lag] * i[lag:], q[:-lag] * q[lag:], out=terms[:, 0])
    np.subtract(i[:-lag] * q[lag:], q[:-lag] * i[lag:], out=terms[:, 1])
    terms[:, 2] = stream.energy[lag:]
    sums = prefix_sums(terms, 1)
    return (sums[lag:] - sums[:-lag]).T


def schmidl_cox_metric(stream: SampleStream, lag: int) -> np.ndarray:
    """Timing metric M(d) = |P(d)|^2 / R(d)^2 in float64, with M = 0 where
    R = 0."""
    return _metric(schmidl_cox_correlations(stream, lag))


def _metric(correlations: np.ndarray) -> np.ndarray:
    """M from the rows (P_re, P_im, R) of :func:`schmidl_cox_correlations`."""
    squares = correlations.T.astype(np.float64)
    np.square(squares, out=squares)
    p2 = np.add(squares[:, 0], squares[:, 1])  # |P|^2
    # R = 0 only where the second half is silent, so P = 0 there too: R**2
    # raised to 1 gives M = 0 and leaves every other (integer) R**2 as is
    r2 = np.maximum(squares[:, 2], 1.0)
    return np.divide(p2, r2, out=p2)


def _run_starts(above: np.ndarray, width: int) -> np.ndarray:
    """Start of every maximal run of at least ``width`` True values in the
    boolean ``above``, in order."""
    padded = np.zeros(len(above) + 2, dtype=bool)
    padded[1:-1] = above
    # the edges alternate: each run's start, then the index past its end
    # (nonzero skips flatnonzero's ravel)
    edges = (padded[1:] != padded[:-1]).nonzero()[0].reshape(-1, 2)
    starts, ends = edges[:, 0], edges[:, 1]
    return starts[ends - starts >= width]


def detect_coarse(stream: SampleStream, lag: int, thr_q15: int, plateau: int) -> CoarseOutput:
    """The coarse stage: the first ``plateau``-long run of positions whose
    metric at ``lag`` is at or above ``t = thr_q15 / 2**15``, decided
    exactly as ``|P|**2 * 2**15 >= thr_q15 * R**2`` (a position with R = 0
    has M = 0, above only at ``thr_q15 = 0``).

    The float M screens every position.  Its three int64 -> float64
    conversions, three squares, the sum and the quotient each round by at
    most 2**-53 relative, so it is within 8 * 2**-53 (to first order, and
    below 2**-49 in all) of M, relative; t is exact.  So a float M at or
    above ``t * (1 + 2**-48)`` (rounded) is above, one below ``t * (1 -
    2**-48)`` is below, and only the positions in that band are settled in
    Python ints.  At t = 0 the band is empty and every position is above."""
    correlations = schmidl_cox_correlations(stream, lag)
    metric = _metric(correlations)
    t = thr_q15 / (1 << 15)
    lo, hi = t * (1 - 2.0**-48), t * (1 + 2.0**-48)
    above = metric >= hi
    for d in (above != (metric >= lo)).nonzero()[0].tolist():
        p_re, p_im, r = correlations[:, d].tolist()
        above[d] = (p_re * p_re + p_im * p_im) << 15 >= thr_q15 * r * r
    starts = _run_starts(above, plateau)
    return CoarseOutput(first_trigger=int(starts[0]) if len(starts) else None)
