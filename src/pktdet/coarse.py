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
(loud half followed by quiet half).  The trigger compares against the
``coarse/thresh_q15`` register word as it is, ``thr_q15 / 2**15``, which
may lie above 1, and requires the metric to hold for ``plateau``
consecutive positions so single-sample spikes cannot fire it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signal import SampleStream, _int_fields


@dataclass(frozen=True)
class CoarseConfig:
    """Coarse-stage parameters; the field defaults are the stage defaults of
    the CLI and the INI files."""

    half_period: int = 16
    metric_threshold: float = 0.5
    plateau_min: int = 8

    def __post_init__(self) -> None:
        _int_fields(self, "half_period", "plateau_min")
        if self.half_period < 1:
            raise ValueError("half_period must be >= 1")
        if not 0.0 <= self.metric_threshold <= 1.0:
            raise ValueError("metric_threshold must be in [0, 1]")
        if self.plateau_min < 1:
            raise ValueError("plateau_min must be >= 1")


@dataclass(frozen=True)
class CoarseOutput:
    first_trigger: int | None


def schmidl_cox_correlations(stream: SampleStream, lag: int) -> np.ndarray:
    """Exact integer (P_re, P_im, R) for every d in [0, len - 2*lag], as the
    rows of a (3, m) int64 array.

    The rows are a transposed view of one C-ordered (m, 3) block: its prefix
    sum runs down axis 0, which numpy does about twice as fast as along the
    rows of a (3, m) block.  int64 is exact for the <= 16-bit formats and
    streams shorter than 2**32 samples."""
    n = len(stream)
    if lag < 1 or n < 2 * lag:
        raise ValueError("stream must hold at least two half-periods")
    i, q = stream.codes.astype(np.int64)
    # conj(y[t]) * y[t+L] and |y[t+L]|^2, after a zero row
    sums = np.empty((n - lag + 1, 3), dtype=np.int64)
    sums[0] = 0
    terms = sums.T
    np.add(i[:-lag] * i[lag:], q[:-lag] * q[lag:], out=terms[0, 1:])
    np.subtract(i[:-lag] * q[lag:], q[:-lag] * i[lag:], out=terms[1, 1:])
    terms[2, 1:] = stream.energy[lag:]
    np.cumsum(sums, axis=0, out=sums)
    return (sums[lag:] - sums[:-lag]).T


def schmidl_cox_metric(stream: SampleStream, lag: int) -> np.ndarray:
    """Timing metric M(d) = |P(d)|^2 / R(d)^2, with M = 0 where R = 0."""
    squares = schmidl_cox_correlations(stream, lag).T.astype(np.float64)
    np.square(squares, out=squares)
    p2 = np.add(squares[:, 0], squares[:, 1])  # |P|^2
    # R = 0 only where the second half is silent, so P = 0 there too: R**2
    # raised to 1 gives M = 0 and leaves every other (integer) R**2 as is
    r2 = np.maximum(squares[:, 2], 1.0)
    return np.divide(p2, r2, out=p2)


def _first_run(above, width: int) -> int | None:
    """Start of the first run of ``width`` True values in ``above``, or None.

    While ``run[k]`` says ``above[k : k + covered]`` is all True, ``run[k] &
    run[k + step]`` with ``step <= covered`` says it of ``covered + step``
    values, so about log2(width) shifted ANDs reach any width."""
    run = np.asarray(above, dtype=bool)
    if len(run) < width:
        return None  # the ANDs would empty ``run``; bounds any 32-bit width
    covered = 1
    while covered < width:
        step = min(covered, width - covered)
        run = run[:-step] & run[step:]
        covered += step
    first = int(run.argmax())
    return first if run[first] else None


def detect_coarse(stream: SampleStream, lag: int, thr_q15: int, plateau: int) -> CoarseOutput:
    """The coarse stage: the first ``plateau``-long run of the stream's
    metric at ``lag`` at or above ``thr_q15 / 2**15``."""
    above = schmidl_cox_metric(stream, lag) >= thr_q15 / (1 << 15)
    return CoarseOutput(first_trigger=_first_run(above, plateau))
