"""Sliding-window energy detection.

A signal-present decision is made per sample position: over the most recent
``window_len`` samples, count how many have per-sample energy ``i^2 + q^2``
strictly above a configurable per-sample threshold; the window is "active"
when that count is strictly above a second configurable count threshold.
The decision stream gates the downstream correlators.

Energies are computed on raw integer codes (exact in int64 for the <= 16-bit
formats) and compared against the threshold rescaled to raw units by an
exact power of two, so the batch and streaming gates agree with a naive
per-window recount bit for bit.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .signal import FixedPointFormat, SampleStream


@dataclass(frozen=True)
class EnergyConfig:
    """Energy-gate parameters.

    ``sample_energy_threshold`` is in natural squared-magnitude units (a
    full-scale component is ~1.0).
    """

    window_len: int
    sample_energy_threshold: float
    count_threshold: int

    def __post_init__(self) -> None:
        if self.window_len < 1:
            raise ValueError("window_len must be >= 1")
        if not 0 <= self.count_threshold <= self.window_len:
            raise ValueError("count_threshold must be in [0, window_len]")
        if self.sample_energy_threshold < 0:
            raise ValueError("sample_energy_threshold must be >= 0")


def _raw_threshold(cfg: EnergyConfig, fmt: FixedPointFormat) -> float:
    # natural units -> raw code-squared units (exact power-of-two scaling)
    return cfg.sample_energy_threshold * float(fmt.scale) ** 2


def enable_array(stream: SampleStream, cfg: EnergyConfig) -> np.ndarray:
    """Boolean per-sample enable derived from the energy gate.

    ``enable[n]`` is the decision for the window ending at ``n``; positions
    before the first full window are disabled.
    """
    w = cfg.window_len
    if len(stream) < w:
        raise ValueError("stream shorter than the energy window")
    i = stream.i.astype(np.int64)
    q = stream.q.astype(np.int64)
    exceed = i * i + q * q > _raw_threshold(cfg, stream.format)
    counts = np.concatenate(([0], np.cumsum(exceed)))
    enable = np.zeros(len(stream), dtype=bool)
    enable[w - 1 :] = counts[w:] - counts[: len(counts) - w] > cfg.count_threshold
    return enable


class EnergyDetector:
    """Streaming single-owner variant of :func:`enable_array`.

    Feed samples one at a time; each push returns the decision for the
    window ending at that sample, False until the window is full.
    """

    def __init__(self, cfg: EnergyConfig, stream_format: FixedPointFormat) -> None:
        self._format = stream_format
        self._exceed: deque[bool] = deque()
        self._count = 0
        self._adopt(cfg)

    def reconfigure(self, cfg: EnergyConfig) -> None:
        """Adopt new thresholds from the next sample on.

        Samples already in the window keep the comparison made with the
        sample threshold in force when they arrived; the next decision uses
        the new count threshold.  The window length cannot change.
        """
        if cfg.window_len != self.cfg.window_len:
            raise ValueError("window_len cannot change mid-stream")
        self._adopt(cfg)

    def _adopt(self, cfg: EnergyConfig) -> None:
        self.cfg = cfg
        self._thr_raw = _raw_threshold(cfg, self._format)

    def push(self, i_code: int, q_code: int) -> bool:
        i, q = int(i_code), int(q_code)
        above = i * i + q * q > self._thr_raw
        self._exceed.append(above)
        self._count += above
        if len(self._exceed) > self.cfg.window_len:
            self._count -= self._exceed.popleft()
        elif len(self._exceed) < self.cfg.window_len:
            return False
        return self._count > self.cfg.count_threshold
