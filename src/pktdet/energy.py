"""Sliding-window energy detection.

A signal-present decision is made per sample position: over the most recent
``window_len`` samples, count how many have per-sample energy ``i^2 + q^2``
strictly above a configurable per-sample threshold; the window is "active"
when that count is strictly above a second configurable count threshold.
The decision stream gates the downstream correlators.

Energies are computed on raw integer codes (exact in int64 for the <= 16-bit
formats) and compared against the threshold in raw code-squared units,
rounded down (:func:`raw_threshold`).  For an integer energy, exceeding the
rounded-down threshold is the same as exceeding the exact one, so the batch
gate, the streaming gate and the register-driven gate agree with a naive
per-window recount bit for bit.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .signal import FixedPointFormat, SampleStream, window_sums


@dataclass(frozen=True)
class EnergyConfig:
    """Energy-gate parameters.

    ``sample_energy_threshold`` is in natural squared-magnitude units (a
    full-scale component is ~1.0); the gate compares raw energies against
    :func:`raw_threshold`.  The field defaults are the stage defaults of the
    CLI, the INI files and ``SweepConfig``.
    """

    window_len: int = 16
    sample_energy_threshold: float = 0.5
    count_threshold: int = 8

    def __post_init__(self) -> None:
        if self.window_len < 1:
            raise ValueError("window_len must be >= 1")
        if not 0 <= self.count_threshold <= self.window_len:
            raise ValueError("count_threshold must be in [0, window_len]")
        if not math.isfinite(self.sample_energy_threshold) or self.sample_energy_threshold < 0:
            raise ValueError("sample_energy_threshold must be finite and >= 0")


def raw_threshold(cfg: EnergyConfig, fmt: FixedPointFormat) -> int:
    """``floor(sample_energy_threshold * scale**2)``: the threshold in raw
    code-squared units, computed exactly in integers (no float overflow)."""
    num, den = cfg.sample_energy_threshold.as_integer_ratio()
    return num * fmt.scale**2 // den


def enable_array(stream: SampleStream, cfg: EnergyConfig) -> np.ndarray:
    """Boolean per-sample enable derived from the energy gate.

    ``enable[n]`` is the decision for the window ending at ``n``; positions
    before the first full window are disabled.
    """
    w = cfg.window_len
    if len(stream) < w:
        raise ValueError("stream shorter than the energy window")
    exceed = stream.energy > raw_threshold(cfg, stream.format)
    enable = np.zeros(len(stream), dtype=bool)
    enable[w - 1 :] = window_sums(exceed, w) > cfg.count_threshold
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
        self._thr_raw = raw_threshold(cfg, self._format)

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
