"""Sliding-window energy detection.

A signal-present decision is made per sample position: over the most recent
``window_len`` samples, count how many have per-sample energy ``i^2 + q^2``
strictly above a configurable per-sample threshold; the window is "active"
when that count is strictly above a second configurable count threshold.
The decision stream gates the downstream correlators.

Energies are computed on raw integer codes (exact in int64 for the <= 16-bit
formats) and compared against the threshold in raw code-squared units,
rounded down (:func:`raw_threshold`).  For an integer energy, exceeding the
rounded-down threshold is the same as exceeding the exact one, so
:func:`enable_array` and the register-driven gate of the streaming
``DetectorBank`` agree with a naive per-window recount bit for bit.
"""

from __future__ import annotations

import math
import operator
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
        for name in ("window_len", "count_threshold"):
            try:  # a whole float, say, would fail later in the numpy stages
                object.__setattr__(self, name, operator.index(getattr(self, name)))
            except TypeError:
                raise ValueError(f"{name} must be an integer") from None
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
    enable = window_sums(exceed, w) > cfg.count_threshold
    enable[: w - 1] = False  # the windows not yet full
    return enable
