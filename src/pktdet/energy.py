"""Sliding-window energy detection.

A signal-present decision is made per sample position: over the most recent
``window_len`` samples, count how many have per-sample energy ``i^2 + q^2``
strictly above a per-sample threshold; the window is "active" when that
count is strictly above a second, count threshold.  The decision stream
gates the downstream correlators.

The gate reads its register words as they are: energies are computed on raw
integer codes (exact in int64 for the <= 16-bit formats) and compared
against ``energy/sample_thresh_raw`` in raw code-squared units.  Only
:func:`raw_threshold` meets a natural-unit threshold, rounding it down when
the register map is built; for an integer energy, exceeding the rounded-down
threshold is the same as exceeding the exact one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .signal import FixedPointFormat, SampleStream, _int_fields, window_sums


@dataclass(frozen=True)
class EnergyConfig:
    """Energy-gate parameters.

    ``sample_energy_threshold`` is in natural squared-magnitude units (a
    full-scale component is ~1.0); its register holds
    :func:`raw_threshold`.  The field defaults are the stage defaults of the
    CLI, the INI files and ``SweepConfig``.
    """

    window_len: int = 16
    sample_energy_threshold: float = 0.5
    count_threshold: int = 8

    def __post_init__(self) -> None:
        _int_fields(self, "window_len", "count_threshold")
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


def enable_array(stream: SampleStream, window_len: int, thr_raw: int, count: int) -> np.ndarray:
    """Boolean per-sample enable derived from the energy gate's registers.

    ``enable[n]`` is the decision for the window of ``window_len`` samples
    ending at ``n``: more than ``count`` of them have energy above
    ``thr_raw``.  Positions before the first full window are disabled.
    """
    if len(stream) < window_len:
        raise ValueError("stream shorter than the energy window")
    exceed = stream.energy > thr_raw
    enable = window_sums(exceed, window_len) > count
    enable[: window_len - 1] = False  # the windows not yet full
    return enable
