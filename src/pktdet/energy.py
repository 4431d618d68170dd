"""Sliding-window energy detection.

A signal-present decision is made per sample position: over the most recent
``window_len`` samples, count how many have per-sample energy ``i^2 + q^2``
strictly above a per-sample threshold; the window is "active" when that
count is strictly above a second, count threshold.  The decision stream
gates the downstream correlators.

The gate reads its register words as they are: energies are computed on raw
integer codes (exact in int64 for the <= 16-bit formats) and compared
against ``energy/sample_thresh_raw`` in raw code-squared units, and counted
over each window from two slices of one ``prefix_sums`` array.  Only
:func:`raw_threshold` meets a natural-unit threshold, rounding it down when
the register map is built; for an integer energy, exceeding the rounded-down
threshold is the same as exceeding the exact one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .signal import (
    MAX_ENERGY_WINDOW,
    FixedPointFormat,
    SampleStream,
    _int_field,
    _real,
    prefix_sums,
)


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
        window_len = _int_field(self, "window_len", 1, MAX_ENERGY_WINDOW)
        _int_field(self, "count_threshold", 0, window_len)
        threshold = _real(self.sample_energy_threshold, "sample_energy_threshold")
        if not math.isfinite(threshold) or threshold < 0:
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
    ``thr_raw``.  Positions before the first full window are disabled, so a
    stream shorter than the window gets a closed gate.
    """
    # every window longer than the stream is closed alike; the clamp bounds
    # the prefix sums' zero padding for any 32-bit register value
    width = min(window_len, len(stream) + 1)
    csum = prefix_sums(stream.energy > thr_raw, width)
    enable = csum[width:] - csum[: len(stream)] > count
    enable[: window_len - 1] = False  # the windows not yet full
    return enable
