import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from pktdet.energy import EnergyConfig, enable_array, raw_threshold
from pktdet.signal import (
    FixedPointFormat,
    Preamble,
    Q1_15,
    embed_preamble,
    pn_preamble,
    quantize,
)
from pktdet.standards import DetectorBank, StandardProfile, build_register_map

from oracles import oracle_enable
from streaming import stream_from_codes


code_lists = st.lists(
    st.tuples(st.integers(-32768, 32767), st.integers(-32768, 32767)),
    max_size=48,
)


def streamed_enable(stream, cfg):
    """The streaming bank's gate decision per sample: its 1-point profile,
    with no hold-off, reports exactly where the gate is open."""
    gate = StandardProfile(id="g", preamble=Preamble(np.ones(1)), fine_threshold=1)
    regs = build_register_map([gate], energy=cfg, fmt=stream.format).write("fine/holdoff", 0)
    bank = DetectorBank([gate], regs, stream.format)
    codes = zip(stream.i.tolist(), stream.q.tolist())
    return [bank.push(i, q)["g"] is not None for i, q in codes]


def gate(stream, cfg):
    """The batch gate under the register words built from ``cfg``."""
    thr_raw = raw_threshold(cfg, stream.format)
    return enable_array(stream, cfg.window_len, thr_raw, cfg.count_threshold)


def naive_gate(stream, cfg):
    """The oracle's gate at ``cfg``'s exact threshold in raw units."""
    thr_raw = cfg.sample_energy_threshold * stream.format.scale**2
    return oracle_enable(stream.i, stream.q, cfg.window_len, thr_raw, cfg.count_threshold)


def checked_gate(stream, cfg):
    """The gate as a bool list, once the batch gate and the streaming bank's
    gate have both been checked against the oracle's."""
    expected = naive_gate(stream, cfg)
    assert gate(stream, cfg).tolist() == expected
    assert streamed_enable(stream, cfg) == expected
    return expected


class TestWindowEnergy:
    """Per-sample energies in natural units, as the gate compares them."""

    def test_zero_stream(self):
        # a silent sample has energy 0, which never exceeds even a 0 threshold
        stream = quantize(np.zeros(32, dtype=complex), Q1_15)
        assert not any(checked_gate(stream, EnergyConfig(16, 0.0, 0)))

    def test_unit_samples(self):
        # (1.0, 0.0) saturates to code 32767: |y|^2 = (32767/32768)^2 exactly
        stream = quantize(np.ones(16, dtype=complex).real + 0j, Q1_15)
        energy = (32767 / 32768) ** 2
        for threshold, expected in ((energy, False), (energy - 2.0**-30, True)):
            cfg = EnergyConfig(16, threshold, 0)
            assert gate(stream, cfg)[15] == expected
            assert streamed_enable(stream, cfg)[15] == expected


class TestEnergyGate:
    def test_silence_never_active(self):
        stream = quantize(np.zeros(40, dtype=complex), Q1_15)
        assert checked_gate(stream, EnergyConfig(8, 0.01, 2)) == [False] * 40

    def test_preamble_opens_gate_near_start(self):
        preamble = pn_preamble(64, seed=1)
        signal, start = embed_preamble(preamble, pad_before=100, pad_after=60)
        stream = quantize(signal, Q1_15)
        w = 16
        cfg = EnergyConfig(window_len=w, sample_energy_threshold=0.25, count_threshold=w - 1)
        first = int(np.flatnonzero(gate(stream, cfg))[0])
        assert 100 <= first <= 100 + w

    def test_count_threshold_equal_window_never_fires(self):
        stream = quantize(0.9 * np.ones(32) + 0.9j * np.ones(32), Q1_15)
        assert not any(checked_gate(stream, EnergyConfig(8, 0.1, 8)))

    @example(codes=[(30000, 0)] * 6, window_len=4, threshold=0.0, count_threshold=0)
    @example(codes=[(30000, 0)] * 6, window_len=4, threshold=0.0, count_threshold=3)
    @given(code_lists, st.integers(1, 8), st.floats(0, 2.5), st.integers(0, 8))
    def test_matches_naive_recount(self, codes, window_len, threshold, count_threshold):
        # windows longer than the stream included
        cfg = EnergyConfig(window_len, threshold, min(count_threshold, window_len))
        checked_gate(stream_from_codes(codes), cfg)

    @given(code_lists)
    def test_streaming_equals_batch(self, codes):
        stream = stream_from_codes(codes)
        cfg = EnergyConfig(window_len=4, sample_energy_threshold=0.3, count_threshold=2)
        assert streamed_enable(stream, cfg) == gate(stream, cfg).tolist()

    @given(
        st.lists(
            st.complex_numbers(max_magnitude=0.4, allow_nan=False, allow_infinity=False),
            min_size=8,
            max_size=40,
        ),
        st.floats(1.0, 2.4),
    )
    def test_scaling_up_never_decreases_counts(self, values, gain):
        # the count over every window is non-decreasing iff the gate stays
        # open under gain at every count threshold
        base = quantize(values, Q1_15)
        scaled = quantize(np.asarray(values) * gain, Q1_15)
        for count_threshold in range(8):
            cfg = EnergyConfig(8, sample_energy_threshold=0.05, count_threshold=count_threshold)
            assert not (gate(base, cfg) & ~gate(scaled, cfg)).any()

    def test_enable_array_marks_window_ends(self):
        stream = quantize(0.9 * np.ones(12) + 0j, Q1_15)
        cfg = EnergyConfig(8, 0.1, 2)
        enable = gate(stream, cfg)
        assert not enable[:7].any()
        assert enable[7:].all()
        assert streamed_enable(stream, cfg) == enable.tolist()

    @pytest.mark.parametrize("length", [0, 1, 4, 7])
    def test_short_stream_gives_a_closed_gate(self, length):
        # no 8-sample window fills, however loud the stream
        stream = quantize(0.9 * np.ones(length, dtype=complex), Q1_15)
        assert enable_array(stream, 8, 0, 0).tolist() == [False] * length

    def test_longest_window_register_allocates_nothing_for_it(self):
        stream = quantize(0.9 * np.ones(16, dtype=complex), Q1_15)
        stream.energy  # built once per stream, whatever the window
        tracemalloc.start()
        try:
            enable = enable_array(stream, 0xFFFFFFFF, 0, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert enable.tolist() == [False] * 16
        assert peak < 1 << 20

    def test_wide_format_stays_exact(self):
        # formats wider than 16 bits are refused, so int64 energies never wrap
        with pytest.raises(ValueError, match="total_bits"):
            FixedPointFormat(20, 15)
        # the widest accepted codes: q16.0 at -32768, energy 2 * 32768**2 = 2**31
        fmt = FixedPointFormat(16, 0)
        rng = np.random.default_rng(2)
        codes = [(-32768, -32768)] * 8
        codes += [tuple(c) for c in rng.integers(-32768, 32768, size=(32, 2))]
        stream = stream_from_codes(codes, fmt)
        for threshold in (0.0, 2.0**30, 2.0**31 - 1, 2.0**31):
            cfg = EnergyConfig(8, sample_energy_threshold=threshold, count_threshold=4)
            expected = naive_gate(stream, cfg)
            assert gate(stream, cfg).tolist() == expected
            assert streamed_enable(stream, cfg) == expected


class TestConfigValidation:
    @pytest.mark.parametrize(
        "window,thr,count",
        [(0, 0.1, 0), (4, -0.1, 2), (4, 0.1, 5), (4, 0.1, -1)],
    )
    def test_invalid(self, window, thr, count):
        with pytest.raises(ValueError):
            EnergyConfig(window, thr, count)

    @pytest.mark.parametrize("thr", [math.nan, math.inf, -math.inf])
    def test_non_finite_threshold_rejected(self, thr):
        with pytest.raises(ValueError, match="finite"):
            EnergyConfig(4, thr, 2)


@pytest.mark.parametrize(
    "threshold, fmt, raw",
    [
        (12.6 / 2**30, Q1_15, 12),  # rounds down, not to nearest
        (13 / 2**30, Q1_15, 13),
        (0.5, Q1_15, 2**29),
        (0.3, FixedPointFormat(8, 7), 4915),  # 0.3 * 2**14 = 4915.2
        (1e300, Q1_15, int(1e300) * 2**30),  # exact: no float overflow
    ],
    ids=["off-grid", "on-grid", "half", "q1.7", "huge"],
)
def test_raw_threshold_is_exact_floor(threshold, fmt, raw):
    assert raw_threshold(EnergyConfig(4, threshold, 2), fmt) == raw
