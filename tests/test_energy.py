import numpy as np
import pytest
from hypothesis import given, strategies as st

from pktdet.energy import EnergyConfig, EnergyDetector, enable_array
from pktdet.signal import (
    FixedPointFormat,
    Q1_15,
    SampleStream,
    embed_preamble,
    pn_preamble,
    quantize,
)

from oracles import exceed_count


def make_stream(values):
    return quantize(values, Q1_15)


code_lists = st.lists(
    st.tuples(st.integers(-32768, 32767), st.integers(-32768, 32767)),
    min_size=4,
    max_size=48,
)


def stream_from_codes(codes, fmt=Q1_15):
    i = np.array([c[0] for c in codes], dtype=np.int32)
    q = np.array([c[1] for c in codes], dtype=np.int32)
    return SampleStream(format=fmt, i=i, q=q)


def streamed_enable(stream, cfg):
    det = EnergyDetector(cfg, stream.format)
    return [det.push(int(i), int(q)) for i, q in zip(stream.i, stream.q)]


def oracle_enable(stream, cfg):
    """Naive per-window recount of the gate decision at every position."""
    w = cfg.window_len
    thr_raw = cfg.sample_energy_threshold * stream.format.scale**2
    return [
        n >= w - 1
        and exceed_count(stream.i, stream.q, n - w + 1, w, thr_raw) > cfg.count_threshold
        for n in range(len(stream))
    ]


class TestWindowEnergy:
    """Per-sample energies in natural units, as the gate compares them."""

    def test_zero_stream(self):
        # a silent sample has energy 0, which never exceeds even a 0 threshold
        stream = make_stream(np.zeros(32, dtype=complex))
        cfg = EnergyConfig(window_len=16, sample_energy_threshold=0.0, count_threshold=0)
        assert not enable_array(stream, cfg).any()
        assert not any(streamed_enable(stream, cfg))

    def test_unit_samples(self):
        # (1.0, 0.0) saturates to code 32767: |y|^2 = (32767/32768)^2 exactly
        stream = make_stream(np.ones(16, dtype=complex).real + 0j)
        energy = (32767 / 32768) ** 2
        for threshold, expected in ((energy, False), (energy - 2.0**-30, True)):
            cfg = EnergyConfig(16, threshold, 0)
            assert enable_array(stream, cfg)[15] == expected
            assert streamed_enable(stream, cfg)[15] == expected


class TestEnergyGate:
    def test_silence_never_active(self):
        stream = make_stream(np.zeros(40, dtype=complex))
        cfg = EnergyConfig(window_len=8, sample_energy_threshold=0.01, count_threshold=2)
        enable = enable_array(stream, cfg)
        assert len(enable) == 40
        assert not enable.any()

    def test_preamble_opens_gate_near_start(self):
        preamble = pn_preamble("p", 64, seed=1)
        signal, start = embed_preamble(preamble, pad_before=100, pad_after=60)
        stream = make_stream(signal)
        w = 16
        cfg = EnergyConfig(window_len=w, sample_energy_threshold=0.25, count_threshold=w - 1)
        first = int(np.flatnonzero(enable_array(stream, cfg))[0])
        assert 100 <= first <= 100 + w

    def test_count_threshold_equal_window_never_fires(self):
        stream = make_stream(0.9 * np.ones(32) + 0.9j * np.ones(32))
        cfg = EnergyConfig(window_len=8, sample_energy_threshold=0.1, count_threshold=8)
        assert not enable_array(stream, cfg).any()

    @given(code_lists, st.integers(1, 8), st.floats(0, 2.5), st.integers(0, 8))
    def test_matches_naive_recount(self, codes, window_len, threshold, count_threshold):
        stream = stream_from_codes(codes)
        window_len = min(window_len, len(stream))
        cfg = EnergyConfig(window_len, threshold, min(count_threshold, window_len))
        expected = oracle_enable(stream, cfg)
        assert enable_array(stream, cfg).tolist() == expected
        assert streamed_enable(stream, cfg) == expected

    @given(code_lists)
    def test_streaming_equals_batch(self, codes):
        stream = stream_from_codes(codes)
        cfg = EnergyConfig(window_len=4, sample_energy_threshold=0.3, count_threshold=2)
        assert streamed_enable(stream, cfg) == enable_array(stream, cfg).tolist()

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
        base = make_stream(values)
        scaled = make_stream(np.asarray(values) * gain)
        for count_threshold in range(8):
            cfg = EnergyConfig(8, sample_energy_threshold=0.05, count_threshold=count_threshold)
            assert not (enable_array(base, cfg) & ~enable_array(scaled, cfg)).any()

    def test_enable_array_marks_window_ends(self):
        stream = make_stream(0.9 * np.ones(12) + 0j)
        cfg = EnergyConfig(8, 0.1, 2)
        enable = enable_array(stream, cfg)
        assert not enable[:7].any()
        assert enable[7:].all()

    def test_short_stream_rejected(self):
        stream = make_stream(np.zeros(4, dtype=complex))
        with pytest.raises(ValueError):
            enable_array(stream, EnergyConfig(8, 0.1, 2))

    def test_wide_format_stays_exact(self):
        # formats wider than 16 bits are refused, so int64 energies never wrap
        with pytest.raises(ValueError, match="total_bits"):
            FixedPointFormat(20, 15, True)
        # the widest accepted codes: uq16.0 at full scale, energy 2 * 65535**2
        fmt = FixedPointFormat(16, 0, False)
        rng = np.random.default_rng(2)
        codes = [(65535, 65535)] * 8 + [tuple(c) for c in rng.integers(0, 65536, size=(32, 2))]
        stream = stream_from_codes(codes, fmt)
        for threshold in (0.0, 2.0**31, 2 * 65535.0**2 - 1, 2 * 65535.0**2):
            cfg = EnergyConfig(8, sample_energy_threshold=threshold, count_threshold=4)
            expected = oracle_enable(stream, cfg)
            assert enable_array(stream, cfg).tolist() == expected
            assert streamed_enable(stream, cfg) == expected


class TestConfigValidation:
    @pytest.mark.parametrize(
        "window,thr,count",
        [(0, 0.1, 0), (4, -0.1, 2), (4, 0.1, 5), (4, 0.1, -1)],
    )
    def test_invalid(self, window, thr, count):
        with pytest.raises(ValueError):
            EnergyConfig(window, thr, count)
