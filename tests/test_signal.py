import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pktdet.signal import (
    FixedPointFormat,
    Preamble,
    Q1_15,
    add_awgn,
    embed_preamble,
    pn_preamble,
    quantize,
)

from oracles import float_xcorr_argmax, quantize_oracle


class TestFixedPointFormat:
    def test_q1_15_bounds(self):
        assert Q1_15.min_code == -32768
        assert Q1_15.max_code == 32767
        assert Q1_15.scale == 32768
        assert Q1_15.name() == "q1.15"

    def test_parse_round_trips(self):
        assert FixedPointFormat.parse("q1.15") == Q1_15
        fmt = FixedPointFormat.parse("uq2.14")
        assert (fmt.total_bits, fmt.fractional_bits, fmt.signed) == (16, 14, False)

    @pytest.mark.parametrize("text", ["", "15", "q", "qa.b", "x1.15"])
    def test_parse_rejects_garbage(self, text):
        with pytest.raises(ValueError):
            FixedPointFormat.parse(text)

    @pytest.mark.parametrize(
        "total,frac", [(1, 0), (33, 10), (8, 8), (8, -1), (17, 10), (20, 15), (32, 16)]
    )
    def test_invalid_formats(self, total, frac):
        with pytest.raises(ValueError):
            FixedPointFormat(total, frac)


class TestQuantize:
    def test_zero_is_exact(self):
        stream = quantize([0 + 0j], Q1_15)
        assert (stream.i[0], stream.q[0]) == (0, 0)
        assert stream.saturation_count == 0

    def test_out_of_range_saturates(self):
        stream = quantize([2.0 + 0j], Q1_15)
        assert stream.i[0] == Q1_15.max_code
        assert stream.q[0] == 0
        assert stream.saturation_count == 1

    def test_nearest_representable(self):
        # frozen from the rational rounding oracle: 0.1*2^15 -> 3277, 0.7*2^15 -> 22938
        stream = quantize([0.1 + 0.7j], Q1_15)
        assert (int(stream.i[0]), int(stream.q[0])) == (3277, 22938)
        expected, _ = quantize_oracle([0.1 + 0.7j], Q1_15)
        assert (int(stream.i[0]), int(stream.q[0])) == expected[0]
        value = stream.to_complex()[0]
        assert abs(value.real - 0.1) < 2.0**-15
        assert abs(value.imag - 0.7) < 2.0**-15

    @given(
        st.lists(
            st.complex_numbers(
                min_magnitude=0, max_magnitude=4.0, allow_nan=False, allow_infinity=False
            ),
            min_size=1,
            max_size=32,
        )
    )
    def test_matches_rational_oracle(self, values):
        stream = quantize(values, Q1_15)
        expected_pairs, expected_sats = quantize_oracle(values, Q1_15)
        assert list(zip(stream.i.tolist(), stream.q.tolist())) == expected_pairs
        assert stream.saturation_count == expected_sats

    @given(
        st.lists(
            st.complex_numbers(
                min_magnitude=0, max_magnitude=0.99, allow_nan=False, allow_infinity=False
            ),
            min_size=1,
            max_size=32,
        )
    )
    def test_error_bound_and_idempotence(self, values):
        stream = quantize(values, Q1_15)
        v = np.asarray(values)
        err = stream.to_complex() - v
        half_step = 2.0 ** -(Q1_15.fractional_bits + 1)
        # |real(v)| can reach 0.99 < max representable, so no saturation here
        assert np.max(np.abs(err.real)) <= half_step
        assert np.max(np.abs(err.imag)) <= half_step

        again = quantize(stream.to_complex(), Q1_15)
        assert np.array_equal(again.i, stream.i)
        assert np.array_equal(again.q, stream.q)
        assert again.saturation_count == 0

    def test_idempotent_at_saturated_extremes(self):
        stream = quantize([-5 - 5j, 5 + 5j], Q1_15)
        again = quantize(stream.to_complex(), Q1_15)
        assert np.array_equal(again.i, stream.i)
        assert np.array_equal(again.q, stream.q)
        assert again.saturation_count == 0

    def test_stream_is_immutable(self):
        stream = quantize([0.5 + 0.5j], Q1_15)
        with pytest.raises(ValueError):
            stream.i[0] = 3


class TestEmbed:
    def test_construction(self):
        preamble = pn_preamble("p", 32, seed=1)
        signal, start = embed_preamble(preamble, pad_before=100, pad_after=20)
        assert start == 100
        assert len(signal) == 100 + 32 + 20
        assert np.all(signal[:100] == 0)
        assert np.array_equal(signal[100:132], preamble.samples)

    def test_identity_when_unpadded(self):
        preamble = pn_preamble("p", 16, seed=2)
        signal, start = embed_preamble(preamble, 0, 0)
        assert start == 0
        assert np.array_equal(signal, preamble.samples)

    def test_negative_pad_rejected(self):
        with pytest.raises(ValueError):
            embed_preamble(pn_preamble("p", 8, 0), -1, 0)

    @pytest.mark.parametrize("seed,pad_before", [(3, 0), (4, 17), (5, 100)])
    def test_ground_truth_matches_float_correlation(self, seed, pad_before):
        preamble = pn_preamble("p", 32, seed=seed)
        signal, start = embed_preamble(preamble, pad_before, pad_after=40)
        assert float_xcorr_argmax(signal, preamble.samples) == start


class TestAwgn:
    def test_noise_disabled(self):
        x = np.array([1 + 1j, 0.5 - 0.25j])
        assert np.array_equal(add_awgn(x, math.inf, seed=1), x)

    def test_deterministic_per_seed(self):
        x = np.ones(64, dtype=complex)
        a = add_awgn(x, 10.0, seed=42)
        b = add_awgn(x, 10.0, seed=42)
        c = add_awgn(x, 10.0, seed=43)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_noise_power_tracks_snr(self):
        # unit-power signal at 10 dB: total noise power 0.1, within 3% over 1e5 samples
        x = np.zeros(100_000, dtype=complex)
        noise = add_awgn(x, 10.0, seed=7, signal_power=1.0)
        measured = np.mean(np.abs(noise) ** 2)
        assert abs(measured - 0.1) / 0.1 < 0.03

    def test_empty_signal_rejected(self):
        with pytest.raises(ValueError):
            add_awgn([], 10.0, seed=0)


class TestPnPreamble:
    def test_unit_power_constant_modulus(self):
        p = pn_preamble("x", 64, seed=11)
        assert p.length == 64
        assert np.allclose(np.abs(p.samples), 1.0)
        assert abs(p.mean_power() - 1.0) < 1e-12
        amp = 1 / math.sqrt(2)
        assert np.allclose(np.abs(p.samples.real), amp)

    def test_deterministic(self):
        assert np.array_equal(pn_preamble("a", 32, 5).samples, pn_preamble("b", 32, 5).samples)

    def test_length_validation(self):
        with pytest.raises(ValueError):
            Preamble(id="empty", samples=np.array([], dtype=complex))
