import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from pktdet.iqfile import read_iq, write_iq
from pktdet.signal import (
    FixedPointFormat,
    Preamble,
    Q1_15,
    SampleStream,
    add_awgn,
    embed_preamble,
    pn_preamble,
    quantize,
    window_sums,
)

from oracles import float_xcorr_argmax, quantize_oracle, slice_sums


def code_values(stream):
    """The exact value of each stored code, ``code * 2**-F``."""
    return (stream.i + 1j * stream.q) * 2.0 ** -stream.format.fractional_bits


# quantizer inputs near the codes of the formats tested: small values, ties
# at half a step of q1.15, q2.10 and q4.12, both saturation ends and the
# signed zeros and infinities
component_values = st.one_of(
    st.floats(-9.0, 9.0),
    st.builds(
        lambda k, frac: (k + 0.5) * 2.0**-frac,
        st.integers(-(1 << 16), 1 << 16),
        st.sampled_from([10, 12, 15]),
    ),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, 1.0, -1.0, 2.0, -2.0, 8.0, -8.0]),
)


class TestFixedPointFormat:
    def test_q1_15_bounds(self):
        assert Q1_15.min_code == -32768
        assert Q1_15.max_code == 32767
        assert Q1_15.scale == 32768

    def test_parse_round_trips(self):
        assert FixedPointFormat.parse("q1.15") == Q1_15
        fmt = FixedPointFormat.parse("q2.14")
        assert (fmt.total_bits, fmt.fractional_bits) == (16, 14)

    @pytest.mark.parametrize("text", ["", "15", "q", "qa.b", "x1.15", "uq2.14"])
    def test_parse_rejects_garbage(self, text):
        with pytest.raises(ValueError):
            FixedPointFormat.parse(text)

    @pytest.mark.parametrize(
        "total,frac", [(1, 0), (33, 10), (8, 8), (8, -1), (17, 10), (20, 15), (32, 16)]
    )
    def test_invalid_formats(self, total, frac):
        with pytest.raises(ValueError):
            FixedPointFormat(total, frac)

    @pytest.mark.parametrize("field", ["total_bits", "fractional_bits"])
    def test_whole_float_rejected(self, field):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            FixedPointFormat(**{"total_bits": 16, "fractional_bits": 15, field: 8.0})
        fmt = FixedPointFormat(np.int64(12), np.uint8(10))
        assert (type(fmt.total_bits), type(fmt.fractional_bits)) == (int, int)


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
        value = code_values(stream)[0]
        assert abs(value.real - 0.1) < 2.0**-15
        assert abs(value.imag - 0.7) < 2.0**-15

    @example(fmt=Q1_15, values=[complex(math.inf, -math.inf), -0.0, complex(1e308, -1e308)])
    @example(fmt=FixedPointFormat(12, 10), values=[2 - 2j, 2 - 2.0005j, -0.0004882 + 0.0004883j])
    @given(
        st.sampled_from([Q1_15, FixedPointFormat(12, 10), FixedPointFormat(16, 12)]),
        st.lists(
            st.builds(
                complex,
                st.one_of(component_values, st.floats(allow_nan=False)),
                st.one_of(component_values, st.floats(allow_nan=False)),
            ),
            min_size=1,
            max_size=32,
        ),
    )
    def test_matches_rational_oracle(self, fmt, values):
        # past both saturation ends, ties at half a step, +-0.0 and +-inf
        stream = quantize(values, fmt)
        expected_pairs, expected_sats = quantize_oracle(values, fmt)
        assert list(zip(stream.i.tolist(), stream.q.tolist())) == expected_pairs
        assert stream.saturation_count == expected_sats
        for codes in (stream.i, stream.q):
            assert codes.dtype == np.int32 and codes.flags.c_contiguous

    def test_non_contiguous_input(self):
        values = np.random.default_rng(5).normal(size=(40, 2)) @ np.array([1, 1j])
        strided = values[::3]
        assert not strided.flags.c_contiguous
        stream = quantize(strided, Q1_15)
        expected_pairs, _ = quantize_oracle(strided, Q1_15)
        assert list(zip(stream.i.tolist(), stream.q.tolist())) == expected_pairs

    @pytest.mark.parametrize("values", [0.5 + 0.5j, [[0.1, 0.2], [0.3, 0.4]], [[0.1]]])
    def test_rejects_input_that_is_not_1d(self, values):
        with pytest.raises(ValueError, match="1-D"):
            quantize(values, Q1_15)

    @pytest.mark.parametrize(
        "values", [[complex(math.nan, 0.0)], [0.1, complex(0.5, math.nan), 3.0], [math.nan]]
    )
    def test_rejects_nan_without_a_warning(self, values):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="NaN"):
                quantize(values, Q1_15)

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
        err = code_values(stream) - v
        half_step = 2.0 ** -(Q1_15.fractional_bits + 1)
        # |real(v)| can reach 0.99 < max representable, so no saturation here
        assert np.max(np.abs(err.real)) <= half_step
        assert np.max(np.abs(err.imag)) <= half_step

        again = quantize(code_values(stream), Q1_15)
        assert np.array_equal(again.i, stream.i)
        assert np.array_equal(again.q, stream.q)
        assert again.saturation_count == 0

    def test_idempotent_at_saturated_extremes(self):
        stream = quantize([-5 - 5j, 5 + 5j], Q1_15)
        again = quantize(code_values(stream), Q1_15)
        assert np.array_equal(again.i, stream.i)
        assert np.array_equal(again.q, stream.q)
        assert again.saturation_count == 0

    def test_stream_is_immutable(self):
        stream = quantize([0.5 + 0.5j], Q1_15)
        with pytest.raises(ValueError):
            stream.i[0] = 3


class TestSampleStreamSigns:
    @given(
        st.lists(st.tuples(st.integers(-32768, 32767), st.integers(-32768, 32767)), max_size=40)
    )
    @example([(0, 0), (-1, 0), (0, -1), (-32768, 32767)])
    def test_matches_oracle_signs(self, codes):
        i = np.array([c[0] for c in codes], dtype=np.int32)
        q = np.array([c[1] for c in codes], dtype=np.int32)
        stream = SampleStream(format=Q1_15, i=i, q=q)
        s_i, s_q = stream.sign_arrays
        assert s_i.dtype == s_q.dtype == np.float64
        assert s_i.tolist() == [1.0 if c >= 0 else -1.0 for c, _ in codes]
        assert s_q.tolist() == [1.0 if c >= 0 else -1.0 for _, c in codes]

    def test_built_once_and_read_only(self):
        stream = quantize([0.5 - 0.5j, 0.0], Q1_15)
        s_i, s_q = stream.sign_arrays
        assert stream.sign_arrays[0] is s_i
        for signs in (s_i, s_q):
            with pytest.raises(ValueError):
                signs[0] = 0.0


class TestSampleStreamBlock:
    """Every stream carries its codes as one (2, n) block, and its energy
    and signs derive from it, however the stream was built."""

    @staticmethod
    def built_three_ways(codes, path):
        i = np.array([c[0] for c in codes], dtype=np.int32)
        q = np.array([c[1] for c in codes], dtype=np.int32)
        direct = SampleStream(format=Q1_15, i=i, q=q)
        quantized = quantize((i + 1j * q) * 2.0**-15, Q1_15)
        write_iq(path, direct)
        return direct, quantized, read_iq(path)

    @given(
        st.lists(
            st.tuples(st.integers(-32768, 32767), st.integers(-32768, 32767)), max_size=40
        )
    )
    @example([(0, 0), (-1, 0), (-32768, -32768), (32767, -32768)])
    def test_every_constructor_gives_the_same_block(self, tmp_path_factory, codes):
        path = tmp_path_factory.mktemp("block") / "capture.iqpd"
        direct, quantized, read = self.built_three_ways(codes, path)
        energy = [a * a + b * b for a, b in codes]
        for stream in (direct, quantized, read):
            assert stream.codes.shape == (2, len(codes))
            assert stream.codes.tolist() == [[a for a, _ in codes], [b for _, b in codes]]
            assert stream.energy.dtype == np.int64
            assert stream.energy.tolist() == energy
            for mine, theirs in zip(stream.sign_arrays, direct.sign_arrays):
                assert mine.tolist() == theirs.tolist()

    def test_block_rows_are_read_only(self, tmp_path):
        for stream in self.built_three_ways([(5, -7), (0, 3)], tmp_path / "capture.iqpd"):
            for array in (stream.i, stream.q, *stream.codes, stream.energy):
                with pytest.raises(ValueError):
                    array[0] = 1
            assert stream.codes is stream.codes  # built once
        # every constructor keeps i and q as the block's rows
        for stream in self.built_three_ways([(1, 2)], tmp_path / "capture.iqpd"):
            assert np.shares_memory(stream.i, stream.codes)
            assert np.shares_memory(stream.q, stream.codes)

    @pytest.mark.parametrize(
        "dtype", [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint64]
    )
    def test_copies_integer_codes_into_its_own_block(self, dtype):
        i = np.array([0, 7, 127], dtype=dtype)
        q = np.array([3, 0, 1], dtype=dtype)
        stream = SampleStream(format=Q1_15, i=i, q=q)
        assert stream.codes.dtype == np.int32 and stream.codes.flags.c_contiguous
        assert stream.codes.tolist() == [[0, 7, 127], [3, 0, 1]]
        assert stream.i.base is stream.codes and stream.q.base is stream.codes
        assert stream.energy.tolist() == [9, 49, 127**2 + 1]
        i[0] = q[0] = 5  # the caller's arrays stay theirs, and writable
        assert stream.codes[:, 0].tolist() == [0, 3]

    @pytest.mark.parametrize(
        "i, q",
        [
            (np.array([0.4]), np.array([0])),
            (np.array([0]), np.array([1.0])),
            (np.array([True, False]), np.array([1, 0])),
            (np.array([1], dtype=object), np.array([1])),
        ],
        ids=["float-i", "float-q", "bool", "object"],
    )
    def test_rejects_codes_that_are_not_integers(self, i, q):
        with pytest.raises(ValueError, match="integer codes"):
            SampleStream(format=Q1_15, i=i, q=q)

    @pytest.mark.parametrize(
        "code", [np.uint64(2**63), np.uint64(32768), np.int64(-32769), np.int64(2**40)]
    )
    def test_rejects_codes_beyond_the_format_in_any_integer_type(self, code):
        ok = np.zeros(1, dtype=code.dtype)
        for i, q in ((np.array([code]), ok), (ok, np.array([code]))):
            with pytest.raises(ValueError, match="out of range"):
                SampleStream(format=Q1_15, i=i, q=q)


class TestEmbed:
    def test_construction(self):
        preamble = pn_preamble(32, seed=1)
        signal, start = embed_preamble(preamble, pad_before=100, pad_after=20)
        assert start == 100
        assert len(signal) == 100 + 32 + 20
        assert np.all(signal[:100] == 0)
        assert np.array_equal(signal[100:132], preamble.samples)

    def test_identity_when_unpadded(self):
        preamble = pn_preamble(16, seed=2)
        signal, start = embed_preamble(preamble, 0, 0)
        assert start == 0
        assert np.array_equal(signal, preamble.samples)

    def test_negative_pad_rejected(self):
        with pytest.raises(ValueError):
            embed_preamble(pn_preamble(8, 0), -1, 0)

    @pytest.mark.parametrize("seed,pad_before", [(3, 0), (4, 17), (5, 100)])
    def test_ground_truth_matches_float_correlation(self, seed, pad_before):
        preamble = pn_preamble(32, seed=seed)
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

    @given(
        st.lists(
            st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False)
            | st.sampled_from([0j, complex(-0.0, -0.0), complex(0.0, -0.0)]),
            min_size=1,
            max_size=64,
        ),
        st.floats(-30.0, 60.0),
        st.integers(0, 2**32),
        st.floats(0.0, 4.0),
    )
    def test_matches_the_complex_expression(self, signal, snr_db, seed, signal_power):
        # the noise added in place through the float pairs, bit for bit
        x = np.array(signal, dtype=np.complex128)
        sigma = math.sqrt(signal_power / (2.0 * 10.0 ** (snr_db / 10.0)))
        n = np.random.default_rng(seed).normal(0.0, sigma, size=(len(x), 2))
        expected = x + n[:, 0] + 1j * n[:, 1]
        got = add_awgn(signal, snr_db, seed, signal_power)
        assert got.dtype == np.complex128 and got.shape == x.shape
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "snr_db,signal_power",
        [
            (math.nan, 1.0),
            (-math.inf, 1.0),
            (1e308, 1.0),  # 10**(snr/10) overflows
            (-1e308, 1.0),  # 10**(snr/10) reaches 0
            (-3200.0, 1.0),  # the noise level overflows
            (10.0, -1.0),
            (10.0, math.nan),
            (10.0, math.inf),
            (math.inf, -1.0),
        ],
    )
    @pytest.mark.parametrize("number", [float, np.float64])
    def test_rejects_a_bad_snr_or_signal_power(self, snr_db, signal_power, number):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="snr_db|signal_power"):
                add_awgn(np.ones(4, dtype=complex), number(snr_db), 0, number(signal_power))

    def test_silent_signal_power_adds_no_noise(self):
        x = np.array([0.5 - 0.25j, 0j])
        assert np.array_equal(add_awgn(x, -20.0, seed=3, signal_power=0.0), x)


class TestPnPreamble:
    def test_unit_power_constant_modulus(self):
        p = pn_preamble(64, seed=11)
        assert p.length == 64
        assert np.allclose(np.abs(p.samples), 1.0)
        assert abs(p.mean_power - 1.0) < 1e-12
        amp = 1 / math.sqrt(2)
        assert np.allclose(np.abs(p.samples.real), amp)

    def test_deterministic(self):
        assert np.array_equal(pn_preamble(32, 5).samples, pn_preamble(32, 5).samples)

    def test_length_validation(self):
        with pytest.raises(ValueError):
            Preamble(np.array([], dtype=complex))


class TestWindowSums:
    @given(st.lists(st.integers(-(1 << 40), 1 << 40), max_size=40), st.data())
    def test_matches_slice_sums(self, values, data):
        # widths 1 to len + 3: the last three clip every window at the start
        width = data.draw(st.integers(1, len(values) + 3))
        got = window_sums(np.array(values, dtype=np.int64), width)
        assert got.dtype == np.int64
        assert got.tolist() == slice_sums(values, width)

    @example(values=[], width=1)
    @example(values=[], width=3)
    @example(values=[True, True], width=9)
    @given(st.lists(st.booleans(), max_size=40), st.integers(1, 45))
    def test_counts_booleans(self, values, width):
        # a width past the length clips every window
        assert window_sums(values, width).tolist() == slice_sums(values, width)
        # the gate and the latch pass boolean arrays
        got = window_sums(np.array(values, dtype=bool), width)
        assert got.dtype == np.int64
        assert got.tolist() == slice_sums(values, width)

    def test_width_must_be_positive(self):
        with pytest.raises(ValueError):
            window_sums([1, 2], 0)
