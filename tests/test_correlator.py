import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from pktdet.correlator import (
    CoefficientBank,
    SignCorrelator,
    dump_bank,
    latch_enable,
    load_coefficients,
    parse_bank,
)
from pktdet.signal import (
    MAX_PREAMBLE_LEN,
    Preamble,
    Q1_15,
    SampleStream,
    add_awgn,
    embed_preamble,
    pn_preamble,
    quantize,
)
from pktdet.standards import _extract_candidates

from oracles import float_xcorr_argmax, sign_bits, sign_partials, split_words
from streaming import (
    as_outputs,
    bank_from_signs,
    blank_map,
    code_signs,
    push_run,
    same_outputs,
    sign_pairs,
    stream_from_codes,
)

sign = st.sampled_from((-1, 1))
sign_pair_lists = st.lists(st.tuples(sign, sign), min_size=1, max_size=128)
# reference components, signed zeros included: both load as sign +1
component = st.sampled_from((0.0, -0.0)) | st.floats(-2.0, 2.0)


@st.composite
def block_masks(draw):
    """A bank length n and an enable mask made of blocks, shaped to put the
    ends of the correlated span at the stream's edges or far inside it."""
    n = draw(st.integers(1, 64))
    enable = np.zeros(draw(st.integers(3 * n + 8, 3 * n + 64)), dtype=bool)
    shape = draw(st.sampled_from(("off", "head", "last", "apart", "start")))
    if shape == "head":  # within the first n - 1 positions: no full window
        a = draw(st.integers(0, n - 1))
        enable[a : draw(st.integers(a, n - 1))] = True
    elif shape == "last":
        enable[-1] = True
    elif shape == "apart":  # two blocks more than a window apart
        a = draw(st.integers(0, len(enable) // 3))
        b = draw(st.integers(a + 1, a + n))
        c = draw(st.integers(b + n, len(enable) - 1))
        enable[a:b] = True
        enable[c : draw(st.integers(c + 1, len(enable)))] = True
    elif shape == "start":
        enable[: draw(st.integers(1, len(enable)))] = True
    return n, enable


@st.composite
def screened_masks(draw):
    """A :func:`block_masks` draw and a threshold word for its bank: 0 (the
    default, which keeps every position) to 2n + 2, so past the ideal
    maximum 2n too, or the largest word."""
    n, enable = draw(block_masks())
    return n, enable, draw(st.integers(0, 2 * n + 2) | st.just(2**32 - 1))


def correlate_codes(codes, bank):
    """Push raw (i, q) codes through a fresh bank holding ``bank``; the
    output at the last code."""
    (pairs,) = push_run([bank], stream_from_codes(codes))
    t, out = pairs[-1]
    assert t == len(codes) - 1
    return out


def batch_re(codes, bank):
    """``SignCorrelator.process``'s re at the last of the (i, q) ``codes``,
    which fill ``bank``'s window exactly."""
    index, re = SignCorrelator(bank).process(stream_from_codes(codes))
    assert index.tolist() == [len(codes) - 1]
    return int(re[0])


def checked_sign_output(i, q):
    """The output for one code against the all-positive reference, once
    checked: p_ii and p_qq are the codes' signs, zero counting as +1, and
    re is their sum."""
    out = correlate_codes([(i, q)], bank_from_signs([(1, 1)]))
    si, sq = (1 if i >= 0 else -1), (1 if q >= 0 else -1)
    assert (out.p_ii, out.p_qq, out.re) == (si, sq, si + sq)
    return out


def checked_latch(raw, holdoff):
    """``latch_enable`` as a list, once checked to be set wherever ``raw``
    was within the last ``holdoff`` samples."""
    latched = latch_enable(raw, holdoff).tolist()
    assert latched == [any(raw[max(0, n - holdoff) : n + 1]) for n in range(len(raw))]
    return latched


class TestCategorize:
    def test_zero_maps_positive(self):
        assert checked_sign_output(0, 0).re == 2

    def test_mixed_signs(self):
        stream = quantize([-0.3 + 0.2j], Q1_15)
        bank = bank_from_signs([(-1, 1)])
        out = correlate_codes([(int(stream.i[0]), int(stream.q[0]))], bank)
        assert (out.p_ii, out.p_qq, out.p_qi, out.p_iq) == (1, 1, -1, -1)

    @given(st.integers(-32768, 32767), st.integers(-32768, 32767))
    def test_matches_componentwise_sign(self, i, q):
        checked_sign_output(i, q)


class TestCoefficientBank:
    def test_sixteen_point_fills_half_a_word(self):
        bank = load_coefficients(pn_preamble(16, seed=1))
        assert len(bank.i_words) == 1
        assert bank.i_words[0] <= 0xFFFF

    def test_thirty_two_point_fills_one_word(self):
        bank = load_coefficients(pn_preamble(32, seed=1))
        assert len(bank.i_words) == 1

    def test_sixty_four_point_uses_two_words(self):
        preamble = pn_preamble(64, seed=1)
        bank = load_coefficients(preamble)
        assert len(bank.i_words) == 2
        # unpack reproduces the componentwise signs
        expected = [
            (1 if s.real >= 0 else -1, 1 if s.imag >= 0 else -1) for s in preamble.samples
        ]
        assert sign_pairs(bank) == expected

    def test_zero_component_loads_as_one(self):
        bank = load_coefficients(Preamble(np.array([0 + 0j, -1 - 1j])))
        assert sign_pairs(bank) == [(1, 1), (-1, -1)]

    def test_word_count_validation(self):
        with pytest.raises(ValueError):
            CoefficientBank(length=33, i_words=(0,), q_words=(0,))
        with pytest.raises(ValueError):
            CoefficientBank(length=8, i_words=(0x100,), q_words=(0,))
        with pytest.raises(ValueError, match="bank length must be >= 1"):
            CoefficientBank(length=0, i_words=(), q_words=())
        with pytest.raises(ValueError, match=r"coefficient word must be in \[0, 4294967295\]"):
            CoefficientBank(length=40, i_words=(-1, 0), q_words=(0, 0))

    @given(sign_pair_lists)
    def test_dump_parse_round_trip(self, pairs):
        bank = bank_from_signs(pairs)
        assert parse_bank(dump_bank(bank)) == bank
        # comment lines may be indented, as the other lines may
        assert parse_bank("  # note\n" + dump_bank(bank) + "\t# end\n") == bank

    @given(sign_pair_lists)
    def test_sign_arrays_unpack_the_words(self, pairs):
        si, sq = bank_from_signs(pairs).sign_arrays
        assert list(zip(si.tolist(), sq.tolist())) == pairs

    @example(parts=[(0.0, -0.0), (-0.0, 0.0), (-1.0, 1.0)])
    @given(st.lists(st.tuples(component, component), min_size=1, max_size=200))
    def test_codec_matches_bit_loop(self, parts):
        samples = np.array([complex(a, b) for a, b in parts])
        bank = load_coefficients(Preamble(samples))
        re_bits, im_bits = sign_bits(samples)
        n = len(parts)
        assert bank.i_words == split_words(re_bits, n)
        assert bank.q_words == split_words(im_bits, n)
        assert bank._packed == (re_bits, im_bits)
        si, sq = bank.sign_arrays
        assert si.tolist() == [1 if re_bits >> k & 1 else -1 for k in range(n)]
        assert sq.tolist() == [1 if im_bits >> k & 1 else -1 for k in range(n)]
        words = split_words(re_bits, n) + split_words(im_bits, n)
        text = dump_bank(bank)
        assert text == f"n={n}\n" + "".join(f"{w:08x}\n" for w in words)
        assert parse_bank(text) == bank

    def test_parse_rejects_wrong_word_count(self):
        with pytest.raises(ValueError):
            parse_bank("n=64\n00000000\n00000000\n00000000\n")

    @pytest.mark.parametrize("text", ["", "# only a comment\n", "00000000\nn=1\n"])
    def test_parse_needs_the_length_line_first(self, text):
        with pytest.raises(ValueError, match="must start with 'n=<length>'"):
            parse_bank(text)


class TestCorrelateAt:
    def test_self_correlation_hits_ideal_maximum(self):
        # at the longest bank each partial, n, fits 16 bits; re = 2n may not
        for n in (32, 64, MAX_PREAMBLE_LEN):
            bank = load_coefficients(pn_preamble(n, seed=9))
            out = correlate_codes(sign_pairs(bank), bank)
            assert (out.re, out.p_ii, out.p_qq) == (2 * n, n, n)
            assert out.p_qi - out.p_iq == 0
            assert batch_re(sign_pairs(bank), bank) == 2 * n

    def test_negated_window_hits_ideal_minimum(self):
        for n in (32, MAX_PREAMBLE_LEN):
            bank = load_coefficients(pn_preamble(n, seed=9))
            negated = [(-si, -sq) for si, sq in sign_pairs(bank)]
            assert correlate_codes(negated, bank).re == batch_re(negated, bank) == -2 * n

    def test_underfilled_window_not_ready(self):
        bank = load_coefficients(pn_preamble(8, seed=1))
        ones = np.ones(9, dtype=np.int32)
        (pairs,) = push_run([bank], SampleStream(format=Q1_15, i=ones, q=ones))
        assert [t for t, _ in pairs] == [7, 8]

    @given(sign_pair_lists, st.randoms(use_true_random=False))
    def test_matches_naive_dot_product(self, ref_pairs, rnd):
        n = len(ref_pairs)
        window_pairs = [(rnd.choice((-1, 1)), rnd.choice((-1, 1))) for _ in range(n)]
        bank = bank_from_signs(ref_pairs)
        out = correlate_codes(window_pairs, bank)
        assert (out.p_ii, out.p_qq, out.p_qi, out.p_iq) == sign_partials(
            window_pairs, ref_pairs
        )

    @given(sign_pair_lists)
    def test_re_parity_matches_length(self, pairs):
        # each partial has the parity of n, so re = p_ii + p_qq is even iff n is even
        bank = bank_from_signs(pairs)
        window = [
            (si if k % 2 else -si, sq if k % 3 else -sq) for k, (si, sq) in enumerate(pairs)
        ]
        out = correlate_codes(window, bank)
        assert abs(out.re) <= 2 * len(pairs)
        if len(pairs) % 2 == 0:
            assert out.re % 2 == 0

    def test_window_keeps_most_recent_samples(self):
        bank = load_coefficients(pn_preamble(4, seed=3))
        decoys = [(-1, -1)] * 3
        assert correlate_codes(decoys + sign_pairs(bank), bank).re == 8  # decoys evicted

    def test_stacking_two_halves(self):
        preamble = pn_preamble(64, seed=21)
        first = Preamble(preamble.samples[:32])
        second = Preamble(preamble.samples[32:])
        bank64 = load_coefficients(preamble)
        bank_lo = load_coefficients(first)
        bank_hi = load_coefficients(second)
        # the 64-point bank is literally the two 32-point word pairs side by side
        assert bank64.i_words == bank_lo.i_words + bank_hi.i_words
        assert bank64.q_words == bank_lo.q_words + bank_hi.q_words

        rng = np.random.default_rng(5)
        window_pairs = [tuple(rng.choice((-1, 1), size=2)) for _ in range(64)]
        full = correlate_codes(window_pairs, bank64)
        lo = correlate_codes(window_pairs[:32], bank_lo)
        hi = correlate_codes(window_pairs[32:], bank_hi)
        assert full.re == lo.re + hi.re
        assert full.p_qi - full.p_iq == (lo.p_qi - lo.p_iq) + (hi.p_qi - hi.p_iq)


class TestScalingInvariance:
    @given(st.floats(0.05, 3.0))
    def test_positive_gain_changes_nothing(self, gain):
        preamble = pn_preamble(32, seed=13)
        signal, _ = embed_preamble(preamble, 8, 8)
        bank = load_coefficients(preamble)
        base = SignCorrelator(bank).process(quantize(np.asarray(signal) * 0.2, Q1_15))
        scaled = SignCorrelator(bank).process(
            quantize(np.asarray(signal) * 0.2 * gain, Q1_15)
        )
        assert same_outputs(base, scaled)


class TestCorrelateStream:
    def test_disabled_everywhere_does_no_work(self):
        preamble = pn_preamble(32, seed=2)
        stream = quantize(embed_preamble(preamble, 10, 10)[0], Q1_15)
        corr = SignCorrelator(load_coefficients(preamble))
        index, re = corr.process(stream, enable=np.zeros(len(stream), dtype=bool))
        assert index.shape == re.shape == (0,)
        assert corr.work_count == 0

    def test_noiseless_peak_at_ground_truth(self):
        preamble = pn_preamble(64, seed=4)
        signal, start = embed_preamble(preamble, 37, 50)
        stream = quantize(signal, Q1_15)
        index, re = SignCorrelator(load_coefficients(preamble)).process(stream)
        peak = int(np.argmax(re))
        assert index[peak] == start + preamble.length - 1
        assert re[peak] == 128
        # the full-precision correlation oracle agrees on the alignment
        assert float_xcorr_argmax(signal, preamble.samples) == start

    def test_gated_run_preserves_peak(self):
        preamble = pn_preamble(32, seed=6)
        signal, start = embed_preamble(preamble, 40, 40)
        stream = quantize(signal, Q1_15)
        bank = load_coefficients(preamble)

        def peak(outputs):
            index, re = outputs
            return index[np.argmax(re)], re.max()

        enable = np.zeros(len(stream), dtype=bool)
        enable[start : start + 2 * preamble.length] = True
        gated = SignCorrelator(bank).process(stream, enable)
        assert peak(gated) == peak(SignCorrelator(bank).process(stream))

    def test_work_counter_counts_enabled_ready_positions(self):
        preamble = pn_preamble(16, seed=8)
        stream = quantize(embed_preamble(preamble, 30, 30)[0], Q1_15)
        enable = np.zeros(len(stream), dtype=bool)
        enable[10:50] = True
        corr = SignCorrelator(load_coefficients(preamble))
        index, re = corr.process(stream, enable)
        ready_enabled = sum(1 for n in range(len(stream)) if enable[n] and n >= 15)
        assert corr.work_count == ready_enabled
        assert len(index) == len(re) == ready_enabled

    def test_process_equals_repeated_push(self):
        rng = np.random.default_rng(11)
        preamble = pn_preamble(8, seed=1)
        bank = load_coefficients(preamble)
        stream = quantize(rng.normal(size=40) * 0.4 + 1j * rng.normal(size=40) * 0.4, Q1_15)
        enable = rng.integers(0, 2, size=40).astype(bool)

        batch = SignCorrelator(bank).process(stream, enable)
        assert same_outputs(as_outputs(push_run([bank], stream, enable)[0]), batch)

    @example(n=64, length=0, seed=0, masked=True, publish=False)
    @example(n=64, length=63, seed=1, masked=False, publish=True)
    @given(
        st.integers(1, 64),
        st.integers(0, 192),
        st.integers(0, 2**32 - 1),
        st.booleans(),
        st.booleans(),
    )
    def test_process_equals_fresh_push_run(self, n, length, seed, masked, publish):
        # stream lengths from empty to three banks, codes on both sides of 0;
        # a second bank published before the first push is the one in force
        length = length % (3 * n + 1)
        rng = np.random.default_rng(seed)
        codes = rng.integers(-3, 3, size=(2, length)).astype(np.int32)
        stream = SampleStream(format=Q1_15, i=codes[0], q=codes[1])
        enable = rng.integers(0, 2, size=length).astype(bool) if masked else None
        first = bank_from_signs(rng.choice((-1, 1), size=(n, 2)))
        second = bank_from_signs(rng.choice((-1, 1), size=(n, 2)))

        corr = SignCorrelator(second if publish else first)
        batch = corr.process(stream, enable)
        (pushed,) = push_run([first], stream, enable, {0: [second]} if publish else None)
        assert same_outputs(batch, as_outputs(pushed))
        assert corr.work_count == len(pushed) == len(batch[0])

    @example(shaped=(64, np.arange(200) == 199), seed=0)
    @example(shaped=(16, ((np.arange(120) - 20) % 60) < 5), seed=1)
    @given(block_masks(), st.integers(0, 2**32 - 1))
    def test_process_span_edges(self, shaped, seed):
        # process correlates only the span from the first to the last
        # enabled full window; every edge of that span must match push
        n, enable = shaped
        rng = np.random.default_rng(seed)
        codes = rng.integers(-3, 3, size=(2, len(enable))).astype(np.int32)
        stream = SampleStream(format=Q1_15, i=codes[0], q=codes[1])
        bank = bank_from_signs(rng.choice((-1, 1), size=(n, 2)))
        corr = SignCorrelator(bank)
        batch = corr.process(stream, enable)
        (pushed,) = push_run([bank], stream, enable)
        assert same_outputs(batch, as_outputs(pushed))
        assert corr.work_count == len(pushed) == len(batch[0])

    # seed 3: position 30 has p_qq = n and p_ii = t - n, so its re = t
    @example(screened=(6, (np.arange(40) % 13) < 9, 10), seed=3)
    @given(screened_masks(), st.integers(0, 2**32 - 1))
    def test_threshold_screen_keeps_where_re_can_reach_it(self, screened, seed):
        # p_qq <= n, so re = p_ii + p_qq can reach t only where p_ii >= t - n;
        # the screen returns exactly those positions of the push path
        n, enable, threshold = screened
        rng = np.random.default_rng(seed)
        codes = rng.integers(-3, 3, size=(2, len(enable))).astype(np.int32)
        stream = SampleStream(format=Q1_15, i=codes[0], q=codes[1])
        bank = bank_from_signs(rng.choice((-1, 1), size=(n, 2)))
        plain, screen = SignCorrelator(bank), SignCorrelator(bank, threshold)
        everywhere = plain.process(stream, enable)
        screened_out = screen.process(stream, enable)
        (pushed,) = push_run([bank], stream, enable)
        reach = [(t, out) for t, out in pushed if out.p_ii >= threshold - n]
        assert same_outputs(screened_out, as_outputs(reach))
        assert same_outputs(everywhere, as_outputs(pushed))
        assert screen.work_count == plain.work_count == len(pushed)
        ((profile,), _) = blank_map((n,))
        screened_peaks, peaks = (
            _extract_candidates(*out, threshold, profile, 0) for out in (screened_out, everywhere)
        )
        assert screened_peaks == peaks
        if threshold > 2 * n:  # a parked profile
            assert len(screened_out[0]) == 0

    @example(n=32, seed=0, publish_at=0)
    @example(n=64, seed=1, publish_at=192)
    @given(st.integers(1, 70), st.integers(0, 2**32 - 1), st.integers(0, 210))
    def test_push_partials_over_a_long_gated_run(self, n, seed, publish_at):
        # 3n samples through one bank, a second bank of the same length
        # published at sample `publish_at`; n crosses the 32- and 64-bit
        # word edges, and codes 0 and -1 sit on either side of the sign cut
        rng = np.random.default_rng(seed)
        length = 3 * n
        publish_at %= length + 1
        codes = rng.integers(-2, 2, size=(2, length))
        spots = rng.choice(length, size=2, replace=False)
        codes[:, spots[0]] = (0, -1)
        codes[:, spots[1]] = (-1, 0)
        enable = rng.integers(0, 2, size=length).astype(bool)
        banks = [bank_from_signs(rng.choice((-1, 1), size=(n, 2))) for _ in range(2)]
        stream = SampleStream(format=Q1_15, i=codes[0], q=codes[1])
        signs = code_signs(stream)

        (pushed,) = push_run(banks[:1], stream, enable, {publish_at: banks[1:]})
        assert [t for t, _ in pushed] == [t for t in range(n - 1, length) if enable[t]]
        for t, out in pushed:
            ref = sign_pairs(banks[t >= publish_at])
            assert (out.p_ii, out.p_qq, out.p_qi, out.p_iq) == sign_partials(
                signs[t - n + 1 : t + 1], ref
            )

    @pytest.mark.parametrize(
        "shape", [(5,), (32, 2), (32, 1), (1, 32), ()], ids=["5", "32x2", "32x1", "1x32", "0-d"]
    )
    def test_enable_of_another_shape_rejected(self, shape):
        # the len() of a (32, 2) or (32, 1) enable is the stream length, but
        # it holds more than one entry per position
        stream = stream_from_codes([(1, -1)] * 32)
        corr = SignCorrelator(bank_from_signs([(1, 1)] * 8))
        with pytest.raises(ValueError, match="one entry per stream sample"):
            corr.process(stream, enable=np.ones(shape, dtype=bool))
        assert corr.work_count == 0


class TestSignFlipModel:
    """The premise of ``oracles.sign_detection_probability``: at alignment
    ``re`` loses exactly 2 per component whose received sign differs from
    the reference sign."""

    @pytest.mark.parametrize("snr_db", (-6.0, -2.0, 0.0, 2.0, 6.0))
    @pytest.mark.parametrize("n", (32, 64))
    def test_aligned_re_counts_sign_flips(self, n, snr_db):
        preamble = pn_preamble(n, seed=(3, n))
        bank = load_coefficients(preamble)
        ref_i = preamble.samples.real >= 0
        ref_q = preamble.samples.imag >= 0
        signal, start = embed_preamble(preamble, 24, 8)
        for seed in range(20):
            noisy = add_awgn(signal, snr_db, seed)
            # negative components that quantize to code 0 categorize as +1
            noisy[start + seed % n] = -1e-6 - 1e-6j
            stream = quantize(noisy, Q1_15)
            aligned = slice(start, start + n)
            flips = int(np.count_nonzero((stream.i[aligned] >= 0) != ref_i)) + int(
                np.count_nonzero((stream.q[aligned] >= 0) != ref_q)
            )
            index, re = SignCorrelator(bank).process(stream)
            (col,) = np.flatnonzero(index == start + n - 1)
            assert re[col] == 2 * n - 2 * flips


class TestLatchEnable:
    def test_extends_trailing_edge(self):
        raw = [False, False, True, False, False, False, False]
        assert checked_latch(raw, 2) == [False, False, True, True, True, False, False]

    def test_zero_holdoff_is_identity(self):
        raw = [True, False, True, False]
        assert checked_latch(raw, 0) == raw

    def test_negative_holdoff_rejected(self):
        with pytest.raises(ValueError, match="holdoff must be >= 0"):
            latch_enable([True], -1)

    @given(st.lists(st.booleans(), max_size=64))
    def test_largest_holdoff_register(self, raw):
        # the register takes any 32-bit value; every hold-off of at least
        # len - 1 latches to the prefix "any", at the cost of a short one
        latched = latch_enable(raw, 2**32 - 1)
        assert latched.tolist() == latch_enable(raw, len(raw)).tolist()
        assert latched.tolist() == [any(raw[: n + 1]) for n in range(len(raw))]

    @given(st.lists(st.booleans(), min_size=1, max_size=64), st.integers(0, 8))
    def test_matches_window_any(self, raw, holdoff):
        checked_latch(raw, holdoff)
