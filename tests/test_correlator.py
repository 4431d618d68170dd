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
    Preamble,
    Q1_15,
    SampleStream,
    add_awgn,
    embed_preamble,
    pn_preamble,
    quantize,
)

from oracles import float_xcorr_argmax, sign_partials
from streaming import push_run, same_outputs

sign = st.sampled_from((-1, 1))
sign_pair_lists = st.lists(st.tuples(sign, sign), min_size=1, max_size=128)


def bank_from_signs(pairs):
    """Build a CoefficientBank whose sign pattern is exactly `pairs`."""
    samples = np.array([si + 1j * sq for si, sq in pairs], dtype=complex)
    return load_coefficients(Preamble(id="ref", samples=samples))


def correlate_codes(codes, bank):
    """Push raw (i, q) codes through a fresh correlator; the last output."""
    corr = SignCorrelator(bank)
    out = None
    for i, q in codes:
        out = corr.push(i, q)
    return out


class TestCategorize:
    def test_zero_maps_positive(self):
        bank = bank_from_signs([(1, 1)])
        assert correlate_codes([(0, 0)], bank).re == 2

    def test_mixed_signs(self):
        stream = quantize([-0.3 + 0.2j], Q1_15)
        bank = bank_from_signs([(-1, 1)])
        out = correlate_codes([(int(stream.i[0]), int(stream.q[0]))], bank)
        assert (out.p_ii, out.p_qq, out.p_qi, out.p_iq) == (1, 1, -1, -1)

    @given(st.integers(-32768, 32767), st.integers(-32768, 32767))
    def test_matches_componentwise_sign(self, i, q):
        # against the all-positive reference, p_ii and p_qq are the signs
        out = correlate_codes([(i, q)], bank_from_signs([(1, 1)]))
        assert out.p_ii == (1 if i >= 0 else -1)
        assert out.p_qq == (1 if q >= 0 else -1)


class TestCoefficientBank:
    def test_sixteen_point_fills_half_a_word(self):
        bank = load_coefficients(pn_preamble("p", 16, seed=1))
        assert bank.word_count == 1
        assert bank.valid_bits_in_last_word == 16
        assert bank.i_words[0] <= 0xFFFF

    def test_thirty_two_point_fills_one_word(self):
        bank = load_coefficients(pn_preamble("p", 32, seed=1))
        assert bank.word_count == 1
        assert bank.valid_bits_in_last_word == 32

    def test_sixty_four_point_uses_two_words(self):
        preamble = pn_preamble("p", 64, seed=1)
        bank = load_coefficients(preamble)
        assert bank.word_count == 2
        assert bank.valid_bits_in_last_word == 32
        # unpack reproduces the componentwise signs
        expected = [
            (1 if s.real >= 0 else -1, 1 if s.imag >= 0 else -1) for s in preamble.samples
        ]
        assert bank.signs() == expected

    def test_zero_component_loads_as_one(self):
        bank = load_coefficients(Preamble(id="z", samples=np.array([0 + 0j, -1 - 1j])))
        assert bank.signs() == [(1, 1), (-1, -1)]

    def test_word_count_validation(self):
        with pytest.raises(ValueError):
            CoefficientBank(length=33, i_words=(0,), q_words=(0,))
        with pytest.raises(ValueError):
            CoefficientBank(length=8, i_words=(0x100,), q_words=(0,))

    @given(sign_pair_lists)
    def test_dump_parse_round_trip(self, pairs):
        bank = bank_from_signs(pairs)
        assert parse_bank(dump_bank(bank)) == bank

    @given(sign_pair_lists)
    def test_sign_arrays_unpack_the_words(self, pairs):
        si, sq = bank_from_signs(pairs).sign_arrays
        assert list(zip(si.tolist(), sq.tolist())) == pairs

    def test_parse_rejects_wrong_word_count(self):
        with pytest.raises(ValueError):
            parse_bank("n=64\n00000000\n00000000\n00000000\n")


class TestCorrelateAt:
    def test_self_correlation_hits_ideal_maximum(self):
        for n, ideal in ((32, 64), (64, 128)):
            preamble = pn_preamble("p", n, seed=9)
            bank = load_coefficients(preamble)
            out = correlate_codes(bank.signs(), bank)
            assert out.re == ideal
            assert out.im == 0

    def test_negated_window_hits_ideal_minimum(self):
        bank = load_coefficients(pn_preamble("p", 32, seed=9))
        out = correlate_codes([(-si, -sq) for si, sq in bank.signs()], bank)
        assert out.re == -64

    def test_underfilled_window_not_ready(self):
        bank = load_coefficients(pn_preamble("p", 8, seed=1))
        corr = SignCorrelator(bank)
        assert corr.push(1, 1) is None
        assert not corr.ready
        assert corr.work_count == 0

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
        bank = load_coefficients(pn_preamble("p", 4, seed=3))
        decoys = [(-1, -1)] * 3
        assert correlate_codes(decoys + bank.signs(), bank).re == 8  # decoys evicted

    def test_stacking_two_halves(self):
        preamble = pn_preamble("p", 64, seed=21)
        first = Preamble(id="lo", samples=preamble.samples[:32])
        second = Preamble(id="hi", samples=preamble.samples[32:])
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
        assert full.im == lo.im + hi.im


class TestScalingInvariance:
    @given(st.floats(0.05, 3.0))
    def test_positive_gain_changes_nothing(self, gain):
        preamble = pn_preamble("p", 32, seed=13)
        signal, _ = embed_preamble(preamble, 8, 8)
        bank = load_coefficients(preamble)
        base = SignCorrelator(bank).process(quantize(np.asarray(signal) * 0.2, Q1_15))
        scaled = SignCorrelator(bank).process(
            quantize(np.asarray(signal) * 0.2 * gain, Q1_15)
        )
        assert same_outputs(base, scaled)


class TestCorrelateStream:
    def test_disabled_everywhere_does_no_work(self):
        preamble = pn_preamble("p", 32, seed=2)
        stream = quantize(embed_preamble(preamble, 10, 10)[0], Q1_15)
        corr = SignCorrelator(load_coefficients(preamble))
        index, partials = corr.process(stream, enable=np.zeros(len(stream), dtype=bool))
        assert index.shape == (0,) and partials.shape == (4, 0)
        assert corr.work_count == 0

    def test_noiseless_peak_at_ground_truth(self):
        preamble = pn_preamble("p", 64, seed=4)
        signal, start = embed_preamble(preamble, 37, 50)
        stream = quantize(signal, Q1_15)
        index, partials = SignCorrelator(load_coefficients(preamble)).process(stream)
        re = partials[0] + partials[1]
        peak = int(np.argmax(re))
        assert index[peak] == start + preamble.length - 1
        assert re[peak] == 128
        # the full-precision correlation oracle agrees on the alignment
        assert float_xcorr_argmax(signal, preamble.samples) == start

    def test_gated_run_preserves_peak(self):
        preamble = pn_preamble("p", 32, seed=6)
        signal, start = embed_preamble(preamble, 40, 40)
        stream = quantize(signal, Q1_15)
        bank = load_coefficients(preamble)

        def peak(outputs):
            index, partials = outputs
            re = partials[0] + partials[1]
            return index[np.argmax(re)], re.max()

        enable = np.zeros(len(stream), dtype=bool)
        enable[start : start + 2 * preamble.length] = True
        gated = SignCorrelator(bank).process(stream, enable)
        assert peak(gated) == peak(SignCorrelator(bank).process(stream))

    def test_work_counter_counts_enabled_ready_positions(self):
        preamble = pn_preamble("p", 16, seed=8)
        stream = quantize(embed_preamble(preamble, 30, 30)[0], Q1_15)
        enable = np.zeros(len(stream), dtype=bool)
        enable[10:50] = True
        corr = SignCorrelator(load_coefficients(preamble))
        index, partials = corr.process(stream, enable)
        ready_enabled = sum(1 for n in range(len(stream)) if enable[n] and n >= 15)
        assert corr.work_count == ready_enabled
        assert len(index) == partials.shape[1] == ready_enabled

    def test_process_equals_repeated_push(self):
        rng = np.random.default_rng(11)
        preamble = pn_preamble("p", 8, seed=1)
        bank = load_coefficients(preamble)
        stream = quantize(rng.normal(size=40) * 0.4 + 1j * rng.normal(size=40) * 0.4, Q1_15)
        enable = rng.integers(0, 2, size=40).astype(bool)

        batch = SignCorrelator(bank).process(stream, enable)
        assert same_outputs(push_run(SignCorrelator(bank), stream, enable), batch)

    @example(n=64, length=0, seed=0, masked=True, rebind=False)
    @example(n=64, length=63, seed=1, masked=False, rebind=True)
    @given(
        st.integers(1, 64),
        st.integers(0, 192),
        st.integers(0, 2**32 - 1),
        st.booleans(),
        st.booleans(),
    )
    def test_process_equals_fresh_push_run(self, n, length, seed, masked, rebind):
        # stream lengths from empty to three banks, codes on both sides of 0
        length = length % (3 * n + 1)
        rng = np.random.default_rng(seed)
        codes = rng.integers(-3, 3, size=(2, length)).astype(np.int32)
        stream = SampleStream(format=Q1_15, i=codes[0], q=codes[1])
        enable = rng.integers(0, 2, size=length).astype(bool) if masked else None
        first = bank_from_signs([tuple(p) for p in rng.choice((-1, 1), size=(n, 2))])
        second = bank_from_signs([tuple(p) for p in rng.choice((-1, 1), size=(n, 2))])

        corr = SignCorrelator(first)
        if rebind:
            corr.rebind_bank(second)
        batch = corr.process(stream, enable)
        pushed = SignCorrelator(second if rebind else first)
        assert same_outputs(batch, push_run(pushed, stream, enable))
        assert corr.work_count == pushed.work_count == len(batch[0])
        assert batch[1].shape == (4, len(batch[0]))

    def test_process_ignores_the_push_window(self):
        # process starts from an empty window whatever push shifted in before
        rng = np.random.default_rng(4)
        bank = bank_from_signs([tuple(p) for p in rng.choice((-1, 1), size=(16, 2))])
        stream = quantize(rng.normal(size=40) + 1j * rng.normal(size=40), Q1_15)
        corr = SignCorrelator(bank)
        for k in range(20):
            corr.push(int(stream.i[k]), int(stream.q[k]))
        assert same_outputs(corr.process(stream), SignCorrelator(bank).process(stream))

    def test_enable_length_mismatch_rejected(self):
        preamble = pn_preamble("p", 8, seed=1)
        stream = quantize(np.zeros(16, dtype=complex), Q1_15)
        with pytest.raises(ValueError):
            SignCorrelator(load_coefficients(preamble)).process(stream, enable=[True] * 5)


class TestSignFlipModel:
    """The premise of ``oracles.sign_detection_probability``: at alignment
    ``re`` loses exactly 2 per component whose received sign differs from
    the reference sign."""

    @pytest.mark.parametrize("snr_db", (-6.0, -2.0, 0.0, 2.0, 6.0))
    @pytest.mark.parametrize("n", (32, 64))
    def test_aligned_re_counts_sign_flips(self, n, snr_db):
        preamble = pn_preamble("p", n, seed=(3, n))
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
            index, partials = SignCorrelator(bank).process(stream)
            (col,) = np.flatnonzero(index == start + n - 1)
            assert partials[0, col] + partials[1, col] == 2 * n - 2 * flips


class TestLatchEnable:
    def test_extends_trailing_edge(self):
        raw = np.array([0, 0, 1, 0, 0, 0, 0], dtype=bool)
        latched = latch_enable(raw, 2)
        assert latched.tolist() == [False, False, True, True, True, False, False]

    def test_zero_holdoff_is_identity(self):
        raw = np.array([1, 0, 1, 0], dtype=bool)
        assert latch_enable(raw, 0).tolist() == raw.tolist()

    @given(st.lists(st.booleans(), min_size=1, max_size=64), st.integers(0, 8))
    def test_matches_window_any(self, raw, holdoff):
        latched = latch_enable(raw, holdoff)
        for n in range(len(raw)):
            expected = any(raw[max(0, n - holdoff) : n + 1])
            assert bool(latched[n]) == expected
