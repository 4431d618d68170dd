import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from pktdet.coarse import (
    CoarseConfig,
    _first_run,
    detect_coarse,
    schmidl_cox_correlations,
    schmidl_cox_metric,
)
from pktdet.signal import Q1_15, SampleStream, add_awgn, pn_preamble, quantize

from oracles import coarse_trigger_exact, plateau_scan, schmidl_point


def repeated_block_stream(lag, seed=0, pad_after=0):
    block = pn_preamble(lag, seed).samples
    signal = np.concatenate([block, block, np.zeros(pad_after, dtype=complex)])
    return quantize(signal, Q1_15)


def stream_from_codes(codes):
    i = np.array([c[0] for c in codes], dtype=np.int32)
    q = np.array([c[1] for c in codes], dtype=np.int32)
    return SampleStream(format=Q1_15, i=i, q=q)


# bool lists of long runs, where plateaus of most widths occur
run_lists = st.lists(st.tuples(st.booleans(), st.integers(1, 16)), max_size=12).map(
    lambda runs: [value for value, count in runs for _ in range(count)][:64]
)
code_lists = st.lists(
    st.tuples(st.integers(-32768, 32767), st.integers(-32768, 32767)),
    min_size=8,
    max_size=64,
)


class TestMetric:
    def test_perfect_repetition_scores_one(self):
        stream = repeated_block_stream(lag=16, seed=3)
        metric = schmidl_cox_metric(stream, 16)
        assert metric[0] == 1.0  # both halves hold identical codes

    def test_all_zero_stream_scores_zero(self):
        stream = quantize(np.zeros(64, dtype=complex), Q1_15)
        assert np.array_equal(schmidl_cox_metric(stream, 16), np.zeros(64 - 32 + 1))

    def test_white_noise_scores_low(self):
        lag = 32
        noise = add_awgn(np.zeros(4 * lag, dtype=complex), 0.0, seed=9, signal_power=0.1)
        stream = quantize(noise, Q1_15)
        metric = schmidl_cox_metric(stream, lag)
        assert metric.mean() < 0.5
        # and every point agrees with the naive per-position recomputation
        p_re, p_im, r = schmidl_cox_correlations(stream, lag)
        for d in range(len(metric)):
            assert (int(p_re[d]), int(p_im[d]), int(r[d])) == schmidl_point(
                stream.i, stream.q, lag, d
            )

    @given(code_lists, st.integers(1, 8))
    def test_incremental_equals_naive(self, codes, lag):
        stream = stream_from_codes(codes)
        if len(stream) < 2 * lag:
            lag = len(stream) // 2
        p_re, p_im, r = schmidl_cox_correlations(stream, lag)
        for d in range(len(p_re)):
            assert (int(p_re[d]), int(p_im[d]), int(r[d])) == schmidl_point(
                stream.i, stream.q, lag, d
            )

    def test_full_scale_long_stream_stays_exact(self):
        # a full-scale window's R passes 2**34 and the prefix sums of 50,000
        # samples pass 2**46, so any 32-bit step would wrap
        codes = np.random.default_rng(19).choice([-32768, 32767], size=(2, 50_000))
        stream = SampleStream(format=Q1_15, i=codes[0], q=codes[1])
        p_re, p_im, r = schmidl_cox_correlations(stream, 16)
        assert r.min() > 1 << 34
        for d in (0, len(r) // 2, len(r) - 1):
            assert (int(p_re[d]), int(p_im[d]), int(r[d])) == schmidl_point(
                stream.i, stream.q, 16, d
            )

    def test_phase_rotation_leaves_metric_close(self):
        lag = 16
        block = pn_preamble(lag, 5).samples * 0.7
        signal = np.concatenate([block, block])
        rotated = signal * np.exp(1j * 0.913)
        m0 = schmidl_cox_metric(quantize(signal, Q1_15), lag)
        m1 = schmidl_cox_metric(quantize(rotated, Q1_15), lag)
        assert np.max(np.abs(m0 - m1)) < 5e-3

    def test_short_stream_rejected(self):
        stream = quantize(np.zeros(15, dtype=complex), Q1_15)
        with pytest.raises(ValueError):
            schmidl_cox_metric(stream, 8)


class TestTrigger:
    def test_constant_metric_triggers_at_zero(self):
        assert _first_run(np.ones(16, dtype=bool), 4) == 0

    def test_silent_metric_never_triggers(self):
        assert _first_run(np.zeros(16, dtype=bool), 4) is None

    @given(
        st.lists(st.booleans(), max_size=64) | run_lists,
        st.integers(1, 70) | st.just(0xFFFFFFFF),
    )
    @example([True, False, True], 3)
    @example([True] * 7 + [False] + [True] * 8, 8)
    def test_matches_naive_scan(self, above, width):
        # widths past the length and the largest plateau register included
        assert _first_run(above, width) == plateau_scan(above, True, width)

    @given(
        st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=2, max_size=64),
        st.integers(1, 8),
        st.integers(0, 1 << 15) | st.integers(0, 1 << 20),
        st.integers(1, 12),
    )
    def test_detect_coarse_matches_the_metric_scan(self, codes, lag, thr_q15, plateau):
        # small codes repeat often, so long plateaus occur; a threshold above
        # 1 is a word like any other, met where the second half is quieter
        stream = stream_from_codes(codes)
        lag = min(lag, len(stream) // 2)
        threshold = thr_q15 / (1 << 15)
        expected = plateau_scan(schmidl_cox_metric(stream, lag).tolist(), threshold, plateau)
        assert detect_coarse(stream, lag, thr_q15, plateau).first_trigger == expected

    def test_detect_coarse_on_repeated_block(self):
        stream = repeated_block_stream(lag=16, seed=7, pad_after=16)
        out = detect_coarse(stream, 16, round(0.9 * (1 << 15)), 1)
        assert out.first_trigger == 0
        assert schmidl_cox_metric(stream, 16)[0] == 1.0

    def test_trigger_lands_near_repetition_start_at_10db(self):
        lag = 32
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng((14, seed))
            pad = int(rng.integers(40, 80))
            block = pn_preamble(lag, (15, seed)).samples
            signal = np.concatenate(
                [np.zeros(pad, dtype=complex), block, block, np.zeros(48, dtype=complex)]
            )
            noisy = add_awgn(signal, 10.0, rng, 1.0)
            out = detect_coarse(quantize(noisy, Q1_15), lag, 1 << 14, 8)  # M >= 0.5
            if out.first_trigger is not None and abs(out.first_trigger - pad) <= lag:
                hits += 1
        assert hits >= 95


class TestExactTrigger:
    """The trigger decided exactly, ``|P|**2 * 2**15 >= thr_q15 * R**2``."""

    # Q1.15 codes, L = 16: P = 543,339,720 (imaginary part 0) and
    # R = 768,398,401 satisfy R**2 - 2 * P**2 = 1, so M lies just below 0.5,
    # yet its float64 quotient is exactly 0.5
    I_CODES = [3573] + [3572] * 12 + [3555, 3683, 29064] + [5052] * 13 + [5028, 5208, 1]
    Q_CODES = [3573] + [3572] * 12 + [3555, 3683, 0] + [5052] * 13 + [5028, 5208, 0]

    def test_the_tie_lies_below_one_half(self):
        p_re, p_im, r = schmidl_point(self.I_CODES, self.Q_CODES, 16, 0)
        assert (p_re, p_im, r) == (543_339_720, 0, 768_398_401)
        assert r * r - 2 * p_re * p_re == 1
        assert coarse_trigger_exact(self.I_CODES, self.Q_CODES, 16, 1 << 14, 1) is None
        assert coarse_trigger_exact(self.I_CODES, self.Q_CODES, 16, (1 << 14) - 1, 1) == 0

    @pytest.mark.xfail(
        strict=True, reason="ROADMAP item 1: the float metric rounds M up to the threshold"
    )
    def test_detect_coarse_decides_the_tie_exactly(self):
        stream = stream_from_codes(list(zip(self.I_CODES, self.Q_CODES)))
        assert detect_coarse(stream, 16, 1 << 14, 1).first_trigger is None


class TestConfigValidation:
    @pytest.mark.parametrize("lag,thr,plateau", [(0, 0.5, 4), (4, -0.1, 4), (4, 1.5, 4), (4, 0.5, 0)])
    def test_invalid(self, lag, thr, plateau):
        with pytest.raises(ValueError):
            CoarseConfig(lag, thr, plateau)

    @pytest.mark.parametrize("field", ["half_period", "plateau_min"])
    def test_whole_float_rejected(self, field):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            CoarseConfig(**{"half_period": 16, "plateau_min": 8, field: 8.0})

    def test_integer_fields_become_ints(self):
        cfg = CoarseConfig(np.int64(16), 0.5, np.uint8(8))
        assert (type(cfg.half_period), type(cfg.plateau_min)) == (int, int)
        assert cfg == CoarseConfig(16, 0.5, 8)
