import numpy as np
import pytest
from hypothesis import given, strategies as st

from pktdet.coarse import (
    CoarseConfig,
    coarse_trigger,
    detect_coarse,
    schmidl_cox_correlations,
    schmidl_cox_metric,
)
from pktdet.signal import Q1_15, SampleStream, add_awgn, pn_preamble, quantize

from oracles import plateau_scan, schmidl_point


def repeated_block_stream(lag, seed=0, pad_after=0):
    block = pn_preamble("half", lag, seed).samples
    signal = np.concatenate([block, block, np.zeros(pad_after, dtype=complex)])
    return quantize(signal, Q1_15)


def stream_from_codes(codes):
    i = np.array([c[0] for c in codes], dtype=np.int32)
    q = np.array([c[1] for c in codes], dtype=np.int32)
    return SampleStream(format=Q1_15, i=i, q=q)


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

    def test_phase_rotation_leaves_metric_close(self):
        lag = 16
        block = pn_preamble("b", lag, 5).samples * 0.7
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
        cfg = CoarseConfig(half_period=4, metric_threshold=0.8, plateau_min=4)
        assert coarse_trigger(np.ones(16), cfg) == 0

    def test_silent_metric_never_triggers(self):
        cfg = CoarseConfig(half_period=4, metric_threshold=0.5, plateau_min=4)
        assert coarse_trigger(np.zeros(16), cfg) is None

    @given(
        st.lists(st.floats(0, 1.2), min_size=1, max_size=64),
        st.floats(0, 1),
        st.integers(1, 6),
    )
    def test_matches_naive_scan(self, metric, threshold, plateau):
        cfg = CoarseConfig(half_period=4, metric_threshold=threshold, plateau_min=plateau)
        assert coarse_trigger(metric, cfg) == plateau_scan(metric, threshold, plateau)

    def test_detect_coarse_on_repeated_block(self):
        stream = repeated_block_stream(lag=16, seed=7, pad_after=16)
        out = detect_coarse(stream, CoarseConfig(16, metric_threshold=0.9, plateau_min=1))
        assert out.first_trigger == 0
        assert out.metric[0] == 1.0

    def test_trigger_lands_near_repetition_start_at_10db(self):
        lag = 32
        cfg = CoarseConfig(half_period=lag, metric_threshold=0.5, plateau_min=8)
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng((14, seed))
            pad = int(rng.integers(40, 80))
            block = pn_preamble("h", lag, (15, seed)).samples
            signal = np.concatenate(
                [np.zeros(pad, dtype=complex), block, block, np.zeros(48, dtype=complex)]
            )
            noisy = add_awgn(signal, 10.0, rng, 1.0)
            out = detect_coarse(quantize(noisy, Q1_15), cfg)
            if out.first_trigger is not None and abs(out.first_trigger - pad) <= lag:
                hits += 1
        assert hits >= 95


class TestConfigValidation:
    @pytest.mark.parametrize("lag,thr,plateau", [(0, 0.5, 4), (4, -0.1, 4), (4, 1.5, 4), (4, 0.5, 0)])
    def test_invalid(self, lag, thr, plateau):
        with pytest.raises(ValueError):
            CoarseConfig(lag, thr, plateau)
