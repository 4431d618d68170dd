import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pktdet.coarse import CoarseConfig
from pktdet.correlator import SignCorrelator, latch_enable, load_coefficients
from pktdet.energy import EnergyConfig, enable_array
from pktdet.harness import scenario_profiles
from pktdet.signal import (
    Preamble,
    Q1_15,
    SampleStream,
    add_awgn,
    embed_preamble,
    pn_preamble,
    quantize,
)
from pktdet.standards import (
    Candidate,
    ConfigurationError,
    DetectorBank,
    RegisterMap,
    StandardProfile,
    arbitrate,
    _extract_candidates,
    build_register_map,
    run_detector_bank,
)

from oracles import run_peaks
from streaming import as_outputs, same_outputs


def profile(pid, length, threshold, seed=0):
    return StandardProfile(
        id=pid,
        preamble=pn_preamble(pid, length, (seed, length)),
        fine_threshold=threshold,
    )


def make_capture(tx, pad_before=80, pad_after=96, snr_db=math.inf, seed=0):
    clean, start = embed_preamble(tx.preamble, pad_before, pad_after)
    noisy = add_awgn(clean, snr_db, seed, tx.preamble.mean_power())
    return quantize(noisy, Q1_15), start


class TestProfileValidation:
    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            profile("bad", 32, 0)


class TestRegisterMap:
    def test_build_and_read_back(self):
        profiles = [profile("a", 32, 50), profile("b", 64, 100)]
        regs = build_register_map(profiles, energy=EnergyConfig(16, 0.5, 8))
        assert regs.read("energy/enabled") == 1
        assert regs.read("energy/window_len") == 16
        assert regs.read("prof0/len") == 32
        assert regs.read("prof1/len") == 64
        assert regs.read("fine/holdoff") == 128  # 2x the longest correlator
        bank = load_coefficients(profiles[1].preamble)
        assert regs.read("prof1/coeff_i/0") == bank.i_words[0]
        assert regs.read("prof1/coeff_i/1") == bank.i_words[1]

    def test_write_returns_new_map(self):
        regs = build_register_map([profile("a", 32, 50)])
        updated = regs.write("prof0/threshold", 60)
        assert regs.read("prof0/threshold") == 50
        assert updated.read("prof0/threshold") == 60

    def test_unknown_key_rejected(self):
        regs = build_register_map([profile("a", 32, 50)])
        with pytest.raises(ConfigurationError):
            regs.read("prof9/threshold")
        with pytest.raises(ConfigurationError):
            regs.write("bogus/key", 1)

    def test_non_word_value_rejected(self):
        regs = build_register_map([profile("a", 32, 50)])
        with pytest.raises(ConfigurationError):
            regs.write("prof0/threshold", 1 << 32)
        with pytest.raises(ConfigurationError):
            regs.write("prof0/threshold", -1)

    def test_every_stage_parameter_has_a_key(self):
        regs = build_register_map([profile("a", 40, 50)])
        expected = {
            "energy/enabled",
            "energy/window_len",
            "energy/sample_thresh_raw",
            "energy/count_thresh",
            "coarse/enabled",
            "coarse/lag",
            "coarse/thresh_q15",
            "coarse/plateau",
            "fine/holdoff",
            "arb/priority",
            "prof0/len",
            "prof0/threshold",
            "prof0/enabled",
            "prof0/coeff_i/0",
            "prof0/coeff_i/1",
            "prof0/coeff_q/0",
            "prof0/coeff_q/1",
        }
        assert set(regs) == expected


class TestArbitrate:
    def test_longer_preamble_wins(self):
        c32 = Candidate(profile("a", 32, 50), peak_value=60, peak_index=100, order=0)
        c64 = Candidate(profile("b", 64, 100), peak_value=101, peak_index=110, order=1)
        assert arbitrate([c32, c64]) is c64

    def test_single_candidate_wins(self):
        c = Candidate(profile("a", 32, 50), 55, 10, 0)
        assert arbitrate([c]) is c

    def test_full_tie_breaks_on_registration_order(self):
        a = Candidate(profile("a", 64, 100), 110, 40, order=0)
        b = Candidate(profile("b", 64, 100), 110, 40, order=1)
        assert arbitrate([b, a]) is a

    def test_peak_then_index_tie_breaks(self):
        low = Candidate(profile("a", 64, 100), 104, 40, order=0)
        high = Candidate(profile("b", 64, 100), 110, 45, order=1)
        assert arbitrate([low, high]) is high
        early = Candidate(profile("c", 64, 100), 110, 39, order=2)
        assert arbitrate([high, early]) is early

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            arbitrate([])

    @given(
        st.lists(
            st.tuples(st.sampled_from((16, 32, 64)), st.integers(1, 128), st.integers(0, 500)),
            min_size=1,
            max_size=8,
        ),
        st.randoms(use_true_random=False),
    )
    def test_deterministic_and_longest_priority(self, specs, rnd):
        profiles = {n: profile(f"p{n}", n, 10) for n in (16, 32, 64)}
        candidates = [
            Candidate(profiles[n], peak, index, order)
            for order, (n, peak, index) in enumerate(specs)
        ]
        winner = arbitrate(candidates)
        shuffled = candidates[:]
        rnd.shuffle(shuffled)
        assert arbitrate(shuffled) is winner
        longest = max(c.profile.correlator_len for c in candidates)
        assert winner.profile.correlator_len == longest


class TestRunDetectorBank:
    def test_silence_produces_no_events(self):
        profiles = [profile("a", 32, 50)]
        stream = quantize(np.zeros(200, dtype=complex), Q1_15)
        regs = build_register_map(profiles, energy=EnergyConfig(16, 0.25, 8))
        assert run_detector_bank(stream, profiles, regs) == []

    def test_noiseless_event_at_ground_truth(self):
        p = profile("a", 64, 128)  # threshold at the ideal maximum
        stream, start = make_capture(p)
        regs = build_register_map([p], energy=EnergyConfig(16, 0.25, 8))
        events = run_detector_bank(stream, [p], regs)
        assert len(events) == 1
        assert events[0].standard_id == "a"
        assert events[0].peak_value == 128
        assert events[0].peak_index == start + 63
        gate_index, coarse_index = events[0].stage_trace
        assert coarse_index is None
        assert gate_index is not None and start <= gate_index <= start + 16

    def test_three_standard_scenario_at_10db(self):
        profiles = scenario_profiles(seed=7)
        tx = profiles[1]  # 64-sample "a"
        stream, start = make_capture(tx, snr_db=10.0, seed=123)
        regs = build_register_map(profiles, energy=EnergyConfig(16, 0.5, 8))
        events = run_detector_bank(stream, profiles, regs)
        assert len(events) == 1
        assert events[0].standard_id == tx.id
        assert events[0].peak_value >= 100

    def test_wrong_coefficients_miss_the_packet(self):
        listener = profile("listener", 64, 100, seed=1)
        intruder = profile("intruder", 64, 100, seed=2)
        stream, _ = make_capture(intruder)
        regs = build_register_map([listener], energy=EnergyConfig(16, 0.25, 8))
        assert run_detector_bank(stream, [listener], regs) == []

    def test_disabled_profile_is_ignored(self):
        p = profile("a", 32, 64)
        stream, _ = make_capture(p)
        regs = build_register_map([p], energy=EnergyConfig(16, 0.25, 8))
        regs = regs.write("prof0/enabled", 0)
        assert run_detector_bank(stream, [p], regs) == []

    def test_threshold_register_is_authoritative(self):
        p = profile("a", 32, 64)  # ideal max 64
        stream, start = make_capture(p)
        regs = build_register_map([p], energy=EnergyConfig(16, 0.25, 8))
        regs = regs.write("prof0/threshold", 65)  # just above the ideal max
        assert run_detector_bank(stream, [p], regs) == []

    def test_rssi_false_blocks_everything(self):
        p = profile("a", 32, 64)
        stream, _ = make_capture(p)
        regs = build_register_map([p], energy=EnergyConfig(16, 0.25, 8))
        assert run_detector_bank(stream, [p], regs, rssi=False) == []
        assert len(run_detector_bank(stream, [p], regs, rssi=True)) == 1

    def test_coarse_stage_gates_fine(self):
        p, stream, regs = repeated_block_capture()
        events = run_detector_bank(stream, [p], regs)
        assert len(events) == 1
        assert events[0].standard_id == "rep"
        assert events[0].stage_trace[1] is not None  # coarse index recorded

    def test_event_and_candidate_fields_are_builtin_ints(self):
        # == cannot tell np.int64 from int, but an event's repr can
        p, stream, regs = repeated_block_capture()
        (event,) = run_detector_bank(stream, [p], regs)
        for value in (event.peak_value, event.peak_index, *event.stage_trace):
            assert type(value) is int
        index, partials = SignCorrelator(load_coefficients(p.preamble)).process(stream)
        (candidate,) = _extract_candidates(index, partials[0] + partials[1], 64, p, 0)
        for value in (candidate.peak_value, candidate.peak_index, candidate.order):
            assert type(value) is int

    def test_bank_isolation(self):
        a = profile("a", 32, 50, seed=4)
        b = profile("b", 64, 100, seed=5)
        stream, _ = make_capture(b, snr_db=10.0, seed=77)
        enable = np.ones(len(stream), dtype=bool)
        outputs_alone = SignCorrelator(load_coefficients(a.preamble)).process(stream, enable)
        # running next to another profile changes nothing about a's outputs
        outputs_next_to_b = SignCorrelator(load_coefficients(a.preamble)).process(
            stream, enable
        )
        assert same_outputs(outputs_alone, outputs_next_to_b)
        regs_both = build_register_map([a, b], energy=EnergyConfig(16, 0.5, 8))
        regs_a = build_register_map([a], energy=EnergyConfig(16, 0.5, 8))
        events_both = run_detector_bank(stream, [a, b], regs_both)
        events_a = run_detector_bank(stream, [a], regs_a)
        # b wins its own packet; a alone still reports nothing (different preamble)
        assert [e for e in events_both if e.standard_id == "a"] == events_a


def repeated_block_capture():
    """A noiseless packet whose preamble is a repeated block, so the coarse
    stage fires, and a register map with energy and coarse stages on."""
    half = pn_preamble("half", 16, seed=3)
    rep = Preamble(id="rep", samples=np.concatenate([half.samples, half.samples]))
    p = StandardProfile(id="rep", preamble=rep, fine_threshold=64)
    stream, _ = make_capture(p)
    regs = build_register_map(
        [p],
        energy=EnergyConfig(16, 0.25, 8),
        coarse=CoarseConfig(half_period=16, metric_threshold=0.9, plateau_min=2),
    )
    return p, stream, regs


class TestExtractCandidates:
    @example(outputs=[(1, 5), (1, 5), (2, 5)], threshold=5)  # runs at both ends, tied
    @example(outputs=[], threshold=0)
    @given(
        st.lists(st.tuples(st.integers(1, 3), st.integers(-4, 4)), max_size=40),
        st.integers(-3, 4),
    )
    def test_matches_naive_run_scan(self, outputs, threshold):
        # (gap, re) steps: gaps of 2 or 3 are gate gaps, small re values tie
        index = np.cumsum([gap for gap, _ in outputs], dtype=np.int64) + 5
        re = np.array([value for _, value in outputs], dtype=np.int64)
        p = profile("a", 32, 1)
        got = _extract_candidates(index, re, threshold, p, 2)
        expected = run_peaks(zip(index.tolist(), re.tolist()), threshold)
        assert [(c.peak_value, c.peak_index) for c in got] == expected
        assert all(c.profile is p and c.order == 2 for c in got)


class TestRegisterValidation:
    def test_tampered_length_register(self):
        p = profile("a", 32, 50)
        regs = build_register_map([p])
        bad = regs.write("prof0/len", 16)
        stream, _ = make_capture(p)
        with pytest.raises(ConfigurationError):
            run_detector_bank(stream, [p], bad)

    def test_garbage_coefficient_word(self):
        p = profile("a", 40, 50)  # 40-point bank: 8 valid bits in the last word
        regs = build_register_map([p])
        bad = regs.write("prof0/coeff_i/1", 0xFFFFFFFF)
        stream, _ = make_capture(p)
        with pytest.raises(ConfigurationError):
            run_detector_bank(stream, [p], bad)

    def test_unsupported_priority_policy(self):
        p = profile("a", 32, 50)
        regs = build_register_map([p]).write("arb/priority", 3)
        stream, _ = make_capture(p)
        with pytest.raises(ConfigurationError):
            run_detector_bank(stream, [p], regs)

    def test_zero_threshold_register(self):
        p = profile("a", 32, 50)
        regs = build_register_map([p]).write("prof0/threshold", 0)
        stream, _ = make_capture(p)
        with pytest.raises(ConfigurationError):
            run_detector_bank(stream, [p], regs)


class TestStreamingDetectorBank:
    @example(seed=5, length=200, specs=[(32, 0, True)], energy=(16, 1 << 22, 8), holdoff=12)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(16, 200),
        st.lists(
            st.tuples(st.integers(1, 40), st.integers(0, 1 << 16), st.booleans()),
            min_size=1,
            max_size=3,
        ),
        st.none()
        | st.tuples(
            st.integers(1, 16),
            st.integers(1 << 15, 1 << 29) | st.integers(0, 1 << 31),
            st.integers(0, 15),
        ),
        st.integers(0, 12) | st.integers(0, 40),
    )
    @settings(max_examples=200)
    def test_matches_batch_outputs_when_idle(self, seed, length, specs, energy, holdoff):
        codes = burst_codes(seed, length)
        stream = SampleStream(format=Q1_15, i=codes[:, 0].copy(), q=codes[:, 1].copy())
        profiles = [profile(f"p{k}", n, 1, s) for k, (n, s, _) in enumerate(specs)]
        cfg = None
        if energy is not None:
            window, thr_raw, count = energy
            cfg = EnergyConfig(window, thr_raw / Q1_15.scale**2, count % window)
        regs = build_register_map(profiles, energy=cfg, holdoff=holdoff)
        for k, (_, _, on) in enumerate(specs):
            regs = regs.write(f"prof{k}/enabled", int(on))

        bank = DetectorBank(profiles, regs, Q1_15)
        pushed = [bank.push(int(i), int(q)) for i, q in zip(stream.i, stream.q)]

        raw = enable_array(stream, cfg) if cfg else np.ones(len(stream), dtype=bool)
        enable = latch_enable(raw, regs.read("fine/holdoff"))
        for p, (_, _, on) in zip(profiles, specs):
            batch = SignCorrelator(load_coefficients(p.preamble)).process(stream, enable & on)
            streamed = [(n, out[p.id]) for n, out in enumerate(pushed) if out[p.id] is not None]
            assert same_outputs(as_outputs(streamed), batch)

    def test_energy_thresholds_adopted_mid_stream(self):
        p = profile("a", 16, 20)
        w = 8
        regs_old = build_register_map([p], energy=EnergyConfig(w, 0.2, 3), holdoff=0)
        thr_old = regs_old.read("energy/sample_thresh_raw")
        thr_new = round(0.35 * Q1_15.scale**2)
        regs_new = regs_old.write("energy/count_thresh", 5).write(
            "energy/sample_thresh_raw", thr_new
        )
        rng = np.random.default_rng(3)
        length = 240
        stream = quantize(
            rng.uniform(0.0, 0.9, length) * np.exp(2j * np.pi * rng.uniform(size=length)),
            Q1_15,
        )
        publish = {90: regs_new, 170: regs_old}

        bank = DetectorBank([p], regs_old, Q1_15)
        streamed = []
        for n in range(length):
            if n in publish:
                bank.update_registers(publish[n])
            out = bank.push(int(stream.i[n]), int(stream.q[n]))["a"]
            if out is not None:
                streamed.append((n, out))

        # naive model: the registers in force at each sample
        new_at = [90 <= n < 170 for n in range(length)]
        energy = [int(i) ** 2 + int(q) ** 2 for i, q in zip(stream.i, stream.q)]

        def model(thr_of, count_of, recompare=False):
            enable = []
            for n in range(length):
                window = range(n - w + 1, n + 1)
                # each sample meets the threshold in force when it arrived,
                # unless recompare replays the window under the current one
                count = sum(energy[k] > thr_of(n if recompare else k) for k in window)
                enable.append(n >= w - 1 and count > count_of(n))
            return enable

        expected = model(
            lambda k: thr_new if new_at[k] else thr_old, lambda n: 5 if new_at[n] else 3
        )
        batch = SignCorrelator(load_coefficients(p.preamble)).process(stream, expected)
        assert same_outputs(as_outputs(streamed), batch)
        # the capture tells the model apart from the plausible wrong ones
        wrong = (
            model(lambda k: thr_old, lambda n: 3),
            model(lambda k: thr_new, lambda n: 5),
            model(lambda k: thr_new if new_at[k] else thr_old, lambda n: 3),
            model(lambda k: thr_old, lambda n: 5 if new_at[n] else 3),
            model(
                lambda k: thr_new if new_at[k] else thr_old,
                lambda n: 5 if new_at[n] else 3,
                recompare=True,
            ),
        )
        assert all(alternative != expected for alternative in wrong)

    def test_register_adoption_is_atomic(self):
        # two sentinel banks: all-positive signs vs all-negative signs
        ones = profile_from_signs("ones", [+1] * 32)
        regs_old = build_register_map([ones])
        neg_bank = load_coefficients(
            pn_from_signs("neg", [-1] * 32)
        )
        regs_new = regs_old
        for w, word in enumerate(neg_bank.i_words):
            regs_new = regs_new.write(f"prof0/coeff_i/{w}", word)
        for w, word in enumerate(neg_bank.q_words):
            regs_new = regs_new.write(f"prof0/coeff_q/{w}", word)

        stream = quantize(0.5 * np.ones(96) + 0.5j * np.ones(96), Q1_15)
        bank = DetectorBank([ones], regs_old, Q1_15)
        outputs = []
        for n in range(len(stream)):
            if n == 48:
                bank.update_registers(regs_new)  # published mid-stream
            out = bank.push(int(stream.i[n]), int(stream.q[n]))["ones"]
            if out is not None:
                outputs.append(out)
        # all-positive input: old bank scores +64, new bank scores -64, a torn
        # bank would land strictly between
        assert set(o.re for o in outputs) == {64, -64}
        for o in outputs:
            assert abs(o.p_ii) == 32 and abs(o.p_qq) == 32

    def test_length_change_mid_stream_rejected(self):
        p = profile("a", 32, 50)
        regs = build_register_map([p])
        bank = DetectorBank([p], regs, Q1_15)
        bank.update_registers(regs.write("prof0/len", 16))
        with pytest.raises(ConfigurationError):
            bank.push(0, 0)


def burst_codes(seed, length):
    """Random Q1.15 codes in alternating loud and quiet runs of 1-47 samples.

    Loud components have magnitude >= 2**14 and quiet ones <= 128, so a
    sample threshold between 2**15 and 2**29 opens and closes the gate.
    """
    rng = np.random.default_rng(seed)
    runs = rng.integers(1, 48, size=length)
    loud = np.repeat(np.arange(length) % 2, runs)[:length] == rng.integers(2)
    codes = rng.integers(-32768, 32768, size=(length, 2)).astype(np.int32)
    forced = np.where(codes < 0, codes & ~0x4000, codes | 0x4000)
    return np.where(loud[:, None], forced, codes >> 8)


def pn_from_signs(name, signs):
    samples = np.array([s * (1 + 1j) for s in signs], dtype=complex) / math.sqrt(2)
    return Preamble(id=name, samples=samples)


def profile_from_signs(name, signs, threshold=50):
    preamble = pn_from_signs(name, signs)
    return StandardProfile(id=name, preamble=preamble, fine_threshold=threshold)
