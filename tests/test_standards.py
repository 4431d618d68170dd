import copy
import gc
import math
from dataclasses import fields, replace
import pickle
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pktdet import standards
from pktdet.coarse import CoarseConfig, detect_coarse
from pktdet.correlator import CorrelatorOutput, SignCorrelator, load_coefficients
from pktdet.energy import EnergyConfig, enable_array
from pktdet.harness import scenario_profiles, synthesize
from pktdet.signal import (
    MAX_ENERGY_WINDOW,
    MAX_PREAMBLE_LEN,
    FixedPointFormat,
    Preamble,
    Q1_15,
    SampleStream,
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
    _decode_registers,
    _extract_candidates,
    build_register_map,
    events_from_candidates,
    run_detector_bank,
)

from oracles import (
    arbitrated_events,
    coarse_trigger_exact,
    oracle_enable,
    reference_run,
    run_peaks,
    sign_partials,
)
from streaming import (
    as_outputs,
    bank_from_signs,
    blank_map,
    code_signs,
    event_tuples,
    partials,
    push_partials,
    push_run,
    recorded_partials,
    same_outputs,
    sign_pairs,
    stream_from_codes,
    with_banks,
)


def profile(pid, length, threshold, seed=0):
    return StandardProfile(
        id=pid,
        preamble=pn_preamble(length, (seed, length)),
        fine_threshold=threshold,
    )


def make_capture(tx, pad_before=80, pad_after=96, snr_db=math.inf, seed=0):
    return synthesize(tx.preamble, pad_before, pad_after, snr_db, seed, Q1_15)


def profile_specs():
    """A profile's ``(signs, threshold, enabled)``: 1 to 12 reference
    ``(si, sq)`` sign pairs and a threshold up to the ideal maximum 2n."""
    sign = st.sampled_from((-1, 1))
    return st.integers(1, 12).flatmap(
        lambda n: st.tuples(
            st.lists(st.tuples(sign, sign), min_size=n, max_size=n),
            st.integers(1, 2 * n),
            st.booleans(),
        )
    )


def up_to(lo, hi, widest):
    """An integer in [lo, hi], or ``widest`` as often as any one of them."""
    return st.integers(lo, hi + 1).map(lambda v: widest if v > hi else v)


@st.composite
def stage_words(draw):
    """A word for every stage row, each stage on or off, with the widest
    window, lag, plateau and hold-off among them; a sample threshold between
    2**15 and 2**29 parts :func:`burst_codes`' loud samples from its quiet
    ones."""
    window = draw(up_to(1, 12, MAX_ENERGY_WINDOW))
    return {
        "energy/enabled": draw(st.booleans()),
        "energy/window_len": window,
        "energy/sample_thresh_raw": draw(st.integers(1 << 15, 1 << 29) | st.integers(0, 1 << 30)),
        "energy/count_thresh": draw(st.integers(0, min(window, 12))),
        "coarse/enabled": draw(st.booleans()),
        "coarse/lag": draw(up_to(1, 6, 0xFFFFFFFF)),
        "coarse/thresh_q15": draw(st.integers(0, 1 << 16)),
        "coarse/plateau": draw(up_to(1, 4, 0xFFFFFFFF)),
        "fine/holdoff": draw(up_to(0, 12, 0xFFFFFFFF)),
    }


# silence, one loud sample, then louder ones
EDGE_CODES = [(0, 0)] * 5 + [(500, 500)] + [(-1000, -1000)] * 4
# the words of EnergyConfig(1, 1000 / 2**30, 0), CoarseConfig(1, 1.0, 1)
# and a hold-off of 0
EDGE_WORDS = {
    "energy/enabled": 1,
    "energy/window_len": 1,
    "energy/sample_thresh_raw": 1000,
    "energy/count_thresh": 0,
    "coarse/enabled": 1,
    "coarse/lag": 1,
    "coarse/thresh_q15": 1 << 15,
    "coarse/plateau": 1,
    "fine/holdoff": 0,
}


class TestProfileValidation:
    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            profile("bad", 32, 0)

    def test_threshold_must_be_an_integer(self):
        # 50.0 == 50 as keys go, but only an int makes a register
        with pytest.raises(ValueError, match="fine_threshold must be an integer"):
            profile("bad", 32, 50.0)
        assert type(profile("a", 32, np.int64(50)).fine_threshold) is int


class TestRegisterMap:
    def test_build_and_read_back(self):
        profiles = [profile("a", 32, 50), profile("b", 64, 100)]
        regs = build_register_map(profiles, energy=EnergyConfig(16, 0.5, 8))
        assert regs.read("energy/enabled") == 1
        assert regs.read("energy/window_len") == 16
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

    def test_missing_key_follows_the_mapping_protocol(self):
        # `in` and `.get` rest on KeyError; read() raises the configuration
        # error that the decoder reports
        regs = build_register_map([profile("a", 32, 50)])
        assert "nope" not in regs
        assert regs.get("nope", 5) == 5
        assert "prof0/threshold" in regs and regs["prof0/threshold"] == 50
        with pytest.raises(KeyError):
            regs["nope"]
        with pytest.raises(ConfigurationError):
            regs.read("nope")

    def test_non_word_value_rejected(self):
        regs = build_register_map([profile("a", 32, 50)])
        with pytest.raises(ConfigurationError):
            regs.write("prof0/threshold", 1 << 32)
        with pytest.raises(ConfigurationError):
            regs.write("prof0/threshold", -1)

    @pytest.mark.parametrize(
        "value",
        [50.9, 50.0, np.float64(50.0), "77", None],
        ids=["fraction", "whole-float", "numpy-float", "digit-string", "none"],
    )
    def test_non_integer_value_rejected(self, value):
        regs = build_register_map([profile("a", 32, 50)])
        with pytest.raises(ConfigurationError):
            regs.write("prof0/threshold", value)
        with pytest.raises(ConfigurationError):
            RegisterMap({"prof0/threshold": value})

    @pytest.mark.parametrize("value", [60, True, np.int64(61), np.uint32(62), np.int8(3)])
    def test_integer_values_accepted(self, value):
        regs = build_register_map([profile("a", 32, 50)]).write("prof0/threshold", value)
        assert regs.read("prof0/threshold") == int(value)
        assert type(regs.read("prof0/threshold")) is int


class TestRegisterRoundTrip:
    """Decoding a freshly built map gives back every stage's register words.

    Energy sample thresholds are drawn on the raw code-squared grid their
    register holds, so the decoded word is the drawn one.  Coarse thresholds
    are drawn on and off the Q15 grid: the register holds the nearest Q15
    value."""

    FORMATS = (Q1_15, FixedPointFormat(12, 10), FixedPointFormat(8, 7))

    @given(st.data())
    def test_build_then_decode(self, data):
        fmt = data.draw(st.sampled_from(self.FORMATS))
        lengths = data.draw(st.lists(st.integers(1, 100), min_size=1, max_size=3))
        profiles = [
            profile(f"p{k}", n, data.draw(st.integers(1, 300)), seed=k)
            for k, n in enumerate(lengths)
        ]
        energy = words = None
        if data.draw(st.booleans()):
            window = data.draw(st.integers(1, 64))
            raw, count = data.draw(st.integers(0, 0xFFFFFFFF)), data.draw(st.integers(0, window))
            words = (window, raw, count)
            energy = EnergyConfig(window, raw / fmt.scale**2, count)
        coarse = None
        if data.draw(st.booleans()):
            on_grid = st.integers(0, 1 << 15).map(lambda k: k / (1 << 15))
            coarse = CoarseConfig(
                data.draw(st.integers(1, 64)),
                data.draw(on_grid | st.floats(0, 1)),
                data.draw(st.integers(1, 32)),
            )
        regs = build_register_map(profiles, energy, coarse, fmt)
        holdoff = data.draw(st.none() | st.integers(0, 1000))
        if holdoff is not None:
            regs = regs.write("fine/holdoff", holdoff)
        view = _decode_registers(profiles, regs)
        assert _decode_registers(list(profiles), regs) is view
        assert view == _decode_registers(profiles, RegisterMap(regs))  # a fresh decode
        assert view.energy == words
        if coarse is None:
            assert view.coarse is None
        else:
            thr_q15 = round(coarse.metric_threshold * 2**15)
            assert view.coarse == (coarse.half_period, thr_q15, coarse.plateau_min)
        assert view.holdoff == (2 * max(lengths) if holdoff is None else holdoff)
        assert view.banks == tuple(load_coefficients(p.preamble) for p in profiles)
        assert view.thresholds == tuple(p.fine_threshold for p in profiles)
        assert view.enabled == (True,) * len(profiles)

    @given(
        fmt=st.sampled_from(FORMATS),
        codes=st.lists(
            st.tuples(st.integers(-32768, 32767), st.integers(-32768, 32767)),
            min_size=1,
            max_size=40,
        ),
        window=st.integers(1, 8),
        count=st.integers(0, 8),
        pick=st.integers(0, 39),
        offset=st.floats(-1.0, 1.0),
    )
    @example(fmt=Q1_15, codes=[(2, 3)], window=1, count=0, pick=0, offset=-0.4)
    def test_register_gate_equals_configured_gate(self, fmt, codes, window, count, pick, offset):
        # thresholds off the raw grid, near a sample's energy: the register
        # holds the floor of the raw threshold, which opens the gate on the
        # same integer energies as the exact threshold does
        shift = 16 - fmt.total_bits
        i = np.array([c[0] for c in codes], dtype=np.int32) >> shift
        q = np.array([c[1] for c in codes], dtype=np.int32) >> shift
        stream = SampleStream(format=fmt, i=i, q=q)
        window = min(window, len(stream))
        energies = i.astype(np.int64) ** 2 + q.astype(np.int64) ** 2
        raw = max(0.0, int(energies[pick % len(energies)]) + offset)
        energy = EnergyConfig(window, raw / fmt.scale**2, min(count, window))
        profiles = [profile("a", 8, 10)]
        regs = build_register_map(profiles, energy, fmt=fmt)
        decoded = _decode_registers(profiles, regs).energy
        expected = oracle_enable(i, q, window, raw, energy.count_threshold)
        assert enable_array(stream, *decoded).tolist() == expected


class TestDecodeMemo:
    """A map keeps its decoded views, one per tuple of the profiles'
    correlator lengths."""

    def setup_method(self):
        self.profiles = [profile("a", 32, 50), profile("b", 40, 60)]
        # a map of this test's own: equal builds share one map and its views
        built = build_register_map(self.profiles, energy=EnergyConfig(16, 0.5, 8))
        self.regs = RegisterMap(built)

    def test_same_map_and_format_share_one_view(self):
        view = _decode_registers(self.profiles, self.regs)
        assert _decode_registers(self.profiles, self.regs) is view
        # the decode reads only lengths: other profiles of the same lengths share it
        others = [profile("c", 32, 7, seed=1), profile("d", 40, 9, seed=1)]
        assert _decode_registers(others, self.regs) is view
        # and no sample format: Q1.15 and Q2.10 runs of one map decode it once
        for fmt in (Q1_15, FixedPointFormat(12, 10)):
            codes = np.zeros(64, dtype=np.int32)
            run_detector_bank(SampleStream(format=fmt, i=codes, q=codes), self.profiles, self.regs)
            DetectorBank(self.profiles, self.regs, fmt)
        assert self.regs._views == {(32, 40): view}
        assert self.regs._views[(32, 40)] is view
        assert view.energy == (16, 1 << 29, 8)  # 0.5 on Q1.15 is 2**29 raw

    def test_each_length_tuple_decodes_its_own_view(self):
        # a 40-point and a 64-point bank both take two words per component
        longer = [self.profiles[0], profile("b", 64, 60)]
        short, long = (_decode_registers(ps, self.regs) for ps in (self.profiles, longer))
        assert short != long
        assert [bank.length for bank in short.banks] == [32, 40]
        assert [bank.length for bank in long.banks] == [32, 64]
        assert (short.arb_window, long.arb_window) == (40, 64)
        assert self.regs._views == {(32, 40): short, (32, 64): long}
        assert _decode_registers(self.profiles, self.regs) is short

    def test_a_written_map_decodes_afresh(self):
        view = _decode_registers(self.profiles, self.regs)
        updated = _decode_registers(self.profiles, self.regs.write("prof0/threshold", 61))
        assert updated is not view
        assert updated.thresholds == (61, 60)
        word = self.regs["prof1/coeff_q/1"] ^ 0x1
        flipped = _decode_registers(self.profiles, self.regs.write("prof1/coeff_q/1", word))
        assert flipped.banks[0] == view.banks[0]
        assert flipped.banks[1].q_words == (view.banks[1].q_words[0], word)
        assert flipped.banks[1].sign_arrays[1][32] == -view.banks[1].sign_arrays[1][32]

    def test_failed_decode_is_not_cached(self):
        bad = self.regs.write("prof1/threshold", 0)
        for pid in ("b", "e", "b"):
            profiles = [self.profiles[0], profile(pid, 40, 60)]
            with pytest.raises(ConfigurationError, match=f"profile '{pid}'"):
                _decode_registers(profiles, bad)
        assert bad._views == {}

    def test_memo_is_invisible(self):
        fresh = RegisterMap(self.regs)
        _decode_registers(self.profiles, self.regs)
        assert self.regs == fresh and list(self.regs) == list(fresh)
        assert pickle.dumps(self.regs) == pickle.dumps(fresh)
        clone = pickle.loads(pickle.dumps(self.regs))
        assert clone == self.regs and list(clone) == list(self.regs)
        # a pickle or a copy carries the values only, and decodes anew
        assert clone._views == {} and copy.copy(self.regs)._views == {}
        assert _decode_registers(self.profiles, clone) == _decode_registers(
            self.profiles, self.regs
        )


class TestBankCache:
    """Equal builds share one register map, and so one decoded view and its
    banks: a map rebuilt for every capture decodes and unpacks nothing
    again."""

    def setup_method(self):
        self.profiles = [profile("a", 32, 50), profile("b", 40, 60)]

    def test_equal_maps_share_their_banks(self):
        built = build_register_map(self.profiles, energy=EnergyConfig(16, 0.5, 8))
        view = _decode_registers(self.profiles, built)
        twins = [profile("a", 32, 50), profile("b", 40, 60)]  # equal, not the same objects
        again = build_register_map(twins, energy=EnergyConfig(16, 0.5, 8))
        assert again is built and _decode_registers(twins, again) is view
        # a map rebuilt by hand keeps its own decode, equal to the shared one
        by_hand = RegisterMap(dict(built))
        assert by_hand is not built and by_hand == built
        assert _decode_registers(self.profiles, by_hand) == view
        # insertion order is not part of the contents
        shuffled = RegisterMap(dict(reversed(list(built.items()))))
        assert _decode_registers(self.profiles, shuffled) == view

    def test_invalid_words_raise_on_every_call(self):
        # bit 8 of the second word is sample 40, past a 40-point bank's end
        for pid in ("b", "e", "b"):
            bad = build_register_map(self.profiles).write("prof1/coeff_i/1", 0x100)
            profiles = [self.profiles[0], profile(pid, 40, 60)]
            with pytest.raises(ConfigurationError, match=f"profile '{pid}'.*40-point"):
                _decode_registers(profiles, bad)
            assert bad._views == {}


# sample thresholds on an eighths grid, so no two configurations and no two
# formats round to one raw register
ENERGIES = st.builds(
    lambda w, k, c: EnergyConfig(w, k / 8, min(c, w)),
    st.integers(1, 32),
    st.integers(1, 16),
    st.integers(0, 32),
)
# thresholds on the Q15 grid the register holds
COARSES = st.builds(
    lambda lag, q, plateau: CoarseConfig(lag, q / (1 << 15), plateau),
    st.integers(1, 32),
    st.integers(0, 1 << 15),
    st.integers(1, 16),
)


class TestMapMemo:
    """Equal calls of ``build_register_map`` share one map; a call that
    differs in any value a register is made from builds its own."""

    PROFILES = (profile("a", 32, 50), profile("b", 64, 100), profile("c", 16, 20))
    FIELDS = {
        "thresholds": st.tuples(*[st.integers(1, 200)] * 3),
        "energy": st.none() | ENERGIES,
        "coarse": st.none() | COARSES,
        "fmt": st.sampled_from((Q1_15, FixedPointFormat(12, 10))),
    }

    def profiles(self, fields):
        return [replace(p, fine_threshold=t) for p, t in zip(self.PROFILES, fields["thresholds"])]

    def build(self, fields):
        return build_register_map(
            self.profiles(fields), fields["energy"], fields["coarse"], fields["fmt"]
        )

    def fresh(self, fields):
        """The map an uncached build makes."""
        entries = tuple((p.fine_threshold, p.bank) for p in self.profiles(fields))
        build = standards._build_register_map.__wrapped__
        return build(entries, fields["energy"], fields["coarse"], fields["fmt"])

    @given(st.fixed_dictionaries(FIELDS), st.data())
    def test_memo_equals_a_fresh_build(self, fields, data):
        regs = self.build(fields)
        assert regs == self.fresh(fields)
        assert self.build(fields) is regs
        name = data.draw(st.sampled_from(sorted(self.FIELDS)))
        other = data.draw(self.FIELDS[name].filter(lambda value: value != fields[name]))
        changed = {**fields, name: other}
        assert self.build(changed) == self.fresh(changed)
        assert self.build(changed) != regs

    def test_cache_is_bounded(self):
        for threshold in range(1, 1001):
            build_register_map([replace(self.PROFILES[0], fine_threshold=threshold)])
        info = standards._build_register_map.cache_info()
        assert info.maxsize == 256 and info.currsize <= 256


class TestProfileWords:
    """A profile packs its preamble's coefficient words once, however many
    register maps are built for it."""

    def test_builds_pack_each_profile_once(self, monkeypatch):
        packed = []

        def counting(preamble):
            packed.append(preamble.length)
            return load_coefficients(preamble)

        monkeypatch.setattr(standards, "load_coefficients", counting)
        profiles = [profile("a", 32, 50), profile("b", 64, 100), profile("c", 16, 20)]
        first, second = (build_register_map(profiles) for _ in range(2))
        assert sorted(packed) == [16, 32, 64]
        expected = {}
        for p, prof in enumerate(profiles):
            bank = load_coefficients(prof.preamble)
            for part, words in (("i", bank.i_words), ("q", bank.q_words)):
                for w, word in enumerate(words):
                    expected[f"prof{p}/coeff_{part}/{w}"] = word
        for regs in (first, second):
            assert {k: v for k, v in regs.items() if "/coeff_" in k} == expected
        assert first == second


class TestDuplicateIds:
    """Profile ids name the outputs of both pipelines, so a repeated id is
    rejected wherever registers are decoded."""

    def setup_method(self):
        self.a, self.b = profile("pn32", 32, 50), profile("pn64", 64, 100)
        self.twins = [self.a, replace(self.b, id="pn32")]
        self.regs = build_register_map(self.twins)

    def test_batch_pipeline_rejects_a_repeated_id(self):
        stream, _ = make_capture(self.b)
        assert run_detector_bank(stream, [self.a, self.b], self.regs)  # decoded and cached
        with pytest.raises(ConfigurationError, match="unique"):
            run_detector_bank(stream, self.twins, self.regs)

    def test_streaming_bank_rejects_a_repeated_id(self):
        DetectorBank([self.a, self.b], self.regs, Q1_15)
        with pytest.raises(ConfigurationError, match="unique"):
            DetectorBank(self.twins, self.regs, Q1_15)


class TestScalabilityEdges:
    def test_longest_profile_map_round_trips(self):
        long = profile("long", MAX_PREAMBLE_LEN, 1000)
        regs = build_register_map([long, profile("short", 32, 50)])
        # threshold, enabled, and 512 coefficient words per component
        assert sum(key.startswith("prof0/") for key in regs) == 1026
        view = _decode_registers([long], regs)
        assert view.banks[0] == long.bank and view.banks[0].length == MAX_PREAMBLE_LEN


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

    @given(st.data())
    def test_permutation_invariant(self, data):
        # few distinct lengths, peaks and indices, so full ties that only
        # registration order can break are common
        lengths = data.draw(st.lists(st.sampled_from((32, 64)), min_size=1, max_size=4))
        profiles = [profile(f"p{k}", n, 10, seed=k) for k, n in enumerate(lengths)]
        stride = data.draw(st.integers(1, 12))
        # one candidate per (profile, peak index), as extraction yields
        keys = data.draw(
            st.lists(
                st.tuples(st.integers(0, len(profiles) - 1), st.integers(0, 3)),
                min_size=1,
                max_size=12,
                unique=True,
            )
        )
        candidates = [
            Candidate(profiles[order], data.draw(st.integers(1, 2)), stride * index, order)
            for order, index in keys
        ]
        winner = arbitrate(candidates)
        arb_window = data.draw(st.integers(0, 16))
        events = events_from_candidates(candidates, arb_window)
        # reversal swaps every pair, so every tie must be broken by the key
        for permuted in (candidates[::-1], data.draw(st.permutations(candidates))):
            assert arbitrate(permuted) is winner
            assert events_from_candidates(permuted, arb_window) == events


class TestEventsFromCandidates:
    # registration order 0..3; two 64-point profiles so length ties occur
    PROFILES = tuple(profile(f"p{k}", n, 10, seed=k) for k, n in enumerate((16, 32, 64, 64)))

    @given(
        specs=st.lists(
            st.tuples(st.integers(0, 3), st.integers(1, 3), st.integers(0, 60)),
            max_size=12,
            unique_by=lambda spec: (spec[0], spec[2]),  # one per (profile, peak index)
        ),
        arb_window=st.integers(0, 16),
        starts=st.none() | st.lists(st.integers(0, 80), unique=True).map(sorted),
        coarse_index=st.none() | st.integers(0, 60),
    )
    @example(specs=[(0, 2, 10), (1, 2, 14)], arb_window=4, starts=None, coarse_index=None)
    @example(specs=[(0, 2, 10)], arb_window=0, starts=[3, 10, 12], coarse_index=None)
    @example(specs=[(0, 2, 10)], arb_window=0, starts=[3], coarse_index=1)
    @example(specs=[(2, 2, 10), (3, 2, 40)], arb_window=4, starts=[20], coarse_index=None)
    @example(specs=[(0, 2, 10)], arb_window=0, starts=[], coarse_index=None)
    def test_matches_the_reference(self, specs, arb_window, starts, coarse_index):
        candidates = [
            Candidate(self.PROFILES[order], peak, index, order) for order, peak, index in specs
        ]
        gate_run_starts = None if starts is None else np.array(starts, dtype=np.intp)
        events = events_from_candidates(candidates, arb_window, gate_run_starts, coarse_index)
        expected = arbitrated_events(candidates, arb_window, starts, coarse_index)
        assert event_tuples(events) == expected
        for event in events:
            assert all(type(v) is int for v in event.stage_trace if v is not None)


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

    def test_largest_holdoff_register(self):
        p = profile("a", 64, 128)
        stream, start = make_capture(p)
        regs = build_register_map([p], energy=EnergyConfig(16, 0.25, 8))
        widest = regs.write("fine/holdoff", 2**32 - 1)
        events = run_detector_bank(stream, [p], widest)
        assert [(e.peak_value, e.peak_index) for e in events] == [(128, start + 63)]
        assert events == run_detector_bank(stream, [p], regs.write("fine/holdoff", len(stream)))

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

    def test_gate_on_without_candidates_returns_no_events(self, monkeypatch):
        listener = profile("listener", 64, 100, seed=1)
        stream, _ = make_capture(profile("intruder", 64, 100, seed=2))
        regs = build_register_map([listener], energy=EnergyConfig(16, 0.25, 8))
        assert enable_array(stream, *_decode_registers([listener], regs).energy).any()  # it runs
        calls = []

        def spy(candidates, arb_window, gate_run_starts=None, coarse_index=None):
            calls.append((list(candidates), gate_run_starts))
            return events_from_candidates(candidates, arb_window, gate_run_starts, coarse_index)

        monkeypatch.setattr(standards, "events_from_candidates", spy)
        assert run_detector_bank(stream, [listener], regs) == []
        # arbitration still runs once; no gate-run starts are built for it
        assert calls == [([], None)]

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

    def test_coarse_stage_gates_fine(self):
        p, stream, regs = repeated_block_capture()
        events = run_detector_bank(stream, [p], regs)
        assert len(events) == 1
        assert events[0].standard_id == "rep"
        assert events[0].stage_trace[1] is not None  # coarse index recorded

    @pytest.mark.parametrize("coarse_on", [False, True])
    def test_stage_trace_names_the_energy_gate_run(self, coarse_on):
        # a loud random burst opens the gate before the repeated block that
        # fires the coarse stage; the trace keeps the energy gate's own start
        half = pn_preamble(16, seed=3).samples
        p = StandardProfile("rep", Preamble(np.concatenate([half, half])), 64)
        burst = pn_preamble(48, seed=8).samples
        clean = np.concatenate([np.zeros(80), burst, p.preamble.samples, np.zeros(96)])
        stream = quantize(clean, Q1_15)
        energy = EnergyConfig(16, 0.25, 8)
        coarse = CoarseConfig(half_period=16, metric_threshold=0.9, plateau_min=2)
        regs = build_register_map([p], energy=energy, coarse=coarse if coarse_on else None)
        events = run_detector_bank(stream, [p], regs)
        assert len(events) == 1
        assert event_tuples(events) == reference_run(stream.codes.T.tolist(), [p], regs)[0]
        gate_index, coarse_index = events[0].stage_trace
        assert not coarse_on or gate_index < coarse_index

    @given(
        raw=st.lists(st.booleans(), min_size=2, max_size=200),
        holdoff=st.integers(0, 300) | st.integers(200, 1000) | st.just(0xFFFFFFFF),
        plateau=st.none() | st.integers(1, 4),
    )
    @example(raw=[True, False, False, True], holdoff=2, plateau=None)  # one latched run
    @example(raw=[True, False, True, True, True], holdoff=3, plateau=2)  # trigger at 2
    def test_gate_index_is_the_latched_run_start(self, raw, holdoff, plateau):
        # A window-1 gate opens exactly on the loud samples, and a 1-point
        # (+, +) profile fires where a run of loud samples starts, so every
        # raw run after the coarse cut yields an event.  With the coarse
        # stage on (plateau not None), M(d) = |y[d]|^2 / |y[d+1]|^2 >= 1
        # fails only where a quiet sample precedes a loud one, so the
        # trigger moves with the data.
        codes = [(1000, 1000) if loud else (-1, -1) for loud in raw]
        p = StandardProfile("one", Preamble([1 + 1j]), 2)
        energy = EnergyConfig(1, 1000 / Q1_15.scale**2, 0)  # raw threshold 1000
        coarse = None if plateau is None else CoarseConfig(1, 1.0, plateau)
        regs = build_register_map([p], energy, coarse).write("fine/holdoff", holdoff)
        events = run_detector_bank(stream_from_codes(codes), [p], regs)
        assert event_tuples(events) == reference_run(codes, [p], regs)[0]

    @given(st.data())
    def test_every_stream_length_takes_each_stage_rule(self, data):
        # streams from empty to three times the longer of the energy window
        # and the coarse stage's 2L: each stage decides them by its own rule,
        # and a stage whose window never fills keeps every event out
        window, lag = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 6))
        n = data.draw(st.integers(0, 3 * max(window, 2 * lag)))
        component = st.integers(-600, 600) | st.integers(-2, 2)
        codes = data.draw(st.lists(st.tuples(component, component), min_size=n, max_size=n))
        i, q = [c[0] for c in codes], [c[1] for c in codes]
        stream = SampleStream(format=Q1_15, i=np.array(i, int), q=np.array(q, int))
        thr_raw = data.draw(st.integers(0, 8) | st.integers(0, 2 * 600**2))
        count = data.draw(st.integers(0, window))
        thr_q15 = data.draw(st.sampled_from([0, 1 << 15]) | st.integers(0, 1 << 16))
        plateau = data.draw(st.integers(1, 4))
        expected = oracle_enable(i, q, window, thr_raw, count)
        assert enable_array(stream, window, thr_raw, count).tolist() == expected
        expected = coarse_trigger_exact(i, q, lag, thr_q15, plateau)
        assert detect_coarse(stream, lag, thr_q15, plateau).first_trigger == expected

        length = data.draw(st.integers(1, 8))
        p = profile("a", length, data.draw(st.integers(1, 2 * length)))
        energy_on, coarse_on = data.draw(st.booleans()), data.draw(st.booleans())
        words = {
            "energy/enabled": energy_on,
            "energy/window_len": window,
            "energy/sample_thresh_raw": thr_raw,
            "energy/count_thresh": count,
            "coarse/enabled": coarse_on,
            "coarse/lag": lag,
            "coarse/thresh_q15": thr_q15,
            "coarse/plateau": plateau,
        }
        regs = RegisterMap({**build_register_map([p]), **words})
        events = run_detector_bank(stream, [p], regs)
        if (energy_on and n < window) or (coarse_on and n < 2 * lag):
            assert events == []
        assert event_tuples(events) == reference_run(codes, [p], regs)[0]

    # EDGE_CODES under EDGE_WORDS: the coarse trigger at 6 cuts the gate's
    # run that opens at 5.  A 1-point (+, +) profile scores re = 2 at 5
    # only, so the cut leaves it no event; a (-, -) one scores 2 from 6 on,
    # and its event's gate index is 5, the start of the uncut run
    @example(codes=EDGE_CODES, specs=[([(1, 1)], 2, True)], words=EDGE_WORDS)
    @example(codes=EDGE_CODES, specs=[([(-1, -1)], 2, True)], words=EDGE_WORDS)
    @given(
        codes=st.builds(
            lambda seed, n: burst_codes(seed, n).tolist(),
            st.integers(0, 2**32 - 1),
            st.integers(0, 120).map(lambda k: 120 - k),  # the longest drawn most
        ),
        specs=st.lists(profile_specs(), min_size=1, max_size=3),
        words=stage_words(),
    )
    @settings(max_examples=300)
    def test_events_equal_the_reference(self, codes, specs, words):
        # random bursts, 1-3 profiles and random words for every stage, the
        # coarse stage on or off
        profiles, blank = blank_map(tuple(len(signs) for signs, _, _ in specs))
        values = {**with_banks(blank, [bank_from_signs(signs) for signs, _, _ in specs]), **words}
        for k, (_, threshold, on) in enumerate(specs):
            values[f"prof{k}/threshold"], values[f"prof{k}/enabled"] = threshold, on
        regs = RegisterMap(values)
        events = run_detector_bank(stream_from_codes(codes), profiles, regs)
        assert event_tuples(events) == reference_run(codes, profiles, regs)[0]

    def test_longest_coarse_words_allocate_nothing_for_them(self):
        p = profile("a", 8, 10)
        regs = build_register_map([p], EnergyConfig(4, 0.25, 1), CoarseConfig(1, 0.5, 1))
        regs = regs.write("coarse/lag", 0xFFFFFFFF).write("coarse/plateau", 0xFFFFFFFF)
        stream = quantize(0.9 * np.ones(16, dtype=complex), Q1_15)
        stream.energy  # built once per stream, whatever the registers
        _decode_registers([p], regs)
        tracemalloc.start()
        try:
            events = run_detector_bank(stream, [p], regs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert events == [] and peak < 1 << 20

    def test_event_and_candidate_fields_are_builtin_ints(self):
        # == cannot tell np.int64 from int, but an event's repr can
        p, stream, regs = repeated_block_capture()
        (event,) = run_detector_bank(stream, [p], regs)
        for value in (event.peak_value, event.peak_index, *event.stage_trace):
            assert type(value) is int
        index, re = SignCorrelator(load_coefficients(p.preamble)).process(stream)
        (candidate,) = _extract_candidates(index, re, 64, p, 0)
        for value in (candidate.peak_value, candidate.peak_index, candidate.order):
            assert type(value) is int

    def test_bank_isolation(self):
        a = profile("a", 32, 50, seed=4)
        b = profile("b", 64, 100, seed=5)
        stream, _ = make_capture(b, snr_db=10.0, seed=77)
        regs_both = build_register_map([a, b], energy=EnergyConfig(16, 0.5, 8))
        regs_a = build_register_map([a], energy=EnergyConfig(16, 0.5, 8))
        events_both = run_detector_bank(stream, [a, b], regs_both)
        events_a = run_detector_bank(stream, [a], regs_a)
        # b wins its own packet; a alone still reports nothing (different preamble)
        assert [e for e in events_both if e.standard_id == "a"] == events_a


def repeated_block_capture():
    """A noiseless packet whose preamble is a repeated block, so the coarse
    stage fires, and a register map with energy and coarse stages on."""
    half = pn_preamble(16, seed=3)
    rep = Preamble(np.concatenate([half.samples, half.samples]))
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

    @pytest.mark.parametrize(
        "index, re, peaks",
        [
            # a tie inside one run: the first maximum wins
            ([3, 4, 5, 6], [5, 7, 7, 6], [(7, 4)]),
            # a gate gap between 5 and 8 splits the run
            ([4, 5, 8, 9], [6, 7, 7, 5], [(7, 5), (7, 8)]),
            # a drop below the threshold at 6 splits the run
            ([4, 5, 6, 7, 8], [5, 6, 4, 9, 5], [(6, 5), (9, 7)]),
            # a run ending at the last position
            ([0, 1, 2, 3], [1, 2, 5, 8], [(8, 3)]),
        ],
    )
    def test_pinned_runs(self, index, re, peaks):
        p = profile("a", 32, 1)
        got = _extract_candidates(np.array(index), np.array(re), 5, p, 0)
        assert [(c.peak_value, c.peak_index) for c in got] == peaks


class TestRegisterWords:
    """The stages read the decoded register words as they are: for random
    words, the batch gate and the coarse trigger equal the oracles fed the
    same integers, and a word no stage can run under is rejected."""

    @given(
        codes=st.lists(
            st.tuples(st.integers(-3, 3), st.integers(-3, 3))
            | st.tuples(st.integers(-600, 600), st.integers(-600, 600)),
            max_size=64,
        ),
        window=st.integers(0, 70) | st.just(MAX_ENERGY_WINDOW + 1),
        thr_raw=st.integers(0, 20) | st.integers(0, 800_000) | st.just(0xFFFFFFFF),
        count_pick=st.integers(0, 70),
        lag=st.integers(0, 33),
        thr_q15=st.integers(0, 1 << 16) | st.integers(0, 0xFFFFFFFF),
        plateau=st.integers(0, 12) | st.just(0xFFFFFFFF),
    )
    @example(  # energies of exactly the threshold stay below it
        codes=[(1, 1)] * 4, window=1, thr_raw=2, count_pick=0, lag=1, thr_q15=0, plateau=1
    )
    def test_stages_equal_the_oracles_fed_the_words(
        self, codes, window, thr_raw, count_pick, lag, thr_q15, plateau
    ):
        # windows and half-periods longer than the stream included
        i, q = [c[0] for c in codes], [c[1] for c in codes]
        stream = SampleStream(format=Q1_15, i=np.array(i, int), q=np.array(q, int))
        count = count_pick % (window + 2)  # now and then one above the window
        words = {
            "energy/window_len": window,
            "energy/sample_thresh_raw": thr_raw,
            "energy/count_thresh": count,
            "coarse/lag": lag,
            "coarse/thresh_q15": thr_q15,
            "coarse/plateau": plateau,
        }
        p = profile("a", 8, 10)
        regs = build_register_map([p], EnergyConfig(), CoarseConfig())
        for key, word in words.items():
            regs = regs.write(key, word)
        if min(window, lag, plateau) < 1 or count > window or window > MAX_ENERGY_WINDOW:
            with pytest.raises(ConfigurationError):
                _decode_registers([p], regs)
            return
        view = _decode_registers([p], regs)
        assert (view.energy, view.coarse) == ((window, thr_raw, count), (lag, thr_q15, plateau))
        expected = oracle_enable(i, q, window, thr_raw, count)
        assert enable_array(stream, *view.energy).tolist() == expected
        expected = coarse_trigger_exact(i, q, lag, thr_q15, plateau)
        assert detect_coarse(stream, *view.coarse).first_trigger == expected


README = Path(__file__).resolve().parent.parent / "README.md"
# each stage row and the range the decode must hold its word to, written out
# rather than read from the table, so that a widened row fails
STAGE_ROWS = {
    "energy/enabled": (0, 0xFFFFFFFF),
    "energy/window_len": (1, 65536),
    "energy/sample_thresh_raw": (0, 0xFFFFFFFF),
    "energy/count_thresh": (0, "energy/window_len"),
    "coarse/enabled": (0, 0xFFFFFFFF),
    "coarse/lag": (1, 0xFFFFFFFF),
    "coarse/thresh_q15": (0, 0xFFFFFFFF),
    "coarse/plateau": (1, 0xFFFFFFFF),
    "fine/holdoff": (0, 0xFFFFFFFF),
}
STREAMING_ONLY = "the streaming bank supports energy + fine only"


class TestRegisterTable:
    """``standards._REGISTERS`` declares every register word once: the build
    writes its keys, the decode checks each word by its row, and README's
    register table prints it."""

    def test_readme_table_is_the_module_table(self):
        rows = []
        for line in README.read_text(encoding="utf-8").splitlines():
            if line.startswith("| `"):
                key, least, most, meaning = (cell.strip() for cell in line.strip("|").split("|"))
                most = most.strip("`") if most.startswith("`") else int(most, 0)
                rows.append((key.strip("`"), (int(least, 0), most, meaning)))
        assert rows == list(standards._REGISTERS.items())

    @pytest.mark.parametrize("lengths", [(1,), (32,), (40, 64), (33, 1, 100)])
    def test_built_keys_are_the_table_keys(self, lengths):
        expected = list(STAGE_ROWS)
        for p, length in enumerate(lengths):
            for row in standards._REGISTERS:
                if row.startswith("prof<p>/"):
                    row = row.replace("<p>", str(p))
                    words = range(-(-length // 32)) if "<w>" in row else [0]
                    expected += [row.replace("<w>", str(w)) for w in words]
        profiles = [profile(f"p{k}", n, 1) for k, n in enumerate(lengths)]
        assert list(build_register_map(profiles)) == expected

    @pytest.mark.parametrize("key", STAGE_ROWS)
    def test_stage_row_takes_its_range(self, key):
        least, most = STAGE_ROWS[key]
        p = profile("a", 32, 50)
        stream, _ = make_capture(p)
        # a count of 0 fits the least window, and the row's stage is on
        streaming = build_register_map([p], energy=EnergyConfig(16, 0.25, 0))
        regs = streaming.write("coarse/enabled", int(key.startswith("coarse/")))
        most = regs[most] if isinstance(most, str) else most

        def errors(m, running):
            """The ConfigurationError text, or None, of each entry point given
            map ``m``; the bank that ``m`` is published to runs ``running``."""
            texts = []
            for call in (
                lambda: run_detector_bank(stream, [p], m),
                lambda: DetectorBank([p], m, Q1_15),
                lambda: DetectorBank([p], running, Q1_15).update_registers(m),
            ):
                try:
                    call()
                    texts.append(None)
                except ConfigurationError as exc:
                    texts.append(str(exc))
            return texts

        for value in (least, most):
            accepted = regs.write(key, value)
            # a publish keeps the energy topology, and the streaming bank
            # takes no coarse stage
            running = accepted.write("coarse/enabled", 0)
            streamed = STREAMING_ONLY if accepted["coarse/enabled"] else None
            assert errors(accepted, running) == [None, streamed, streamed]
        for value in (least - 1, most + 1):
            if 0 <= value <= 0xFFFFFFFF:  # a map holds 32-bit words only
                message = f"register '{key}' must be in [{least}, {most}], not {value}"
                assert errors(regs.write(key, value), streaming) == [message] * 3


class TestRegisterValidation:
    @pytest.mark.parametrize("threshold", [4.0, 1e300, 1.7976931348623157e308])
    def test_energy_threshold_beyond_the_register(self, threshold):
        # 4.0 on Q1.15 is 2**32 raw; larger values overflowed float scaling
        with pytest.raises(ConfigurationError, match="32-bit"):
            build_register_map([profile("a", 32, 50)], energy=EnergyConfig(16, threshold, 8))

    @pytest.mark.parametrize("window", [MAX_ENERGY_WINDOW + 1, 0xFFFFFFFF])
    def test_energy_window_above_the_maximum_allocates_nothing(self, window):
        # the streaming bank's exceedance register would be ``window`` bits
        p = profile("a", 32, 50)
        regs = build_register_map([p], energy=EnergyConfig(16, 0.25, 8))
        bad = regs.write("energy/window_len", window)
        bank = DetectorBank([p], regs, Q1_15)
        tracemalloc.start()
        try:
            with pytest.raises(ConfigurationError, match="energy/window_len"):
                DetectorBank([p], bad, Q1_15)
            with pytest.raises(ConfigurationError, match="energy/window_len"):
                bank.update_registers(bad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        with pytest.raises(ValueError, match=f"window_len must be in .1, {MAX_ENERGY_WINDOW}."):
            EnergyConfig(window, 0.25, 8)

    def test_coarse_threshold_above_one_is_a_word_like_any(self):
        # a loud half, then a quiet half of the same phase: P = 16 * 2 * 2000
        # * 1000 and R = 16 * 2 * 1000**2, so M = 4 at the one position
        p = StandardProfile("one", Preamble([1 + 1j]), 2)
        codes = np.array([2000] * 16 + [1000] * 16, dtype=np.int32)
        stream = SampleStream(format=Q1_15, i=codes, q=codes.copy())
        regs = build_register_map([p], coarse=CoarseConfig(16, 1.0, 1))
        cases = ((3 << 15, 0), (4 << 15, 0), ((4 << 15) + 1, None), (0xFFFFFFFF, None))
        for thr_q15, trigger in cases:
            regs = regs.write("coarse/thresh_q15", thr_q15)
            coarse = _decode_registers([p], regs).coarse
            assert detect_coarse(stream, *coarse).first_trigger == trigger
            events = run_detector_bank(stream, [p], regs)
            assert [e.stage_trace for e in events] == ([] if trigger is None else [(None, 0)])

    def test_no_profiles_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one profile"):
            build_register_map([])
        regs = build_register_map([profile("a", 32, 50)])
        with pytest.raises(ConfigurationError, match="at least one profile"):
            _decode_registers([], regs)


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
        # with no publish, every push equals the reference's record
        codes = burst_codes(seed, length).tolist()
        profiles = [profile(f"p{k}", n, 1, s) for k, (n, s, _) in enumerate(specs)]
        cfg = None
        if energy is not None:
            window, thr_raw, count = energy
            cfg = EnergyConfig(window, thr_raw / Q1_15.scale**2, count % window)
        regs = build_register_map(profiles, energy=cfg).write("fine/holdoff", holdoff)
        for k, (_, _, on) in enumerate(specs):
            regs = regs.write(f"prof{k}/enabled", int(on))
        expected = recorded_partials(reference_run(codes, profiles, regs))
        assert push_partials(profiles, regs, codes) == expected

    def test_energy_thresholds_adopted_mid_stream(self):
        profiles = [profile("a", 16, 20), profile("s", 3, 20)]
        regs_old = build_register_map(profiles, energy=EnergyConfig(8, 0.2, 3))
        regs_old = regs_old.write("fine/holdoff", 0)
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
        codes = stream.codes.T.tolist()
        schedule = [(90, regs_new), (170, regs_old)]
        expected = reference_run(codes, profiles, regs_old, schedule)
        assert push_partials(profiles, regs_old, codes, schedule) == recorded_partials(expected)

        # the capture tells the schedule apart from the plausible wrong ones
        def gate(regs, schedule=()):
            return [raw for raw, _, _ in reference_run(codes, profiles, regs, schedule)[1]]

        back = (170, regs_old)
        wrong = [
            gate(regs_old),  # the new words never adopted
            gate(regs_new),  # the new words from the start
            gate(regs_old, [(90, regs_old.write("energy/sample_thresh_raw", thr_new)), back]),
            gate(regs_old, [(90, regs_old.write("energy/count_thresh", 5)), back]),
        ]
        # and each window compared afresh under the map in force, where each
        # sample should keep the comparison made when it arrived
        old = oracle_enable(stream.i, stream.q, 8, regs_old["energy/sample_thresh_raw"], 3)
        new = oracle_enable(stream.i, stream.q, 8, thr_new, 5)
        wrong.append([new[n] if 90 <= n < 170 else old[n] for n in range(length)])
        assert all(alternative != gate(regs_old, schedule) for alternative in wrong)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("prof0/threshold", 0),
            ("prof0/coeff_i/1", 0xFFFFFFFF),
            ("coarse/enabled", 1),
            ("energy/enabled", 0),
            ("energy/window_len", 8),
        ],
    )
    def test_rejected_publish_keeps_the_current_map(self, key, value):
        p = profile("a", 40, 50)
        profiles = [p, profile("s", 7, 5)]
        regs = build_register_map(profiles, energy=EnergyConfig(16, 0.25, 8))
        stream, start = make_capture(p)
        codes = list(zip(stream.i.tolist(), stream.q.tolist()))
        reference = DetectorBank(profiles, regs, Q1_15)
        expected = [reference.push(i, q) for i, q in codes]

        bank = DetectorBank(profiles, regs, Q1_15)
        half = start + 20  # mid-preamble
        got = [bank.push(i, q) for i, q in codes[:half]]
        with pytest.raises(ConfigurationError):
            bank.update_registers(regs.write(key, value))
        got += [bank.push(i, q) for i, q in codes[half:]]
        assert got == expected
        assert got[start + 39]["a"].re == 80

    def test_profile_enables_adopted_at_the_next_push(self):
        a, b = profile("a", 16, 20), profile("b", 32, 40)
        regs_on = build_register_map([a, b])
        regs_off = regs_on.write("prof1/enabled", 0)
        stream, _ = make_capture(b, pad_before=40, pad_after=40)
        bank = DetectorBank([a, b], regs_on, Q1_15)
        reported = []
        for n in range(len(stream)):
            if n in (50, 100):
                bank.update_registers(regs_off if n == 50 else regs_on)
            out = bank.push(int(stream.i[n]), int(stream.q[n]))
            reported.append((out["a"] is not None, out["b"] is not None))
        expected = [(n >= 15, n >= 31 and not 50 <= n < 100) for n in range(len(stream))]
        assert reported == expected

    def test_each_push_returns_a_fresh_map(self):
        # a one-sample gate with no hold-off is open on the loud samples only
        lengths = {"c": 3, "a": 4, "b": 2}
        profiles = [profile(pid, n, 1) for pid, n in lengths.items()]
        regs = build_register_map(profiles, energy=EnergyConfig(1, 0.25, 0))
        regs = regs.write("fine/holdoff", 0)
        # profile a is disabled until the publish at sample 12, b after it
        bank = DetectorBank(profiles, regs.write("prof1/enabled", 0), Q1_15)
        for t in range(24):
            if t == 12:
                bank.update_registers(regs.write("prof2/enabled", 0))
            loud = t % 3 != 2
            code = 20000 if loud else 100
            out = bank.push(code, -code)
            assert list(out) == ["c", "a", "b"]
            disabled = "a" if t < 12 else "b"
            reporting = {pid for pid, n in lengths.items() if t + 1 >= n and pid != disabled}
            got = {pid for pid, o in out.items() if o is not None}
            assert got == (reporting if loud else set())
            # the map is the caller's: what it does to it reaches no later push
            out.update(c="stale", a="stale", b="stale", extra=None)

    def test_each_record_equals_the_one_init_builds(self):
        # push stores the slots of a bare record; each must be the record
        # __init__ builds from the oracle's partials, in field order
        rng = np.random.default_rng(28)
        banks = [bank_from_signs(rng.choice((-1, 1), size=(2, n)).T) for n in (1, 5, 33)]
        length = 80
        codes = rng.integers(-2, 2, size=(2, length))
        stream = SampleStream(format=Q1_15, i=codes[0], q=codes[1])
        signs = code_signs(stream)
        for bank, outputs in zip(banks, push_run(banks, stream)):
            n = bank.length
            assert [t for t, _ in outputs] == list(range(n - 1, length))
            for t, out in outputs:
                expected = sign_partials(signs[t - n + 1 : t + 1], sign_pairs(bank))
                built = CorrelatorOutput(*expected)
                assert type(out) is CorrelatorOutput
                assert [getattr(out, f.name) for f in fields(out)] == list(expected)
                assert out == built and repr(out) == repr(built)
                assert out.re == out.p_ii + out.p_qq == built.re
                assert gc.is_tracked(out) == gc.is_tracked(built)
                changed = replace(out, p_ii=out.p_ii + 1)
                assert changed == replace(built, p_ii=built.p_ii + 1) and changed != out

    @example(lengths=[1, 31, 32, 33], seed=0, publish_at=40)
    @example(lengths=[33, 1], seed=1, publish_at=0)
    @given(
        st.lists(st.sampled_from((1, 31, 32, 33)), min_size=1, max_size=6),
        st.integers(0, 2**32 - 1),
        st.integers(0, 100),
    )
    def test_mixed_lengths_match_the_oracle(self, lengths, seed, publish_at):
        # profiles of 1, 31, 32 and 33 points read one shared shift register,
        # each its newest n bits, before and after new banks are published
        rng = np.random.default_rng(seed)
        codes = rng.integers(-2, 2, size=(2, 100)).T.tolist()
        banks = [
            [bank_from_signs(rng.choice((-1, 1), size=(2, n)).T) for n in lengths]
            for _ in range(2)
        ]
        profiles, blank = blank_map(tuple(lengths))
        regs, published = (with_banks(blank, bank_set) for bank_set in banks)
        schedule = [(publish_at, published)]
        expected = recorded_partials(reference_run(codes, profiles, regs, schedule))
        assert push_partials(profiles, regs, codes, schedule) == expected

    @example(lengths=[7, 8, 15], window=16, seed=0, holdoff=0)
    @example(lengths=[1, 2, 3, 8], window=None, seed=1, holdoff=0)
    @example(lengths=[3, 9], window=5, seed=2, holdoff=2)
    @given(
        st.lists(st.integers(1, 16), min_size=1, max_size=4),
        st.none() | st.integers(1, 24),
        st.integers(0, 2**32 - 1),
        st.integers(0, 3),
    )
    @settings(max_examples=150)
    def test_publishes_during_the_fill_match_the_oracle(self, lengths, window, seed, holdoff):
        # before each sample until the bank is full, and at random samples
        # after it, a publish gives each profile one of two banks and turns
        # it on or off; with a gate, it also draws the gate's thresholds
        # and the hold-off.  A gate whose window outlasts every profile's
        # arms after the taps, and hides them until it does; with no gate
        # or a short one, each tap is seen to arm
        full = max(window or 0, *lengths)
        rng = np.random.default_rng(seed)
        length = full + 40
        loud = rng.random(length) < 0.8
        codes = rng.integers(-128, 129, size=(2, length))
        codes = np.where(loud, np.where(codes < 0, -(1 << 14), 1 << 14) + codes, codes)
        banks = [
            [bank_from_signs(rng.choice((-1, 1), size=(2, n)).T) for n in lengths]
            for _ in range(2)
        ]
        profiles, _ = blank_map(tuple(lengths))
        energy = window and EnergyConfig(window, 0.25, int(rng.integers(window)))
        regs = build_register_map(profiles, energy=energy).write("fine/holdoff", holdoff)
        schedule = []
        for t in range(length):
            if t < full or rng.random() < 0.2:
                words = {f"prof{k}/enabled": rng.random() < 0.7 for k in range(len(lengths))}
                if window and rng.random() < 0.5:
                    words["energy/sample_thresh_raw"] = int(rng.integers(1 << 30))
                    words["energy/count_thresh"] = int(rng.integers(window))
                    words["fine/holdoff"] = int(rng.integers(4))
                published = with_banks(regs, banks[rng.integers(2)])
                schedule.append((t, RegisterMap({**published, **words})))
        codes = codes.T.tolist()
        expected = recorded_partials(reference_run(codes, profiles, regs, schedule))
        assert push_partials(profiles, regs, codes, schedule) == expected

    def test_longest_bank_beside_a_short_one(self):
        # a 16,384-point bank widens the shared register to its limit; the
        # 32-point bank beside it still reads only its newest 32 bits
        long_n = MAX_PREAMBLE_LEN
        rng = np.random.default_rng(16384)
        banks = [bank_from_signs(rng.choice((-1, 1), size=(2, n)).T) for n in (long_n, 32)]
        length = long_n + 40
        codes = rng.integers(-2, 2, size=(2, length))
        stream = SampleStream(format=Q1_15, i=codes[0], q=codes[1])
        signs = code_signs(stream)
        refs = [sign_pairs(bank) for bank in banks]

        short_stream = SampleStream(format=Q1_15, i=codes[0, :100], q=codes[1, :100])
        long_out, short_out = push_run(banks, short_stream)
        assert long_out == [] and [t for t, _ in short_out] == list(range(31, 100))
        long_out, short_out = push_run(banks, stream)
        assert [t for t, _ in short_out] == list(range(31, length))
        assert [t for t, _ in long_out] == list(range(long_n - 1, length))
        for t, out in short_out[:100] + short_out[-100:]:
            assert partials(out) == sign_partials(signs[t - 31 : t + 1], refs[1])
        for t, out in (long_out[0], long_out[17], long_out[-1]):
            assert partials(out) == sign_partials(signs[t - long_n + 1 : t + 1], refs[0])
        for bank, outputs in zip(banks, (long_out, short_out)):
            assert same_outputs(as_outputs(outputs), SignCorrelator(bank).process(stream))

    @example(seed=2, publish_at=[0, 1, 15, 16, 17, 60])
    @example(seed=3, publish_at=list(range(200)))
    @given(
        st.integers(0, 2**32 - 1),
        st.lists(st.integers(0, 199), max_size=12) | st.just(list(range(200))),
    )
    def test_publishing_the_map_in_force_changes_nothing(self, seed, publish_at):
        # a publish swaps the configuration only: the sign and exceedance
        # windows, the samples seen and the hold-off count carry on
        profiles = [profile("a", 8, 1, 1), profile("b", 40, 1, 2)]
        regs, same = (
            build_register_map(profiles, energy=EnergyConfig(16, 0.05, 6)).write("fine/holdoff", 5)
            for _ in range(2)
        )
        codes = burst_codes(seed, 200).tolist()
        reference = DetectorBank(profiles, regs, Q1_15)
        expected = [reference.push(i, q) for i, q in codes]
        bank = DetectorBank(profiles, regs, Q1_15)
        got = []
        for t, (i, q) in enumerate(codes):
            if t in publish_at:
                bank.update_registers(same)
            got.append(bank.push(i, q))
        assert got == expected

    def test_push_takes_integer_codes_only(self):
        p = profile("a", 1, 1)
        regs = build_register_map([p], energy=EnergyConfig(1, 0.5, 0)).write("fine/holdoff", 0)
        bank = DetectorBank([p], regs, Q1_15)
        # 0.9 and -0.9 would truncate to energy 0 and keep the gate shut
        for i, q in ((0.9, -0.9), (1.0, 0), (0, "1"), (None, 0), (np.float32(1), 0)):
            with pytest.raises(TypeError):
                bank.push(i, q)
        loud = Q1_15.max_code
        assert bank.push(np.int16(loud), np.int64(-loud))["a"] is not None
        assert bank.push(True, False)["a"] is None  # bools are the codes 1 and 0

    @pytest.mark.parametrize(
        "fmt, bad_codes",
        [(Q1_15, (32768, 1 << 40, -32769, -(1 << 40))), (FixedPointFormat(12, 10), (2048, -2049))],
        ids=["q1.15", "q2.10"],
    )
    def test_push_rejects_codes_outside_the_format(self, fmt, bad_codes):
        profiles = [profile("a", 8, 10), profile("b", 3, 4)]
        regs = build_register_map(profiles, energy=EnergyConfig(4, 0.0, 1), fmt=fmt)
        regs = regs.write("fine/holdoff", 2)
        lo, hi = fmt.min_code, fmt.max_code
        codes = [(lo, hi), (hi, lo), (0, -1), (hi, hi), (lo, lo), (1, 0), (-1, 0)] * 3
        rejecting, clean = (DetectorBank(profiles, regs, fmt) for _ in range(2))
        for i, q in codes:
            # a rejected code, in either component, leaves no trace in the bank
            for bad in bad_codes:
                for pair in ((bad, i), (q, bad)):
                    with pytest.raises(ValueError, match="out of range"):
                        rejecting.push(*pair)
            assert rejecting.push(i, q) == clean.push(i, q)

    def test_a_filling_bank_is_freed_when_dropped(self):
        # the bank holds no bound method of itself, so with the collector
        # off a bank whose windows are still filling is freed at once
        profiles = [profile("a", 40, 50), profile("s", 3, 5)]
        regs = build_register_map(profiles, energy=EnergyConfig(16, 0.25, 8))
        enabled = gc.isenabled()
        gc.disable()
        try:
            for pushes in (0, 20):
                bank = DetectorBank(profiles, regs, Q1_15)
                for _ in range(pushes):
                    bank.push(20000, -20000)
                assert "push" not in vars(bank)
                alive = weakref.ref(bank)
                del bank
                assert alive() is None
        finally:
            if enabled:
                gc.enable()

    def test_register_adoption_is_atomic(self):
        # two sentinel banks: all-positive signs vs all-negative signs, read
        # beside a longer all-positive bank that no publish touches
        ones = profile_from_signs("ones", [+1] * 32)
        wide = profile_from_signs("wide", [+1] * 48)
        regs_old = build_register_map([ones, wide])
        neg_bank = load_coefficients(pn_from_signs([-1] * 32))
        regs_new = regs_old
        for w, word in enumerate(neg_bank.i_words):
            regs_new = regs_new.write(f"prof0/coeff_i/{w}", word)
        for w, word in enumerate(neg_bank.q_words):
            regs_new = regs_new.write(f"prof0/coeff_q/{w}", word)

        stream = quantize(0.5 * np.ones(96) + 0.5j * np.ones(96), Q1_15)
        bank = DetectorBank([ones, wide], regs_old, Q1_15)
        outputs, wide_re = [], []
        for n in range(len(stream)):
            if n == 48:
                bank.update_registers(regs_new)  # published mid-stream
            out = bank.push(int(stream.i[n]), int(stream.q[n]))
            if out["ones"] is not None:
                outputs.append(out["ones"])
            if out["wide"] is not None:
                wide_re.append(out["wide"].re)
        assert wide_re == [96] * (len(stream) - 47)
        # all-positive input: old bank scores +64, new bank scores -64, a torn
        # bank would land strictly between
        assert set(o.re for o in outputs) == {64, -64}
        for o in outputs:
            assert abs(o.p_ii) == 32 and abs(o.p_qq) == 32


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


def pn_from_signs(signs):
    samples = np.array([s * (1 + 1j) for s in signs], dtype=complex) / math.sqrt(2)
    return Preamble(samples)


def profile_from_signs(name, signs, threshold=50):
    preamble = pn_from_signs(signs)
    return StandardProfile(id=name, preamble=preamble, fine_threshold=threshold)
