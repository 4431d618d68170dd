import math
import os
from dataclasses import replace
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pktdet import standards
from pktdet.coarse import CoarseConfig, detect_coarse
from pktdet.correlator import SignCorrelator, latch_enable, load_coefficients
from pktdet.energy import EnergyConfig, enable_array
from pktdet.harness import scenario_profiles
from pktdet.signal import (
    MAX_PREAMBLE_LEN,
    FixedPointFormat,
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
    _decode_registers,
    _extract_candidates,
    build_register_map,
    events_from_candidates,
    run_detector_bank,
)

from oracles import (
    arbitrated_events,
    latched_run_starts,
    oracle_enable,
    plateau_scan,
    run_peaks,
    schmidl_point,
    sign_partials,
)
from streaming import as_outputs, push_run, same_outputs, sign_pairs


def profile(pid, length, threshold, seed=0):
    return StandardProfile(
        id=pid,
        preamble=pn_preamble(length, (seed, length)),
        fine_threshold=threshold,
    )


def make_capture(tx, pad_before=80, pad_after=96, snr_db=math.inf, seed=0):
    clean, start = embed_preamble(tx.preamble, pad_before, pad_after)
    noisy = add_awgn(clean, snr_db, seed, tx.preamble.mean_power)
    return quantize(noisy, Q1_15), start


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
            "prof0/threshold",
            "prof0/enabled",
            "prof0/coeff_i/0",
            "prof0/coeff_i/1",
            "prof0/coeff_q/0",
            "prof0/coeff_q/1",
        }
        assert set(regs) == expected


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
        holdoff = data.draw(st.none() | st.integers(0, 1000))
        regs = build_register_map(profiles, energy, coarse, holdoff, fmt)
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
    """The decoded view is cached on the register contents and the profiles'
    correlator lengths."""

    def setup_method(self):
        self.profiles = [profile("a", 32, 50), profile("b", 40, 60)]
        self.regs = build_register_map(self.profiles, energy=EnergyConfig(16, 0.5, 8))

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
        key = (self.regs._key, (32, 40))
        assert [k for k in standards._VIEWS if k[0] == self.regs._key] == [key]
        assert standards._VIEWS[key] is view
        assert view.energy == (16, 1 << 29, 8)  # 0.5 on Q1.15 is 2**29 raw

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
        assert all(key[0] != bad._key for key in standards._VIEWS)

    def test_memo_is_invisible(self):
        fresh = RegisterMap(self.regs)
        _decode_registers(self.profiles, self.regs)
        assert self.regs == fresh and list(self.regs) == list(fresh)
        assert pickle.dumps(self.regs) == pickle.dumps(fresh)
        clone = pickle.loads(pickle.dumps(self.regs))
        assert clone == self.regs and list(clone) == list(self.regs)
        assert _decode_registers(self.profiles, clone) == _decode_registers(
            self.profiles, self.regs
        )

    def test_a_map_loaded_under_another_hash_seed_keys_alike(self, tmp_path):
        # string hashes differ between processes: a loaded map's key must
        # equal the key of a map built there, and find the same cached view
        view = _decode_registers(self.profiles, self.regs)
        dump = tmp_path / "regs.pickle"
        dump.write_bytes(pickle.dumps((self.profiles, self.regs, view)))
        script = "\n".join(
            [
                "import pickle, sys",
                "from pktdet.standards import RegisterMap, _decode_registers",
                "profiles, regs, view = pickle.loads(open(sys.argv[1], 'rb').read())",
                "fresh = RegisterMap(dict(regs))",
                "assert regs._key == fresh._key",
                "assert _decode_registers(profiles, fresh) == view",
                "assert _decode_registers(profiles, regs) is "
                "_decode_registers(profiles, fresh)",
            ]
        )
        src = str(Path(standards.__file__).parents[1])
        for seed in ("0", "1"):  # at least one differs from this process's
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            run = subprocess.run(
                [sys.executable, "-c", script, str(dump)], env=env, capture_output=True, text=True
            )
            assert run.returncode == 0, run.stderr


class TestBankCache:
    """Equal register maps share one decoded view and its banks, so a map
    rebuilt for every capture decodes and unpacks nothing again."""

    def setup_method(self):
        self.profiles = [profile("a", 32, 50), profile("b", 40, 60)]

    def test_equal_maps_share_their_banks(self):
        built = build_register_map(self.profiles, energy=EnergyConfig(16, 0.5, 8))
        # equal builds share one map, so a copy stands for a second equal map
        copy = RegisterMap(dict(built))
        assert copy is not built and copy == built
        first, second = (_decode_registers(self.profiles, regs) for regs in (built, copy))
        assert first is second
        # insertion order is not part of the contents
        shuffled = RegisterMap(dict(reversed(list(built.items()))))
        assert _decode_registers(self.profiles, shuffled) is first

    def test_invalid_words_raise_on_every_call(self):
        # bit 8 of the second word is sample 40, past a 40-point bank's end
        for pid in ("b", "e", "b"):
            bad = build_register_map(self.profiles).write("prof1/coeff_i/1", 0x100)
            profiles = [self.profiles[0], profile(pid, 40, 60)]
            with pytest.raises(ConfigurationError, match=f"profile '{pid}'.*40-point"):
                _decode_registers(profiles, bad)
            assert all(key[0] != bad._key for key in standards._VIEWS)

    def test_cache_is_bounded(self):
        regs = build_register_map(self.profiles[:1])
        for word in range(1000):
            _decode_registers(self.profiles[:1], regs.write("prof0/coeff_i/0", word))
        assert len(standards._VIEWS) <= standards._VIEWS_CACHED


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
        # 128 is the default, twice the longest correlator, so None builds it
        "holdoff": st.none() | st.integers(0, 1000).filter(lambda h: h != 128),
        "fmt": st.sampled_from((Q1_15, FixedPointFormat(12, 10))),
    }

    def build(self, fields, build=build_register_map):
        thresholds = fields["thresholds"]
        profiles = [replace(p, fine_threshold=t) for p, t in zip(self.PROFILES, thresholds)]
        return build(profiles, fields["energy"], fields["coarse"], fields["holdoff"], fields["fmt"])

    @given(st.fixed_dictionaries(FIELDS), st.data())
    def test_memo_equals_a_fresh_build(self, fields, data):
        regs = self.build(fields)
        assert regs == self.build(fields, standards._build_register_map)
        assert self.build(fields) is regs
        name = data.draw(st.sampled_from(sorted(self.FIELDS)))
        other = data.draw(self.FIELDS[name].filter(lambda value: value != fields[name]))
        changed = {**fields, name: other}
        assert self.build(changed) == self.build(changed, standards._build_register_map)
        assert self.build(changed) != regs

    @pytest.mark.parametrize("floated", [40.0, np.float64(40.0)], ids=["holdoff", "holdoff-numpy"])
    def test_a_float_never_finds_the_int_map(self, floated):
        # 40.0 == 40 as keys go, but only an int makes a register (profiles
        # and stage configurations turn their integer fields into ints when
        # built, so holdoff is the one value checked at the call)
        profiles = [profile("a", 32, 50)]
        build_register_map(profiles, holdoff=40)
        with pytest.raises(ConfigurationError, match="not an integer"):
            build_register_map(profiles, holdoff=floated)

    def test_cache_is_bounded(self):
        for holdoff in range(1000):
            build_register_map(self.PROFILES[:1], holdoff=holdoff)
        assert len(standards._MAPS) <= standards._VIEWS_CACHED


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
        got = [(e.standard_id, e.peak_value, e.peak_index, e.stage_trace) for e in events]
        assert got == arbitrated_events(candidates, arb_window, starts, coarse_index)
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
        (event,) = run_detector_bank(stream, [p], regs)
        view = _decode_registers([p], regs)
        gate = latch_enable(enable_array(stream, *view.energy), view.holdoff)
        starts = [n for n in range(event.peak_index + 1) if gate[n] and (n == 0 or not gate[n - 1])]
        coarse_index = detect_coarse(stream, *view.coarse).first_trigger if coarse_on else None
        assert event.stage_trace == (starts[-1], coarse_index)
        assert not coarse_on or starts[-1] < coarse_index

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
        # raw run yields an event.  With the coarse stage on (plateau not
        # None), M(d) = |y[d]|^2 / |y[d+1]|^2 >= 1 fails only where a quiet
        # sample precedes a loud one, so the trigger moves with the data.
        codes = np.where(raw, 1000, -1).astype(np.int32)
        stream = SampleStream(format=Q1_15, i=codes, q=codes.copy())
        p = StandardProfile("one", Preamble([1 + 1j]), 2)
        energy = EnergyConfig(1, 1000 / Q1_15.scale**2, 0)  # raw threshold 1000
        coarse = None if plateau is None else CoarseConfig(1, 1.0, plateau)
        regs = build_register_map([p], energy, coarse, holdoff)
        events = run_detector_bank(stream, [p], regs)
        coarse_index = None
        if coarse is not None:
            coarse_index = detect_coarse(stream, 1, 1 << 15, plateau).first_trigger
        if coarse is not None and coarse_index is None:
            assert events == []
            return
        first = coarse_index or 0
        loud = [k for k in range(first, len(raw)) if raw[k] and (k == first or not raw[k - 1])]
        assert [e.peak_index for e in events] == loud
        starts = latched_run_starts(raw, holdoff)
        for event in events:
            gate_index = max(k for k in starts if k <= event.peak_index)
            assert event.stage_trace == (gate_index, coarse_index)

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
            min_size=2,
            max_size=64,
        ),
        window=st.integers(0, 70),
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
        # codes of at most 600 keep |P|**2 and R**2 below 2**53, so the
        # float metric of both the package and the oracle is the correctly
        # rounded quotient of the exact integers
        i, q = [c[0] for c in codes], [c[1] for c in codes]
        stream = SampleStream(format=Q1_15, i=np.array(i), q=np.array(q))
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
        if min(window, lag, plateau) < 1 or count > window:
            with pytest.raises(ConfigurationError):
                _decode_registers([p], regs)
            return
        view = _decode_registers([p], regs)
        assert (view.energy, view.coarse) == ((window, thr_raw, count), (lag, thr_q15, plateau))
        n = len(stream)
        if window <= n:
            expected = oracle_enable(i, q, window, thr_raw, count)
            assert enable_array(stream, *view.energy).tolist() == expected
        if 2 * lag <= n:
            metric = []
            for d in range(n - 2 * lag + 1):
                p_re, p_im, r = schmidl_point(i, q, lag, d)
                metric.append((p_re**2 + p_im**2) / r**2 if r else 0.0)
            expected = plateau_scan(metric, thr_q15 / 2**15, plateau)
            assert detect_coarse(stream, *view.coarse).first_trigger == expected


class TestRegisterValidation:
    def test_garbage_coefficient_word(self):
        p = profile("a", 40, 50)  # 40-point bank: 8 valid bits in the last word
        regs = build_register_map([p])
        bad = regs.write("prof0/coeff_i/1", 0xFFFFFFFF)
        stream, _ = make_capture(p)
        with pytest.raises(ConfigurationError):
            run_detector_bank(stream, [p], bad)

    @pytest.mark.parametrize("threshold", [4.0, 1e300, 1.7976931348623157e308])
    def test_energy_threshold_beyond_the_register(self, threshold):
        # 4.0 on Q1.15 is 2**32 raw; larger values overflowed float scaling
        with pytest.raises(ConfigurationError, match="32-bit"):
            build_register_map([profile("a", 32, 50)], energy=EnergyConfig(16, threshold, 8))

    # each map is bad in the named word alone; a disabled stage's words go
    # unread, so the coarse cases turn the stage on
    @pytest.mark.parametrize(
        "key, words",
        [
            ("energy/window_len", {"energy/window_len": 0, "energy/count_thresh": 0}),
            ("energy/count_thresh", {"energy/count_thresh": 17}),  # a 16-sample window
            ("coarse/lag", {"coarse/lag": 0, "coarse/enabled": 1}),
            ("coarse/plateau", {"coarse/plateau": 0, "coarse/enabled": 1}),
        ],
        ids=["window", "count", "lag", "plateau"],
    )
    def test_bad_stage_word_is_rejected_by_key(self, key, words):
        p = profile("a", 32, 50)
        stream, _ = make_capture(p)
        regs = build_register_map([p], energy=EnergyConfig(16, 0.25, 8))
        bad = RegisterMap({**regs, **words})
        with pytest.raises(ConfigurationError, match=key):
            run_detector_bank(stream, [p], bad)
        with pytest.raises(ConfigurationError, match=key):
            DetectorBank([p], bad, Q1_15)
        with pytest.raises(ConfigurationError, match=key):
            DetectorBank([p], regs, Q1_15).update_registers(bad)

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
        cfg = raw = None
        if energy is not None:
            window, thr_raw, count = energy
            cfg = EnergyConfig(window, thr_raw / Q1_15.scale**2, count % window)
            raw = enable_array(stream, window, thr_raw, count % window)
        regs = build_register_map(profiles, energy=cfg, holdoff=holdoff)
        for k, (_, _, on) in enumerate(specs):
            regs = regs.write(f"prof{k}/enabled", int(on))

        bank = DetectorBank(profiles, regs, Q1_15)
        pushed = [bank.push(int(i), int(q)) for i, q in zip(stream.i, stream.q)]

        if raw is None:
            raw = np.ones(len(stream), dtype=bool)
        enable = latch_enable(raw, regs.read("fine/holdoff"))
        for p, (_, _, on) in zip(profiles, specs):
            batch = SignCorrelator(load_coefficients(p.preamble)).process(stream, enable & on)
            streamed = [(n, out[p.id]) for n, out in enumerate(pushed) if out[p.id] is not None]
            assert same_outputs(as_outputs(streamed), batch)

    def test_energy_thresholds_adopted_mid_stream(self):
        p, short = profile("a", 16, 20), profile("s", 3, 20)
        w = 8
        regs_old = build_register_map([p, short], energy=EnergyConfig(w, 0.2, 3), holdoff=0)
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

        bank = DetectorBank([p, short], regs_old, Q1_15)
        streamed = {"a": [], "s": []}
        for n in range(length):
            if n in publish:
                bank.update_registers(publish[n])
            for pid, out in bank.push(int(stream.i[n]), int(stream.q[n])).items():
                if out is not None:
                    streamed[pid].append((n, out))

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
        for q in (p, short):
            batch = SignCorrelator(q.bank).process(stream, expected)
            assert same_outputs(as_outputs(streamed[q.id]), batch)
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
        length = 100
        codes = rng.integers(-2, 2, size=(2, length))
        stream = SampleStream(format=Q1_15, i=codes[0], q=codes[1])
        signs = [(1 if i >= 0 else -1, 1 if q >= 0 else -1) for i, q in codes.T.tolist()]
        banks = [[random_bank(rng, n) for n in lengths] for _ in range(2)]
        pushed = push_run(banks[0], stream, publish={publish_at: banks[1]})
        for k, (n, outputs) in enumerate(zip(lengths, pushed)):
            assert [t for t, _ in outputs] == list(range(n - 1, length))
            for t, out in outputs:
                ref = sign_pairs(banks[t >= publish_at][k])
                assert partials(out) == sign_partials(signs[t - n + 1 : t + 1], ref)
        # and the batch path agrees with a run under one map
        for k, outputs in enumerate(push_run(banks[0], stream)):
            assert same_outputs(as_outputs(outputs), SignCorrelator(banks[0][k]).process(stream))

    def test_longest_bank_beside_a_short_one(self):
        # a 16,384-point bank widens the shared register to its limit; the
        # 32-point bank beside it still reads only its newest 32 bits
        long_n = MAX_PREAMBLE_LEN
        rng = np.random.default_rng(16384)
        banks = [random_bank(rng, long_n), random_bank(rng, 32)]
        length = long_n + 40
        codes = rng.integers(-2, 2, size=(2, length))
        stream = SampleStream(format=Q1_15, i=codes[0], q=codes[1])
        signs = [(1 if i >= 0 else -1, 1 if q >= 0 else -1) for i, q in codes.T.tolist()]
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
            build_register_map(profiles, energy=EnergyConfig(16, 0.05, 6), holdoff=5)
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
        regs = build_register_map([p], energy=EnergyConfig(1, 0.5, 0), holdoff=0)
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
        regs = build_register_map(profiles, energy=EnergyConfig(4, 0.0, 1), holdoff=2, fmt=fmt)
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


def random_bank(rng, n):
    """A coefficient bank of ``n`` random sign pairs."""
    signs = rng.choice((-1.0, 1.0), size=(2, n))
    return load_coefficients(Preamble(signs[0] + 1j * signs[1]))


def partials(out):
    return out.p_ii, out.p_qq, out.p_qi, out.p_iq


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
