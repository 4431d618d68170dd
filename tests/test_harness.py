import math
import pickle
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from pktdet import harness
from pktdet.harness import (
    SweepConfig,
    TrialOutcome,
    default_sweep_config,
    run_scope_scenario,
    run_sweep,
    run_trial,
    scenario_profiles,
)
from pktdet.signal import Q1_15, Preamble, add_awgn, pn_preamble, quantize, seed_words
from pktdet.standards import Candidate, StandardProfile, build_register_map

from oracles import float_xcorr_argmax, reference_run


def tiny_config(**overrides):
    defaults = dict(
        profiles=scenario_profiles(seed=7),
        transmitted_profile_id="pn64a",
        snr_points_db=(6.0, 10.0),
        trials_per_point=8,
        seed=7,
        pad_before_range=(32, 96),
        pad_after=64,
    )
    defaults.update(overrides)
    return SweepConfig(**defaults)


class TestRunTrial:
    def test_noiseless_trial_is_correct(self):
        cfg = tiny_config()
        assert run_trial(cfg, math.inf, (7, 0, 0)) is TrialOutcome.CORRECT

    def test_unreachable_thresholds_miss(self):
        profiles = tuple(
            StandardProfile(
                id=p.id,
                preamble=p.preamble,
                fine_threshold=2 * p.correlator_len + 1,  # above the ideal maximum
            )
            for p in scenario_profiles(seed=7)
        )
        cfg = tiny_config(profiles=profiles)
        assert run_trial(cfg, math.inf, (7, 0, 0)) is TrialOutcome.MISSED

    def test_another_standard_winning_is_a_false_standard(self):
        # the long reference is 32 silent samples (codes of 0 count as +1)
        # then the short one, so it matches the short preamble after its
        # zero pad, as well as the short reference does; the longer
        # correlator wins arbitration
        short = pn_preamble(32, (3, 0))
        long = Preamble(np.concatenate([np.full(32, 1 + 1j), short.samples]))
        profiles = (StandardProfile("short", short, 60), StandardProfile("long", long, 120))
        cfg = tiny_config(profiles=profiles, transmitted_profile_id="short")
        assert run_trial(cfg, math.inf, (7, 0, 0)) is TrialOutcome.FALSE_STANDARD
        cfg = replace(cfg, snr_points_db=(math.inf,), trials_per_point=3)
        (row,) = run_sweep(cfg).rows
        assert (row.correct, row.missed, row.false_standard) == (0, 0, 3)

    def test_register_map_built_once_per_config(self, monkeypatch):
        built = []

        def counting_build(*args, **kwargs):
            built.append(args)
            return build_register_map(*args, **kwargs)

        monkeypatch.setattr(harness, "build_register_map", counting_build)
        cfg = tiny_config(snr_points_db=(4.0, 8.0), trials_per_point=3)
        run_sweep(cfg)
        assert len(built) == 1
        # a replaced config builds its own map; a pickled one keeps its map
        other = replace(cfg, energy=None)
        assert other.registers.read("energy/enabled") == 0
        assert cfg.registers.read("energy/enabled") == 1
        assert pickle.loads(pickle.dumps(cfg)).registers == cfg.registers
        assert len(built) == 2

    def test_fixed_seed_reproduces_outcome(self):
        cfg = tiny_config()
        seed = (7, 3, 11)
        assert run_trial(cfg, 2.0, seed) is run_trial(cfg, 2.0, seed)


WORD_EDGES = (0, 2**32 - 1, 2**32, 2**64 + 5)


class TestSeedWords:
    @given(
        st.tuples(*[st.sampled_from(WORD_EDGES) | st.integers(0, 2**80)] * 3),
    )
    @example((0, 0, 0))
    @example((2**32 - 1, 2**32, 2**64 + 5))
    @example((7, 0, 2**32))
    def test_words_draw_the_tuple_stream(self, values):
        words = seed_words(*values)
        assert words.dtype == np.uint32
        by_words, by_tuple = np.random.default_rng(words), np.random.default_rng(values)
        assert by_words.integers(0, 2**63, 6).tolist() == by_tuple.integers(0, 2**63, 6).tolist()
        assert by_words.normal(size=6).tolist() == by_tuple.normal(size=6).tolist()

    @pytest.mark.parametrize("seed", WORD_EDGES)
    def test_sweep_point_seeds_each_trial_with_its_tuple_stream(self, monkeypatch, seed):
        seeds = []
        monkeypatch.setattr(harness, "run_trial", lambda cfg, snr_db, s: seeds.append(s))
        harness._sweep_point((tiny_config(seed=seed, trials_per_point=3), 5, 0.0))
        assert len(seeds) == 3
        for t, trial_seed in enumerate(seeds):
            assert trial_seed.dtype == np.uint32
            drawn = np.random.default_rng(trial_seed).integers(0, 2**63, 4)
            expected = np.random.default_rng((seed, 5, t)).integers(0, 2**63, 4)
            assert drawn.tolist() == expected.tolist()

    @pytest.mark.parametrize("seed", [0, 7, 2**32 + 5])
    def test_scenario_preambles_draw_the_tuple_stream(self, seed):
        profiles = scenario_profiles(seed)
        assert [(p.id, p.correlator_len, p.fine_threshold) for p in profiles] == [
            ("pn32", 32, 50),
            ("pn64a", 64, 100),
            ("pn64b", 64, 100),
        ]
        for k, p in enumerate(profiles):
            by_tuple = pn_preamble(p.correlator_len, (seed, k))
            assert p.preamble.samples.tolist() == by_tuple.samples.tolist()

    @pytest.mark.parametrize("value", WORD_EDGES)
    def test_one_value_draws_the_int_stream(self, value):
        drawn = np.random.default_rng(seed_words(value)).integers(0, 2**63, 4)
        assert drawn.tolist() == np.random.default_rng(value).integers(0, 2**63, 4).tolist()

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            scenario_profiles(-1)
        with pytest.raises(ValueError, match="seed must be non-negative, got -3"):
            seed_words(2, -3)


class TestRunSweep:
    def test_noise_free_probability_is_one(self):
        cfg = tiny_config(snr_points_db=(math.inf, math.inf), trials_per_point=1)
        result = run_sweep(cfg)
        assert [row.probability for row in result.rows] == [1.0, 1.0]

    def test_counts_partition_and_recount(self):
        cfg = tiny_config(snr_points_db=(0.0, 10.0), trials_per_point=30)
        result = run_sweep(cfg)
        for row, point in zip(result.rows, result.outcomes):
            assert row.trials == len(point) == cfg.trials_per_point
            assert row.correct + row.missed + row.false_standard == row.trials
            assert row.correct == sum(1 for o in point if o is TrialOutcome.CORRECT)
            assert row.missed == sum(1 for o in point if o is TrialOutcome.MISSED)
            assert row.false_standard == sum(
                1 for o in point if o is TrialOutcome.FALSE_STANDARD
            )
            assert row.probability == row.correct / row.trials

    def test_rows_follow_requested_snr_order(self):
        cfg = tiny_config(snr_points_db=(10.0, -4.0, 2.0), trials_per_point=3)
        result = run_sweep(cfg)
        assert [row.snr_db for row in result.rows] == [10.0, -4.0, 2.0]

    def test_serial_rerun_is_byte_identical(self):
        cfg = tiny_config(snr_points_db=(4.0, 8.0), trials_per_point=12)
        assert run_sweep(cfg).to_csv() == run_sweep(cfg).to_csv()

    def test_parallel_equals_serial(self):
        cfg = tiny_config(snr_points_db=(4.0, 8.0), trials_per_point=12)
        serial = run_sweep(cfg, workers=1)
        parallel = run_sweep(cfg, workers=2)
        assert serial.to_csv() == parallel.to_csv()
        assert serial.outcomes == parallel.outcomes

    def test_pool_is_sized_to_the_grid(self, monkeypatch):
        # a process pool starts all its workers at once, so a pool larger
        # than the grid only forks idle processes; a serial fake records
        # the size that is asked for without starting any
        import concurrent.futures

        asked = []

        class SerialPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        cfg = default_sweep_config(trials_per_point=2)
        pooled = run_sweep(cfg, workers=64)
        assert asked == [len(cfg.snr_points_db)] == [13]
        serial = run_sweep(cfg)
        assert pooled.to_csv() == serial.to_csv() and pooled.outcomes == serial.outcomes
        run_sweep(tiny_config(snr_points_db=(6.0,), trials_per_point=2), workers=4)
        assert asked == [13]  # one point runs serially

    def test_a_point_holds_no_seed_list(self, monkeypatch):
        # each trial's seed is drawn as the trial starts, so a point holds
        # its outcome tuple (8 B a trial) and no list of seed arrays
        cfg = default_sweep_config(snr_points_db=(0.0,), trials_per_point=20_000)
        monkeypatch.setattr(harness, "run_trial", lambda cfg, snr_db, seed: TrialOutcome.MISSED)
        tracemalloc.start()
        try:
            (row,) = run_sweep(cfg).rows
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert row.missed == 20_000
        assert peak < 1_000_000

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_are_rejected(self, monkeypatch, workers):
        # a pool of min(workers, points) < 2 would run the sweep serially
        trials = []
        monkeypatch.setattr(harness, "run_trial", lambda *args: trials.append(args))
        with pytest.raises(ValueError, match="workers must be >= 1"):
            run_sweep(tiny_config(), workers=workers)
        assert trials == []  # rejected before any trial runs

    def test_csv_shape(self):
        cfg = tiny_config(snr_points_db=(6.0,), trials_per_point=4)
        text = run_sweep(cfg).to_csv()
        lines = text.split("\n")
        assert lines[0] == "snr_db,trials,correct,missed,false_standard,probability,ci_half_width"
        assert len(lines) == 3 and lines[-1] == ""  # header + 1 row + trailing LF

    def test_config_validation(self):
        with pytest.raises(ValueError):
            tiny_config(trials_per_point=0)
        with pytest.raises(ValueError, match="^unknown profile 'nope'$"):
            tiny_config(transmitted_profile_id="nope")
        with pytest.raises(ValueError):
            tiny_config(pad_before_range=(10, 5))
        with pytest.raises(ValueError, match="snr_points_db"):
            tiny_config(snr_points_db=())
        with pytest.raises(ValueError, match="seed must be non-negative"):
            tiny_config(seed=-1)
        with pytest.raises(ValueError, match="profile ids must be unique"):
            profiles = scenario_profiles(seed=7)
            tiny_config(profiles=profiles + profiles[1:2])
        with pytest.raises(ValueError, match="pad_after must be >= 0"):
            tiny_config(pad_after=-1)

    @pytest.mark.parametrize("snr", [math.nan, -math.inf, 1e308, -1e308])
    def test_snr_points_without_a_noise_level_are_rejected(self, monkeypatch, snr):
        # rejected by the rule add_awgn applies, before any trial runs
        trials = []
        monkeypatch.setattr(harness, "run_trial", lambda *args: trials.append(args))
        with pytest.raises(ValueError, match="no finite noise level"):
            run_sweep(default_sweep_config(snr_points_db=(0.0, snr), trials_per_point=5))
        assert trials == []
        with pytest.raises(ValueError, match="no finite noise level"):
            add_awgn(np.ones(4), snr, 0)

    def test_snr_point_at_plus_inf_means_no_noise(self):
        cfg = tiny_config(snr_points_db=(math.inf,), trials_per_point=2)
        assert run_sweep(cfg).rows[0].probability == 1.0


class TestScopeScenario:
    def test_noiseless_peak_is_ideal_maximum(self):
        cfg = tiny_config()
        result = run_scope_scenario(cfg, snr_db=math.inf, seed=1)
        trace = result.traces["pn64a"]
        assert trace.max() == 128
        assert int(np.argmax(trace)) == result.expected_peak_index
        assert len(result.events) == 1
        assert result.events[0].standard_id == "pn64a"

    def test_10db_crossing_only_on_transmitted_trace(self):
        cfg = tiny_config()
        result = run_scope_scenario(cfg, snr_db=10.0, seed=2)
        thresholds = dict(zip(result.profile_ids, result.thresholds))
        assert result.traces["pn64a"].max() >= thresholds["pn64a"]
        assert result.traces["pn32"].max() < thresholds["pn32"]
        assert result.traces["pn64b"].max() < thresholds["pn64b"]
        assert [e.standard_id for e in result.events] == ["pn64a"]

    def test_peak_tracks_float_oracle_at_10db(self):
        # the sign-quantized peak lands exactly on the full-precision argmax
        # in at least 95% of seeds
        cfg = tiny_config()
        tx = cfg.transmitted_profile()
        hits = 0
        seeds = range(100)
        for seed in seeds:
            result = run_scope_scenario(cfg, snr_db=10.0, seed=seed)
            trace = result.traces[tx.id]
            peak = int(np.argmax(trace))
            # reconstruct the float capture the scope saw
            rng = np.random.default_rng((cfg.seed, seed))
            lo, hi = cfg.pad_before_range
            pad_before = int(rng.integers(lo, hi + 1))
            from pktdet.signal import add_awgn, embed_preamble

            clean, _ = embed_preamble(tx.preamble, pad_before, cfg.pad_after)
            noisy = add_awgn(clean, 10.0, rng, tx.preamble.mean_power)
            oracle_start = float_xcorr_argmax(noisy, tx.preamble.samples)
            hits += peak == oracle_start + tx.correlator_len - 1
        assert hits >= 95

    def test_csv_columns(self):
        cfg = tiny_config()
        result = run_scope_scenario(cfg, snr_db=math.inf, seed=0)
        lines = result.to_csv().split("\n")
        assert lines[0] == "index,pn32,pn64a,pn64b"
        # one row per sample plus header and trailing newline
        assert len(lines) == 2 + len(result.traces["pn32"])

    def test_traces_cannot_be_changed(self):
        result = run_scope_scenario(tiny_config(), snr_db=math.inf, seed=0)
        csv = result.to_csv()
        with pytest.raises(ValueError, match="read-only"):
            result.traces["pn32"][0] = 12345
        with pytest.raises(TypeError):
            result.traces["x"] = None
        assert list(result.traces) == list(result.profile_ids)
        assert result.to_csv() == csv

    @pytest.mark.parametrize("snr_db", (-10.0, 10.0))
    def test_traces_hold_re_at_every_position(self, snr_db):
        # each profile's re = p_ii + p_qq wherever its window is full, else 0
        cfg = tiny_config()
        result = run_scope_scenario(cfg, snr_db=snr_db, seed=3)
        tx = cfg.transmitted_profile()
        stream, _ = harness._synthesize_capture(cfg, tx, snr_db, seed_words(cfg.seed, 3))
        regs = build_register_map(cfg.profiles)  # energy and coarse stages off
        _, record = reference_run(stream.codes.T.tolist(), cfg.profiles, regs)
        for p, pid in enumerate(result.profile_ids):
            expected = [0 if o[p] is None else o[p][0] + o[p][1] for _, _, o in record]
            assert result.traces[pid].tolist() == expected


class TestDefaults:
    def test_default_config_shape(self):
        cfg = default_sweep_config(seed=3)
        assert [p.id for p in cfg.profiles] == ["pn32", "pn64a", "pn64b"]
        assert [p.fine_threshold for p in cfg.profiles] == [50, 100, 100]
        assert [p.correlator_len for p in cfg.profiles] == [32, 64, 64]
        assert cfg.snr_points_db[0] == -10.0 and cfg.snr_points_db[-1] == 14.0
        assert cfg.trials_per_point == 300

    def test_distinct_preambles(self):
        cfg = default_sweep_config(seed=3)
        a = cfg.profiles[1].preamble.samples
        b = cfg.profiles[2].preamble.samples
        assert not np.array_equal(a, b)


PREAMBLE = pn_preamble(32, (3, 0))
CONFIG = tiny_config()
RECORDS = {
    "Preamble": lambda: Preamble(PREAMBLE.samples),
    "SampleStream": lambda: quantize(PREAMBLE.samples, Q1_15),
    "StandardProfile": lambda: StandardProfile("pn32", PREAMBLE, 50),
    "SweepConfig": lambda: replace(CONFIG),
    "Candidate": lambda: Candidate(CONFIG.profiles[0], 64, 100, 0),
    "ScopeResult": lambda: run_scope_scenario(CONFIG),
}
BY_IDENTITY = ("Preamble", "SampleStream", "ScopeResult")


@pytest.mark.parametrize("name", RECORDS)
def test_record_compares_and_hashes_without_raising(name):
    # numpy's elementwise == has no truth value, so a record that holds an
    # array is equal only to itself; the others compare field by field
    a, b = RECORDS[name](), RECORDS[name]()
    assert a == a and a in [b, a]
    assert (a == b) is (name not in BY_IDENTITY)
    assert hash(a) == hash(a)
    assert (hash(a) == hash(b)) is (name not in BY_IDENTITY)
