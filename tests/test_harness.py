import math
import pickle
from dataclasses import replace

import numpy as np
import pytest

from pktdet import harness
from pktdet.harness import (
    ScopeResult,
    SweepConfig,
    TrialOutcome,
    default_sweep_config,
    run_scope_scenario,
    run_sweep,
    run_trial,
    scenario_profiles,
)
from pktdet.standards import StandardProfile, build_register_map

from oracles import float_xcorr_argmax


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
                packet_len=p.packet_len,
                symbol_size=p.symbol_size,
                training_period=p.training_period,
            )
            for p in scenario_profiles(seed=7)
        )
        cfg = tiny_config(profiles=profiles)
        assert run_trial(cfg, math.inf, (7, 0, 0)) is TrialOutcome.MISSED

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

    def test_csv_shape(self):
        cfg = tiny_config(snr_points_db=(6.0,), trials_per_point=4)
        text = run_sweep(cfg).to_csv()
        lines = text.split("\n")
        assert lines[0] == "snr_db,trials,correct,missed,false_standard,probability,ci_half_width"
        assert len(lines) == 3 and lines[-1] == ""  # header + 1 row + trailing LF

    def test_config_validation(self):
        with pytest.raises(ValueError):
            tiny_config(trials_per_point=0)
        with pytest.raises(ValueError):
            tiny_config(transmitted_profile_id="nope")
        with pytest.raises(ValueError):
            tiny_config(pad_before_range=(10, 5))


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
            noisy = add_awgn(clean, 10.0, rng, tx.preamble.mean_power())
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

    def test_requires_three_profiles(self):
        cfg = tiny_config()
        two = SweepConfig(
            profiles=cfg.profiles[:2],
            transmitted_profile_id="pn64a",
            snr_points_db=(10.0,),
            trials_per_point=1,
            seed=7,
        )
        with pytest.raises(ValueError):
            run_scope_scenario(two, snr_db=10.0, seed=0)


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
