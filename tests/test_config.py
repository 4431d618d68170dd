import re

import numpy as np
import pytest

from pktdet.coarse import CoarseConfig
from pktdet.config import (
    load_profiles,
    load_sweep_config,
    parse_preamble_source,
    read_complex_file,
)
from pktdet.signal import pn_preamble

# pn32 carries keys that no longer configure anything; files that still
# hold them keep parsing
PROFILES = """
[profile pn32]
preamble = pn:seed=101,len=32
threshold = 50
packet_len = 256
symbol_size = 64
training_period = 32

[profile pn64a]
preamble = pn:seed=202,len=64
threshold = 100

[profile pn64b]
preamble = pn:seed=303,len=64
threshold = 100
"""

SWEEP = """
[sweep]
snr_db = -4:4:2
trials = 5
seed = 9
transmitted = pn64a
pad_before = 32:64
pad_after = 48
energy_enabled = true
energy_window = 16
energy_sample_thresh = 0.5
energy_count_thresh = 8
"""


def test_load_profiles(tmp_path):
    path = tmp_path / "profiles.ini"
    path.write_text(PROFILES)
    profiles = load_profiles(path)
    assert [p.id for p in profiles] == ["pn32", "pn64a", "pn64b"]
    assert [p.fine_threshold for p in profiles] == [50, 100, 100]
    assert np.array_equal(profiles[0].preamble.samples, pn_preamble(32, 101).samples)


def test_file_preamble_source(tmp_path):
    ref = tmp_path / "ref.txt"
    ref.write_text("# two floats per line\n0.5 0.25\n-0.5, -0.25\n")
    preamble = parse_preamble_source(f"file:{ref}")
    assert preamble.length == 2
    assert preamble.samples[0] == 0.5 + 0.25j
    assert preamble.samples[1] == -0.5 - 0.25j


def test_relative_file_source_resolves_against_config_dir(tmp_path):
    (tmp_path / "ref.txt").write_text("1 0\n0 1\n")
    config = tmp_path / "profiles.ini"
    config.write_text("[profile f]\npreamble = file:ref.txt\nthreshold = 2\n")
    profiles = load_profiles(config)
    assert profiles[0].preamble.length == 2


def test_coeff_source_round_trips_signs(tmp_path):
    from pktdet.correlator import dump_bank, load_coefficients

    original = pn_preamble(48, seed=11)
    bank = load_coefficients(original)
    path = tmp_path / "bank.txt"
    path.write_text(dump_bank(bank))
    rebuilt = parse_preamble_source(f"coeff:{path}")
    assert rebuilt.length == 48
    # the reconstructed reference packs back to the identical bank
    assert load_coefficients(rebuilt) == bank


def test_coeff_source_past_the_longest_preamble_rejected(tmp_path):
    # 16,385 points take 513 words per component; the bank parses, but no
    # preamble may be that long
    path = tmp_path / "bank.txt"
    path.write_text("n=16385\n" + "00000000\n" * 2 * 513)
    with pytest.raises(ValueError, match="preamble length"):
        parse_preamble_source(f"coeff:{path}")


def test_bad_preamble_sources(tmp_path):
    for source, message in (
        ("pn:len=32", "needs seed="),
        ("pn:seed=1", "needs len="),
        ("pn:seed=1,len=32,bogus=3", "unknown or repeated field 'bogus'"),
        ("pn:seed=1,len=32,", "unknown or repeated field ''"),
        ("pn:seed=1,seed=2,len=32", "unknown or repeated field 'seed'"),
        ("pn:seed=1,len=32,len=64", "unknown or repeated field 'len'"),
        ("pn:seed=x,len=3", "pn preamble seed must be an integer, got 'x'"),
        ("pn:seed=1,len=3.5", "pn preamble len must be an integer, got '3.5'"),
        ("pn:seed=-1,len=32", "seed must be non-negative, got -1"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_preamble_source(source)
    with pytest.raises(ValueError):
        parse_preamble_source("magic:stuff")
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2 3\n")
    with pytest.raises(ValueError):
        read_complex_file(bad)
    empty = tmp_path / "empty.txt"
    empty.write_text("# no samples\n\n")
    with pytest.raises(ValueError, match="no samples found"):
        parse_preamble_source(f"file:{empty}")


def test_load_sweep_config(tmp_path):
    path = tmp_path / "sweep.ini"
    path.write_text(SWEEP + PROFILES)
    cfg = load_sweep_config(path)
    assert cfg.snr_points_db == (-4.0, -2.0, 0.0, 2.0, 4.0)
    assert cfg.trials_per_point == 5
    assert cfg.seed == 9
    assert cfg.transmitted_profile_id == "pn64a"
    assert cfg.pad_before_range == (32, 64)
    assert cfg.pad_after == 48
    assert cfg.energy is not None and cfg.energy.window_len == 16
    assert cfg.coarse is None


def test_single_pad_before_value(tmp_path):
    path = tmp_path / "sweep.ini"
    path.write_text(SWEEP.replace("pad_before = 32:64", "pad_before = 40") + PROFILES)
    assert load_sweep_config(path).pad_before_range == (40, 40)


def test_snr_comma_list(tmp_path):
    path = tmp_path / "sweep.ini"
    path.write_text(SWEEP.replace("-4:4:2", "1, 3.5, 10") + PROFILES)
    assert load_sweep_config(path).snr_points_db == (1.0, 3.5, 10.0)


@pytest.mark.parametrize(
    "text, points",
    [
        ("0:0:1", (0.0,)),
        ("0:1:0.1", (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)),
        ("-10:15:2.5", (-10.0, -7.5, -5.0, -2.5, 0.0, 2.5, 5.0, 7.5, 10.0, 12.5, 15.0)),
        ("0:1:0.3", (0.0, 0.3, 0.6, 0.9)),
        ("1:0.9999999999:1", (1.0,)),  # hi within 1e-9 steps of a point keeps it
        ("0:9999:1", tuple(float(k) for k in range(10_000))),
    ],
)
def test_snr_range_points(tmp_path, text, points):
    path = tmp_path / "sweep.ini"
    path.write_text(SWEEP.replace("-4:4:2", text) + PROFILES)
    assert load_sweep_config(path).snr_points_db == points


@pytest.mark.parametrize(
    "text, message",
    [
        ("0:inf:2", "finite"),
        ("-inf:0:1", "finite"),
        ("0:nan:1", "finite"),
        ("nan:5:1", "finite"),
        ("0:5:nan", "finite"),
        ("1:2:1e-300", "more than 10000 points"),  # 1 + 1e-300 == 1
        ("0:10000:1", "more than 10000 points"),
        ("-1e308:1e308:1", "more than 10000 points"),  # hi - lo overflows
        ("1:0:1", "snr_points_db"),  # an empty grid
        ("1e308:-1e308:1", "snr_points_db"),
        ("0:4:0", "positive"),
        ("0:4", "lo:hi:step"),
    ],
)
def test_bad_snr_range_rejected(tmp_path, text, message):
    path = tmp_path / "sweep.ini"
    path.write_text(SWEEP.replace("-4:4:2", text) + PROFILES)
    with pytest.raises(ValueError, match=message):
        load_sweep_config(path)


def test_energy_can_be_disabled(tmp_path):
    path = tmp_path / "sweep.ini"
    path.write_text(SWEEP.replace("energy_enabled = true", "energy_enabled = false") + PROFILES)
    assert load_sweep_config(path).energy is None


@pytest.mark.parametrize(
    "keys, expected",
    [
        ("coarse_enabled = true\n", CoarseConfig(16, 0.5, 8)),
        (
            "coarse_enabled = true\ncoarse_lag = 12\ncoarse_thresh = 0.75\ncoarse_plateau = 3\n",
            CoarseConfig(half_period=12, metric_threshold=0.75, plateau_min=3),
        ),
        ("coarse_enabled = false\ncoarse_lag = 12\ncoarse_thresh = 0.75\n", None),
    ],
)
def test_coarse_keys(tmp_path, keys, expected):
    path = tmp_path / "sweep.ini"
    path.write_text(SWEEP + keys + PROFILES)
    assert load_sweep_config(path).coarse == expected


def test_missing_sweep_section(tmp_path):
    path = tmp_path / "profiles.ini"
    path.write_text(PROFILES)
    with pytest.raises(ValueError, match="sweep"):
        load_sweep_config(path)


def test_no_profiles_rejected(tmp_path):
    path = tmp_path / "empty.ini"
    path.write_text("[sweep]\nsnr_db = 0\ntransmitted = x\n")
    with pytest.raises(ValueError, match="profile"):
        load_profiles(path)
