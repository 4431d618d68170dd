import hashlib
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from pktdet import cli, harness
from pktdet.cli import main
from pktdet.coarse import CoarseConfig
from pktdet.config import load_profiles, load_sweep_config
from pktdet.correlator import load_coefficients, parse_bank
from pktdet.energy import EnergyConfig
from pktdet.harness import SweepConfig, default_sweep_config, run_scope_scenario, run_sweep
from pktdet.iqfile import read_iq
from pktdet.signal import Q1_15, pn_preamble
from pktdet.standards import build_register_map

from streaming import sign_pairs

CONFIG = """
[sweep]
snr_db = 8,12
trials = 4
seed = 5
transmitted = pn64a
pad_before = 32:48
pad_after = 48

[profile pn32]
preamble = pn:seed=101,len=32
threshold = 50

[profile pn64a]
preamble = pn:seed=202,len=64
threshold = 100

[profile pn64b]
preamble = pn:seed=303,len=64
threshold = 100
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "scenario.ini"
    path.write_text(CONFIG)
    return path


def rejected(capsys, argv):
    """Run ``main(argv)`` and check the exit contract of a rejected run:
    ``main`` returns 2, stdout is empty, stderr is one line that starts with
    ``error: ``, and no ``--out`` file is written.  Return the line's
    message, after ``error: ``."""
    out = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
    capsys.readouterr()
    assert main(argv) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.startswith("error: ") and err.count("\n") == 1
    assert err.endswith("\n") and not (out and out.exists())
    return err.removeprefix("error: ").removesuffix("\n")


def test_gen_coeff_matches_library(tmp_path, capsys):
    assert main(["gen-coeff", "--preamble", "pn:seed=11,len=48"]) == 0
    text = capsys.readouterr().out
    assert parse_bank(text) == load_coefficients(pn_preamble(48, 11))


def test_gen_coeff_from_file(tmp_path):
    ref = tmp_path / "ref.txt"
    ref.write_text("0.5 -0.5\n-0.25 0.25\n")
    out = tmp_path / "bank.txt"
    assert main(["gen-coeff", "--preamble", f"file:{ref}", "--out", str(out)]) == 0
    bank = parse_bank(out.read_text())
    assert bank.length == 2
    assert sign_pairs(bank) == [(1, -1), (-1, 1)]


def test_gen_iq_then_detect_round_trip(tmp_path, config_file):
    capture = tmp_path / "capture.iqpd"
    events_csv = tmp_path / "events.csv"
    assert (
        main(
            [
                "gen-iq",
                "--profiles",
                str(config_file),
                "--transmit",
                "pn64a",
                "--snr",
                "10",
                "--seed",
                "3",
                "--pad-before",
                "100",
                "--out",
                str(capture),
                "--format",
                "q1.15",
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "detect",
                "--profiles",
                str(config_file),
                "--input",
                str(capture),
                "--out",
                str(events_csv),
            ]
        )
        == 0
    )
    lines = events_csv.read_text().splitlines()
    assert lines[0] == "standard_id,peak_value,peak_index"
    assert len(lines) == 2
    standard_id, peak_value, peak_index = lines[1].split(",")
    assert standard_id == "pn64a"
    assert int(peak_value) >= 100
    # ground truth alignment: pad_before + 64 - 1
    assert int(peak_index) == 100 + 63


def test_detect_consumes_gen_coeff_output(tmp_path):
    # a profile defined purely by a packed coefficient dump detects the
    # packet generated from the original full-precision reference
    bank_path = tmp_path / "bank.txt"
    assert main(["gen-coeff", "--preamble", "pn:seed=77,len=64", "--out", str(bank_path)]) == 0

    gen_profiles = tmp_path / "gen.ini"
    gen_profiles.write_text("[profile tx]\npreamble = pn:seed=77,len=64\nthreshold = 100\n")
    det_profiles = tmp_path / "det.ini"
    det_profiles.write_text(f"[profile tx]\npreamble = coeff:{bank_path}\nthreshold = 100\n")

    capture = tmp_path / "c.iqpd"
    events = tmp_path / "e.csv"
    assert (
        main(
            [
                "gen-iq",
                "--profiles",
                str(gen_profiles),
                "--transmit",
                "tx",
                "--snr",
                "12",
                "--seed",
                "9",
                "--pad-before",
                "90",
                "--out",
                str(capture),
            ]
        )
        == 0
    )
    assert (
        main(["detect", "--profiles", str(det_profiles), "--input", str(capture), "--out", str(events)])
        == 0
    )
    lines = events.read_text().splitlines()
    assert len(lines) == 2
    standard_id, peak_value, peak_index = lines[1].split(",")
    assert standard_id == "tx"
    assert int(peak_value) >= 100
    assert int(peak_index) == 90 + 63


def test_gen_iq_unknown_transmit_id(capsys, tmp_path, config_file):
    argv = ["gen-iq", "--profiles", str(config_file), "--transmit", "nope", "--out"]
    assert rejected(capsys, argv + [str(tmp_path / "x.iqpd")]) == "unknown profile 'nope'"


def test_sweep_csv_is_deterministic(tmp_path, config_file):
    out1 = tmp_path / "r1.csv"
    out2 = tmp_path / "r2.csv"
    assert main(["sweep", "--config", str(config_file), "--out", str(out1)]) == 0
    assert main(["sweep", "--config", str(config_file), "--out", str(out2), "--workers", "2"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0].startswith("snr_db,")
    assert len(lines) == 3  # two SNR points


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_sweep_rejects_workers_below_one(tmp_path, capsys, config_file, workers):
    out = tmp_path / "r.csv"
    argv = ["sweep", "--config", str(config_file), "--out", str(out), "--workers", workers]
    assert rejected(capsys, argv) == "workers must be >= 1"


def test_scope_default_scenario(tmp_path):
    out = tmp_path / "traces.csv"
    assert main(["scope", "--snr", "10", "--seed", "4", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "index,pn32,pn64a,pn64b"
    data = np.loadtxt(lines[1:], delimiter=",", dtype=np.int64)
    assert data[:, 0].tolist() == list(range(len(lines) - 1))
    # the transmitted 64-sample profile crosses its threshold somewhere
    assert data[:, 2].max() >= 100


@pytest.mark.parametrize("seed", [0, 7])
def test_scope_seed_picks_only_the_capture(tmp_path, seed):
    # the default scenario keeps the seed-7 profiles of the criterion-4 sweeps
    out = tmp_path / "traces.csv"
    assert main(["scope", "--snr", "10", "--seed", str(seed), "--out", str(out)]) == 0
    assert out.read_text() == run_scope_scenario(default_sweep_config(), 10.0, seed).to_csv()


@pytest.fixture
def repeated_block_capture(tmp_path):
    """A 10 dB capture of a preamble made of one 16-sample block sent four
    times, so the coarse stage can fire at lag 16, and its profiles."""
    block = pn_preamble(16, 21).samples
    ref = np.tile(block, 4)
    np.savetxt(tmp_path / "ref.txt", np.column_stack([ref.real, ref.imag]))
    profiles = tmp_path / "rep.ini"
    profiles.write_text(
        "[profile rep]\npreamble = file:ref.txt\nthreshold = 110\n\n"
        "[profile pn32]\npreamble = pn:seed=101,len=32\nthreshold = 50\n"
    )
    capture = tmp_path / "rep.iqpd"
    gen = ["gen-iq", "--profiles", str(profiles), "--transmit", "rep", "--seed", "3"]
    pads = ["--pad-before", "100", "--pad-after", "60"]
    assert main(gen + pads + ["--out", str(capture)]) == 0
    assert len(read_iq(capture)) == 100 + 64 + 60
    return profiles, capture


COARSE = ["--coarse-lag", "16", "--coarse-thresh", "0.8", "--coarse-plateau", "2"]


@pytest.mark.parametrize(
    "flags, events",
    [
        ([], ["rep,128,163"]),
        (COARSE, ["rep,128,163"]),
        (COARSE[:4] + ["--coarse-plateau", "100"], []),  # plateau never held that long
        (["--coarse-lag", "24"] + COARSE[2:], []),  # the block does not repeat at 24
        (["--energy-window", "8"], []),  # 8 of 8 samples can never exceed a count of 8
        (["--energy-window", "8", "--energy-count-thresh", "4"], ["rep,128,163"]),
        (["--energy-count-thresh", "16"], []),
        (["--energy-sample-thresh", "1.5"], []),  # above the packet's sample energy
    ],
)
def test_detect_stage_flags(capsys, repeated_block_capture, flags, events):
    profiles, capture = repeated_block_capture
    capsys.readouterr()
    assert main(["detect", "--profiles", str(profiles), "--input", str(capture)] + flags) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["standard_id,peak_value,peak_index"] + events


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--input", "BAD_MAGIC"], "not an IQPD file"),
        (["--profiles", "MISSING"], "No such file"),
        (["--coarse-lag", "16", "--coarse-thresh", "2"], "metric_threshold"),
        (["--energy-window", "0"], "window_len"),
        # tuning for a coarse stage that is off is an error, not ignored
        pytest.param(["--coarse-thresh", "0.3"], "need --coarse-lag", id="thresh-without-lag"),
        pytest.param(
            ["--coarse-thresh", "2", "--coarse-plateau", "0"],
            "need --coarse-lag",
            id="thresh-and-plateau-without-lag",
        ),
    ],
)
def test_detect_input_errors_exit_2(capsys, tmp_path, repeated_block_capture, flags, message):
    profiles, capture = repeated_block_capture
    bad = tmp_path / "bad.iqpd"
    bad.write_bytes(b"IQPX" + capture.read_bytes()[4:])
    paths = {"BAD_MAGIC": str(bad), "MISSING": str(tmp_path / "missing.ini")}
    argv = ["detect", "--profiles", str(profiles), "--input", str(capture)]
    argv += [paths.get(flag, flag) for flag in flags]  # a repeated flag overrides
    assert message in rejected(capsys, argv)


PAD_RANGE_FORM = "[sweep] pad_before: takes lo:hi or one integer"
NOT_AN_INT = "invalid literal for int() with base 10"


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("[profile pn64b]", "[profile pn64a]", "already exists"),
        ("\n[sweep]", "stray = 1\n[sweep]", "no section headers"),
        ("preamble = pn:seed=202,len=64\n", "", "'preamble'"),
        ("threshold = 50\n", "", "'threshold'"),
        ("transmitted = pn64a\n", "", "'transmitted'"),
        ("snr_db = 8,12\n", "", "'snr_db'"),
        ("snr_db = 8,12\n", "snr_db = 0:inf:2\n", "finite"),
        ("snr_db = 8,12\n", "snr_db = 1:2:1e-300\n", "more than"),
        ("snr_db = 8,12\n", "snr_db = 0:nan:1\n", "finite"),
        ("snr_db = 8,12\n", "snr_db = nan:5:1\n", "finite"),
        ("snr_db = 8,12\n", "snr_db = 1:0:1\n", "snr_points_db"),
        ("snr_db = 8,12\n", "snr_db = 0, nan\n", "no finite noise level"),
        ("snr_db = 8,12\n", "snr_db = 0, -inf\n", "no finite noise level"),
        ("snr_db = 8,12\n", "snr_db = 0, 1e308\n", "no finite noise level"),
        ("pad_before = 32:48", "pad_before = 1:2:3", f"{PAD_RANGE_FORM}, got '1:2:3'"),
        ("pad_before = 32:48", "pad_before = a:b", f"{PAD_RANGE_FORM}, got 'a:b'"),
        ("pad_before = 32:48", "pad_before = 32:16777217", "pads must be in [0, 16777216]"),
        ("pad_after = 48", "pad_after = 16777217", "pads must be in [0, 16777216]"),
        ("pad_after = 48", "energy_window = 1.5", f"[sweep] energy_window: {NOT_AN_INT}: '1.5'"),
        ("seed = 5", "seed = 1e3", f"[sweep] seed: {NOT_AN_INT}: '1e3'"),
        ("pad_after = 48", "coarse_enabled = maybe", "[sweep] coarse_enabled: not a boolean"),
        ("threshold = 100", "threshold = 5x", f"[profile pn64a] threshold: {NOT_AN_INT}: '5x'"),
        ("seed = 5", "seed = -1", "seed must be non-negative, got -1"),
        (
            "seed=202,len=64",
            "seed=-1,len=64",
            "[profile pn64a] preamble: seed must be non-negative, got -1",
        ),
        (
            "seed=202,len=64",
            "seed=202,len=64,bogus=3",
            "[profile pn64a] preamble: pn preamble source: unknown or repeated field 'bogus'",
        ),
    ],
    ids=[
        "duplicate-section",
        "no-section-header",
        "no-preamble",
        "no-threshold",
        "no-transmitted",
        "no-snr_db",
        "snr-range-to-inf",
        "snr-range-step-below-ulp",
        "snr-range-to-nan",
        "snr-range-from-nan",
        "snr-range-empty",
        "snr-list-nan",
        "snr-list-minus-inf",
        "snr-list-huge",
        "pad-range-three-fields",
        "pad-range-not-integers",
        "pad-before-past-the-cap",
        "pad-after-past-the-cap",
        "float-energy-window",
        "float-seed",
        "not-a-boolean",
        "profile-threshold-not-an-int",
        "negative-seed",
        "pn-negative-seed",
        "pn-unknown-field",
    ],
)
def test_malformed_ini_exits_2(capsys, monkeypatch, tmp_path, old, new, message):
    trials = []
    run_trial = harness.run_trial

    def counted(*args, **kwargs):
        trials.append(args)
        return run_trial(*args, **kwargs)

    monkeypatch.setattr(harness, "run_trial", counted)
    path = tmp_path / "bad.ini"
    path.write_text(CONFIG.replace(old, new, 1))
    argv = ["sweep", "--config", str(path), "--out", str(tmp_path / "out")]
    assert message in rejected(capsys, argv)
    assert trials == []  # rejected before any trial ran


def test_ini_values_are_read_literally(tmp_path):
    # a '%' starts no interpolation: the file name is read as written
    ref = tmp_path / "100%.txt"
    ref.write_text("0.5 -0.5\n-0.25 0.25\n")
    profiles = tmp_path / "percent.ini"
    profiles.write_text("[profile pct]\npreamble = file:100%.txt\nthreshold = 3\n")
    (loaded,) = load_profiles(profiles)
    assert loaded.preamble.samples.tolist() == [0.5 - 0.5j, -0.25 + 0.25j]
    out = tmp_path / "pct.iqpd"
    argv = ["gen-iq", "--profiles", str(profiles), "--transmit", "pct", "--out", str(out)]
    assert main(argv) == 0
    assert len(read_iq(out)) > 2


def test_gen_coeff_rejects_an_overlong_pn_preamble(capsys):
    # 10**12 signs would take 16 TB, so the length is checked before the draw
    argv = ["gen-coeff", "--preamble", "pn:seed=1,len=1000000000000"]
    assert rejected(capsys, argv) == "preamble length must be in [1, 16384]"


def test_non_finite_preamble_file_exits_2(capsys, tmp_path, repeated_block_capture):
    _, capture = repeated_block_capture
    ref = tmp_path / "nan.txt"
    ref.write_text("nan 0\n0.5 -0.5\n")
    profiles = tmp_path / "nan.ini"
    profiles.write_text(f"[profile nan]\npreamble = file:{ref}\nthreshold = 3\n")
    detect = ["detect", "--profiles", str(profiles), "--input", str(capture)]
    for argv, prefix in (
        (["gen-coeff", "--preamble", f"file:{ref}"], ""),
        (detect, "[profile nan] preamble: "),
    ):
        assert rejected(capsys, argv) == f"{prefix}preamble samples must be finite"


def test_overflowing_preamble_file_exits_2(capsys, tmp_path):
    ref = tmp_path / "big.txt"
    ref.write_text("1e200 0\n1 0\n")
    profiles = tmp_path / "big.ini"
    profiles.write_text(f"[profile big]\npreamble = file:{ref}\nthreshold = 3\n")
    out = tmp_path / "big.iqpd"
    for argv, prefix in (
        (["gen-coeff", "--preamble", f"file:{ref}"], ""),
        (
            ["gen-iq", "--profiles", str(profiles), "--transmit", "big", "--out", str(out)],
            "[profile big] preamble: ",
        ),
    ):
        assert rejected(capsys, argv).startswith(f"{prefix}preamble samples are too large")


@pytest.mark.parametrize("command", ["gen-iq", "scope", "gen-coeff", "ini-preamble"])
def test_negative_seed_exits_2(capsys, tmp_path, config_file, command):
    # every seed a user gives goes through signal.seed_words, which names it
    negative = "pn:seed=-1,len=32"
    gen_iq = ["gen-iq", "--profiles", str(config_file), "--transmit", "pn32"]
    argv = {
        "gen-iq": gen_iq + ["--seed", "-1"],
        "scope": ["scope", "--seed", "-1"],
        "gen-coeff": ["gen-coeff", "--preamble", negative],
        "ini-preamble": gen_iq,
    }[command]
    if command == "ini-preamble":
        config_file.write_text(CONFIG.replace("pn:seed=101,len=32", negative))
    message = rejected(capsys, argv + ["--out", str(tmp_path / "out")])
    assert message.endswith("seed must be non-negative, got -1")


@pytest.mark.parametrize(
    "source, reason",
    [
        ("file:missing.txt", "[Errno 2] No such file or directory"),
        ("coeff:bank_dir", "[Errno 21] Is a directory"),
    ],
    ids=["missing-file", "coeff-directory"],
)
@pytest.mark.parametrize("command", ["gen-iq", "detect"])
def test_unreadable_preamble_names_its_key(capsys, tmp_path, command, source, reason):
    (tmp_path / "bank_dir").mkdir()
    profiles = tmp_path / "p.ini"
    profiles.write_text(f"[profile p]\npreamble = {source}\nthreshold = 3\n")
    out = tmp_path / "out"
    argv = {
        "gen-iq": ["gen-iq", "--transmit", "p"],
        "detect": ["detect", "--input", str(tmp_path / "none.iqpd")],
    }[command]
    message = rejected(capsys, argv + ["--profiles", str(profiles), "--out", str(out)])
    assert message.startswith(f"[profile p] preamble: {reason}")


@pytest.mark.parametrize("command", ["gen-iq", "sweep"])
def test_pad_past_the_cap_exits_2(capsys, tmp_path, config_file, command):
    # 10**13 zeros would take 146 TiB, so the pad is checked before the embed
    # allocates, in the one place both commands reach
    if command == "gen-iq":
        argv = ["gen-iq", "--profiles", str(config_file), "--transmit", "pn32"]
        argv += ["--pad-before", "10000000000000"]
    else:
        config_file.write_text(CONFIG.replace("pad_before = 32:48", "pad_before = 10000000000000"))
        argv = ["sweep", "--config", str(config_file)]
    message = rejected(capsys, argv + ["--out", str(tmp_path / "out")])
    assert message == "pads must be in [0, 16777216] samples"


@pytest.mark.parametrize("snr", ["-inf", "1e308", "nan"])
@pytest.mark.parametrize("command", ["scope", "gen-iq"])
def test_bad_snr_exits_2(capsys, tmp_path, config_file, command, snr):
    argv = [command, f"--snr={snr}", "--out", str(tmp_path / "out")]
    if command == "gen-iq":
        argv += ["--profiles", str(config_file), "--transmit", "pn32"]
    assert "snr_db" in rejected(capsys, argv)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gen-iq", "--seed", "1.5", "--out", "OUT"], "argument --seed: invalid int value: '1.5'"),
        (["gen-iq"], "the following arguments are required: --out"),
        (["bogus"], "argument command: invalid choice: 'bogus'"),
        ([], "the following arguments are required: command"),
    ],
    ids=["seed-not-an-int", "missing-out", "unknown-subcommand", "no-subcommand"],
)
def test_usage_error_exits_2(capsys, tmp_path, config_file, argv, message):
    # argparse's own errors keep the contract: one error: line, no usage block
    argv = [str(tmp_path / "out") if arg == "OUT" else arg for arg in argv]
    if argv[:1] == ["gen-iq"]:
        argv += ["--profiles", str(config_file), "--transmit", "pn32"]
    assert rejected(capsys, argv).startswith(message)


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["detect", "--help"])
    assert exit_info.value.code == 0
    assert "--energy-window" in capsys.readouterr().out


@pytest.fixture
def detect_registers(monkeypatch):
    """The register maps that `detect` runs its captures under."""
    seen = []
    detect = cli.run_detector_bank

    def spy(stream, profiles, regs):
        seen.append(regs)
        return detect(stream, profiles, regs)

    monkeypatch.setattr(cli, "run_detector_bank", spy)
    return seen


def test_detect_stage_flags_set_their_registers(detect_registers, repeated_block_capture):
    profiles, capture = repeated_block_capture
    flags = ["--energy-window", "12", "--energy-sample-thresh", "0.25"]
    flags += ["--energy-count-thresh", "5", "--coarse-lag", "16"]
    flags += ["--coarse-thresh", "0.75", "--coarse-plateau", "3"]
    assert main(["detect", "--profiles", str(profiles), "--input", str(capture)] + flags) == 0
    (regs,) = detect_registers
    assert {key: regs[key] for key in regs if key.split("/")[0] in ("energy", "coarse")} == {
        "energy/enabled": 1,
        "energy/window_len": 12,
        "energy/sample_thresh_raw": round(0.25 * 2**30),
        "energy/count_thresh": 5,
        "coarse/enabled": 1,
        "coarse/lag": 16,
        "coarse/thresh_q15": round(0.75 * 2**15),
        "coarse/plateau": 3,
    }


def test_stage_defaults_have_one_home(tmp_path, detect_registers, repeated_block_capture):
    # the detect flags, the [sweep] fallbacks and SweepConfig all start from
    # the EnergyConfig and CoarseConfig field defaults
    energy, coarse = EnergyConfig(), CoarseConfig()
    profiles, capture = repeated_block_capture
    argv = ["detect", "--profiles", str(profiles), "--input", str(capture)]
    assert main(argv + ["--coarse-lag", str(coarse.half_period)]) == 0
    (regs,) = detect_registers
    expected = build_register_map(load_profiles(profiles), energy, coarse, fmt=Q1_15)
    assert regs == expected

    config = tmp_path / "bare.ini"
    pads = "pad_before = 32:48\npad_after = 48\n"
    config.write_text(CONFIG.replace(pads, "coarse_enabled = true\n"))
    cfg = load_sweep_config(config)
    assert (cfg.energy, cfg.coarse) == (energy, coarse)
    defaults = default_sweep_config()
    assert (cfg.pad_before_range, cfg.pad_after, cfg.sample_format) == (
        defaults.pad_before_range,
        defaults.pad_after,
        defaults.sample_format,
    )
    assert defaults.energy == energy


def test_scope_config_with_two_profiles(tmp_path):
    config = tmp_path / "two.ini"
    config.write_text(CONFIG.split("[profile pn64b]")[0])
    out = tmp_path / "traces.csv"
    assert main(["scope", "--config", str(config), "--seed", "1", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "index,pn32,pn64a"
    data = np.loadtxt(lines[1:], delimiter=",", dtype=np.int64)
    assert data.shape == (len(lines) - 1, 3)
    assert data[:, 2].max() >= 100  # pn64a is transmitted


def test_sweep_transmit_overrides_the_config(capsys, tmp_path, config_file):
    out = tmp_path / "r.csv"
    assert main(["sweep", "--config", str(config_file), "--transmit", "pn32", "--out", str(out)]) == 0
    cfg = replace(load_sweep_config(config_file), transmitted_profile_id="pn32")
    assert out.read_text() == run_sweep(cfg).to_csv()
    unknown = ["sweep", "--config", str(config_file), "--transmit", "nope", "--out"]
    assert rejected(capsys, unknown + [str(tmp_path / "u.csv")]) == "unknown profile 'nope'"


@pytest.mark.parametrize("transmit", [None, "pn32"])
def test_sweep_without_config_runs_the_default_scenario(tmp_path, monkeypatch, transmit):
    # the full default sweep takes seconds; the run is cut to one point of
    # two trials after the configuration has been captured
    seen = []

    def short_sweep(cfg, workers):
        seen.append(cfg)
        return run_sweep(replace(cfg, snr_points_db=(10.0,), trials_per_point=2), workers)

    monkeypatch.setattr(cli, "run_sweep", short_sweep)
    out = tmp_path / "r.csv"
    flags = [] if transmit is None else ["--transmit", transmit]
    assert main(["sweep", "--out", str(out)] + flags) == 0
    (cfg,) = seen
    expected = default_sweep_config(transmitted=transmit or "pn64a")
    assert cfg.registers == expected.registers  # same profiles and stages
    for field in fields(SweepConfig):
        if field.name != "profiles":  # preambles hold arrays; compared above
            assert getattr(cfg, field.name) == getattr(expected, field.name)
    assert out.read_text().splitlines()[1].startswith("10,2,")


# sha256 of each subcommand's output on fixed inputs: a change that moves
# any output byte shows here and must be called out, with the new digests
CLI_OUTPUT_SHA256 = {
    "gen-coeff": "84d0ef3ff94b2f0e11877bd6309f7b35d712958c06dd2f93a32107b59fb716bd",
    "gen-iq-q1.15": "004355568b9080fceb95b726e345a8c2beb7fda135d7310a2ae7c1db4d730b9e",
    "gen-iq-q2.10": "cf6aa6c2460ff4f7474da3f4d2aa284b87dc9bc3f4fc0ad4ec3d3c8b303101d2",
    "scope-seed-7": "4a761b9180c194d779d66c17307485181304dfda681b588c47a8f839eacf26e2",
    "detect": "1e53bcae030f67a590037e6ce14cffad0421e7858a106013c6736c5bedb97ff0",
    "detect-coarse": "113b6210f8c1252cfd734b96b9ed56aefdde46376df16c1c918e3c8cf00e8f76",
    "detect-block": "04c4684af78956077021d9e72094fc053b555487cd84b4762eab15ecf2ead875",
    "detect-block-coarse": "04c4684af78956077021d9e72094fc053b555487cd84b4762eab15ecf2ead875",
    "detect-coeff": "1e53bcae030f67a590037e6ce14cffad0421e7858a106013c6736c5bedb97ff0",
}


def test_cli_output_bytes_pinned(tmp_path, config_file, repeated_block_capture):
    outputs = {}

    def run(name, argv):
        path = tmp_path / f"{name}.out"
        assert main(argv + ["--out", str(path)]) == 0
        outputs[name] = hashlib.sha256(path.read_bytes()).hexdigest()
        return path

    run("gen-coeff", ["gen-coeff", "--preamble", "pn:seed=11,len=64"])
    gen = ["gen-iq", "--profiles", str(config_file), "--transmit", "pn64a", "--seed", "3"]
    capture = run("gen-iq-q1.15", gen + ["--format", "q1.15"])
    run("gen-iq-q2.10", gen + ["--format", "q2.10", "--pad-after", "40"])
    run("scope-seed-7", ["scope", "--seed", "7"])
    detect = ["detect", "--profiles", str(config_file), "--input", str(capture)]
    run("detect", detect)
    run("detect-coarse", detect + ["--coarse-lag", "16"])
    block_profiles, block_capture = repeated_block_capture
    detect = ["detect", "--profiles", str(block_profiles), "--input", str(block_capture)]
    run("detect-block", detect)
    run("detect-block-coarse", detect + ["--coarse-lag", "16"])
    # pn64a rebuilt from its packed coefficient dump
    bank = tmp_path / "pn64a.txt"
    assert main(["gen-coeff", "--preamble", "pn:seed=202,len=64", "--out", str(bank)]) == 0
    coeff_profiles = tmp_path / "coeff.ini"
    coeff_profiles.write_text(f"[profile pn64a]\npreamble = coeff:{bank}\nthreshold = 100\n")
    run("detect-coeff", ["detect", "--profiles", str(coeff_profiles), "--input", str(capture)])
    assert outputs == CLI_OUTPUT_SHA256
