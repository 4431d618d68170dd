import numpy as np
import pytest

from pktdet.cli import main
from pktdet.correlator import load_coefficients, parse_bank
from pktdet.signal import pn_preamble

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


def test_gen_coeff_matches_library(tmp_path, capsys):
    assert main(["gen-coeff", "--preamble", "pn:seed=11,len=48"]) == 0
    text = capsys.readouterr().out
    assert parse_bank(text) == load_coefficients(pn_preamble("preamble", 48, 11))


def test_gen_coeff_from_file(tmp_path):
    ref = tmp_path / "ref.txt"
    ref.write_text("0.5 -0.5\n-0.25 0.25\n")
    out = tmp_path / "bank.txt"
    assert main(["gen-coeff", "--preamble", f"file:{ref}", "--out", str(out)]) == 0
    bank = parse_bank(out.read_text())
    assert bank.length == 2
    assert bank.signs() == [(1, -1), (-1, 1)]


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


@pytest.mark.parametrize("rssi, events", [("0", 0), ("1", 1)])
def test_detect_rssi_flag_gates_events(tmp_path, capsys, config_file, rssi, events):
    capture = tmp_path / "capture.iqpd"
    gen = ["gen-iq", "--profiles", str(config_file), "--transmit", "pn64a"]
    assert main(gen + ["--seed", "3", "--pad-before", "100", "--out", str(capture)]) == 0
    capsys.readouterr()
    detect = ["detect", "--profiles", str(config_file), "--input", str(capture)]
    assert main(detect + ["--rssi", rssi]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "standard_id,peak_value,peak_index"
    assert [line.split(",")[0] for line in lines[1:]] == ["pn64a"] * events


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


def test_detect_unknown_transmit_id(tmp_path, config_file):
    assert (
        main(
            [
                "gen-iq",
                "--profiles",
                str(config_file),
                "--transmit",
                "nope",
                "--out",
                str(tmp_path / "x.iqpd"),
            ]
        )
        == 2
    )


def test_sweep_csv_is_deterministic(tmp_path, config_file):
    out1 = tmp_path / "r1.csv"
    out2 = tmp_path / "r2.csv"
    assert main(["sweep", "--config", str(config_file), "--out", str(out1)]) == 0
    assert main(["sweep", "--config", str(config_file), "--out", str(out2), "--workers", "2"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0].startswith("snr_db,")
    assert len(lines) == 3  # two SNR points


def test_scope_default_scenario(tmp_path):
    out = tmp_path / "traces.csv"
    assert main(["scope", "--snr", "10", "--seed", "4", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "index,pn32,pn64a,pn64b"
    data = np.loadtxt(lines[1:], delimiter=",", dtype=np.int64)
    assert data[:, 0].tolist() == list(range(len(lines) - 1))
    # the transmitted 64-sample profile crosses its threshold somewhere
    assert data[:, 2].max() >= 100
