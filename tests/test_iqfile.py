import numpy as np
import pytest

from pktdet.iqfile import MAGIC, read_iq, write_iq
from pktdet.signal import FixedPointFormat, Q1_15, quantize


def test_round_trip_exact(tmp_path):
    rng = np.random.default_rng(1)
    values = rng.normal(size=257) * 0.7 + 1j * rng.normal(size=257) * 0.7
    stream = quantize(values, Q1_15)
    path = tmp_path / "capture.iqpd"
    write_iq(path, stream)
    loaded = read_iq(path)
    assert loaded.format == Q1_15
    assert np.array_equal(loaded.i, stream.i)
    assert np.array_equal(loaded.q, stream.q)


def test_header_is_sixteen_bytes(tmp_path):
    stream = quantize([0.25 - 0.5j], Q1_15)
    path = tmp_path / "one.iqpd"
    write_iq(path, stream)
    raw = path.read_bytes()
    assert len(raw) == 16 + 4
    assert raw[:4] == MAGIC
    # little-endian int16 interleaved I,Q
    assert raw[16:18] == (8192).to_bytes(2, "little", signed=True)
    assert raw[18:20] == (-16384).to_bytes(2, "little", signed=True)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.iqpd"
    path.write_bytes(b"NOPE" + bytes(12))
    with pytest.raises(ValueError, match="magic"):
        read_iq(path)


def test_truncated_payload_rejected(tmp_path):
    stream = quantize([0.1 + 0.1j, 0.2 + 0.2j], Q1_15)
    path = tmp_path / "trunc.iqpd"
    write_iq(path, stream)
    path.write_bytes(path.read_bytes()[:-2])
    with pytest.raises(ValueError, match="declares"):
        read_iq(path)


def test_wide_format_rejected(tmp_path):
    fmt = FixedPointFormat.parse("uq1.15")  # codes up to 65535 do not fit int16
    stream = quantize([0.0 + 0.0j], fmt)
    with pytest.raises(ValueError, match="16-bit"):
        write_iq(tmp_path / "wide.iqpd", stream)


def test_alternate_format_survives(tmp_path):
    fmt = FixedPointFormat(12, 10, True)
    stream = quantize([0.3 - 0.3j], fmt)
    path = tmp_path / "alt.iqpd"
    write_iq(path, stream)
    assert read_iq(path).format == fmt
