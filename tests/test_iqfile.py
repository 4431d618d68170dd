import os
import re
import threading

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from pktdet.iqfile import _HEADER, MAGIC, _format, read_iq, write_iq
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


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
def test_pipe_is_read_to_eof(tmp_path):
    # a pipe reports size 0, so the whole capture arrives only if the read
    # goes on to EOF; 80,016 bytes overflow a pipe's 64 KiB buffer, so a
    # writer thread feeds them while the reader drains
    rng = np.random.default_rng(3)
    stream = quantize(rng.normal(size=20000) * 0.3 + 1j * rng.normal(size=20000) * 0.3, Q1_15)
    path = tmp_path / "capture.iqpd"
    write_iq(path, stream)
    r, w = os.pipe()

    def feed():
        with open(w, "wb") as sink:  # closing it is the reader's EOF
            sink.write(path.read_bytes())

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        loaded = read_iq(f"/dev/fd/{r}")
    finally:
        os.close(r)  # a blocked writer then fails instead of waiting
        writer.join()
    assert loaded.codes.tolist() == stream.codes.tolist()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
def test_failed_reads_close_their_descriptors(tmp_path):
    empty = tmp_path / "empty.iqpd"
    empty.write_bytes(b"")
    before = len(os.listdir("/proc/self/fd"))
    for _ in range(100):
        with pytest.raises(IsADirectoryError, match=re.escape(str(tmp_path))):
            read_iq(tmp_path)  # named, as open() names it
        with pytest.raises(ValueError, match="too short"):
            read_iq(empty)
    assert len(os.listdir("/proc/self/fd")) == before


def test_bad_format_is_not_memoised(tmp_path):
    path = tmp_path / "bad.iqpd"
    path.write_bytes(_HEADER.pack(MAGIC, 1, 17, 3, 1, 0))  # 17 bits: no such format
    cached = _format.cache_info().currsize
    with pytest.raises(ValueError, match="total_bits"):
        read_iq(path)
    assert _format.cache_info().currsize == cached
    write_iq(path, quantize([0.5j], FixedPointFormat(9, 4)))
    assert read_iq(path).format is read_iq(path).format  # a valid one is


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.iqpd"
    path.write_bytes(b"NOPE" + bytes(12))
    with pytest.raises(ValueError, match="magic"):
        read_iq(path)


def test_other_version_rejected(tmp_path):
    path = tmp_path / "v2.iqpd"
    write_iq(path, quantize([0.1 + 0.1j], Q1_15))
    raw = bytearray(path.read_bytes())
    raw[4] = 2  # the container version byte
    path.write_bytes(raw)
    with pytest.raises(ValueError, match="^unsupported IQPD version 2$"):
        read_iq(path)


def test_truncated_payload_rejected(tmp_path):
    stream = quantize([0.1 + 0.1j, 0.2 + 0.2j], Q1_15)
    path = tmp_path / "trunc.iqpd"
    write_iq(path, stream)
    path.write_bytes(path.read_bytes()[:-2])
    with pytest.raises(ValueError, match="declares"):
        read_iq(path)


def test_unsigned_flags_rejected(tmp_path):
    stream = quantize([0.1 + 0.1j], Q1_15)
    path = tmp_path / "unsigned.iqpd"
    write_iq(path, stream)
    raw = bytearray(path.read_bytes())
    assert raw[7] == 1  # the writer always marks two's-complement codes
    raw[7] = 0
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="flags"):
        read_iq(path)


def test_alternate_format_survives(tmp_path):
    fmt = FixedPointFormat(12, 10)
    stream = quantize([0.3 - 0.3j], fmt)
    path = tmp_path / "alt.iqpd"
    write_iq(path, stream)
    assert read_iq(path).format == fmt


headers = st.builds(
    _HEADER.pack,
    st.sampled_from([MAGIC, b"IQPX"]),
    st.sampled_from([1, 1, 1, 2]),
    st.integers(0, 20) | st.integers(0, 255),
    st.integers(0, 20) | st.integers(0, 255),
    st.sampled_from([1, 1, 1, 0, 3]),
    st.integers(0, 12) | st.integers(0, 2**64 - 1),
)
payloads = st.binary(max_size=48) | st.lists(st.integers(-32768, 32767), max_size=24).map(
    lambda codes: np.array(codes, dtype="<i2").tobytes()
)


@example(header=_HEADER.pack(MAGIC, 1, 8, 7, 1, 1), payload=b"\x80\x00\x00\x00")  # I = 128
@example(header=_HEADER.pack(MAGIC, 1, 2, 1, 1, 1), payload=b"\x00\x00\xfe\xff")  # Q = -2
@given(headers, payloads)
def test_no_input_gets_past_unchecked(tmp_path_factory, header, payload):
    # an IQPD file gives a ValueError or a stream whose codes lie inside its
    # format; a stored int16 code can exceed a format narrower than 16 bits
    path = tmp_path_factory.mktemp("fuzz") / "capture.iqpd"
    path.write_bytes(header + payload)
    try:
        stream = read_iq(path)
    except ValueError:
        return
    fmt = stream.format
    assert len(stream) == _HEADER.unpack_from(header)[-1] == len(payload) // 4
    for codes in (stream.i, stream.q):
        assert all(fmt.min_code <= c <= fmt.max_code for c in codes.tolist())


@pytest.mark.parametrize("total_bits, code", [(8, 128), (8, -129), (2, 2), (12, -2049)])
def test_out_of_range_code_rejected(tmp_path, total_bits, code):
    header = _HEADER.pack(MAGIC, 1, total_bits, total_bits - 1, 1, 1)
    path = tmp_path / "wide.iqpd"
    path.write_bytes(header + np.array([0, code], dtype="<i2").tobytes())
    with pytest.raises(ValueError, match="out of range"):
        read_iq(path)
