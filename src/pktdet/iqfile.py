"""Binary I/Q capture files.

Layout: a 16-byte header followed by little-endian interleaved I,Q pairs
stored as 16-bit signed integers (the raw fixed-point codes).

    offset  size  field
    0       4     magic "IQPD"
    4       1     container version (1)
    5       1     total bits of the fixed-point format
    6       1     fractional bits
    7       1     flags (1: two's-complement codes, the only value)
    8       8     sample count, unsigned little-endian

Every format's codes fit int16, since formats are signed and at most 16
bits wide.

``read_iq`` reads the file through an unbuffered file object's ``readall``,
which reads on to EOF, so a pipe (which reports size 0) or a short read
still arrives whole.  It takes its ``FixedPointFormat`` from a memo keyed
on the header's two format bytes; a format that fails validation is not
memoised.
"""

from __future__ import annotations

import functools
import struct

import numpy as np

from .signal import FixedPointFormat, SampleStream

MAGIC = b"IQPD"
VERSION = 1
_HEADER = struct.Struct("<4sBBBBQ")
_FLAG_SIGNED = 0x01

# a raised ValueError is not cached, and at most 135 formats are valid
_format = functools.cache(FixedPointFormat)


def write_iq(path, stream: SampleStream) -> None:
    fmt = stream.format
    header = _HEADER.pack(
        MAGIC, VERSION, fmt.total_bits, fmt.fractional_bits, _FLAG_SIGNED, len(stream)
    )
    # one strided cast interleaves I and Q, the mirror of read_iq's
    interleaved = stream.codes.T.astype("<i2", order="C")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(interleaved)


def read_iq(path) -> SampleStream:
    with open(path, "rb", buffering=0) as fh:
        raw = fh.readall()
    if len(raw) < _HEADER.size:
        raise ValueError("file too short for an IQPD header")
    magic, version, total_bits, frac_bits, flags, count = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise ValueError("not an IQPD file (bad magic)")
    if version != VERSION:
        raise ValueError(f"unsupported IQPD version {version}")
    if flags != _FLAG_SIGNED:
        raise ValueError(f"unsupported IQPD flags {flags:#04x} (only signed codes)")
    fmt = _format(total_bits, frac_bits)
    payload = len(raw) - _HEADER.size
    if payload != 4 * count:
        raise ValueError(f"payload holds {payload // 4} samples but header declares {count}")
    pairs = np.frombuffer(raw, dtype="<i2", offset=_HEADER.size).reshape(-1, 2)
    if fmt.total_bits < 16:  # a stored int16 code can exceed the format: scan
        return SampleStream(format=fmt, i=pairs[:, 0], q=pairs[:, 1])
    return SampleStream._from_codes(fmt, pairs)
