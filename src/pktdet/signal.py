"""Sample-domain model: fixed-point formats, quantized I/Q streams, reference
preambles, and the test-signal generator (preamble embedding + AWGN).

The detector pipeline operates on integer fixed-point codes, mirroring the
datapath of a fixed-point hardware implementation.  Every float-to-code
conversion happens here, exactly once (``quantize``), so downstream stages
can run pure integer arithmetic with no hidden rounding.

Conventions:
  * A code ``c`` in format ``qT.F`` represents the value ``c * 2**-F``.
  * Rounding is round-half-away-from-zero with saturation at the format
    bounds; saturations are counted, never raised.
  * All sample indices reported by pipeline stages are local to the stream
    (0-based).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# Correlator partial sums are accumulated in >=16-bit signed registers; this
# caps the reference length so |re| <= 2n can never overflow them.
MAX_PREAMBLE_LEN = 1 << 14

# a value of this magnitude or more quantizes to a saturated code in every
# format (at most 16 bits, so |code| <= 2**15)
_SATURATING = float(1 << 16)


def _int_fields(obj, *names: str) -> None:
    """Store each named field of the frozen dataclass ``obj`` as an int, any
    integer (NumPy's included) being accepted; anything else, a whole float
    say, would fail later in the integer stages and raises ``ValueError``."""
    for name in names:
        try:
            object.__setattr__(obj, name, operator.index(getattr(obj, name)))
        except TypeError:
            raise ValueError(f"{name} must be an integer") from None


@dataclass(frozen=True)
class FixedPointFormat:
    """Two's-complement fixed-point format for one I/Q component.

    Signed only: the fine stage correlates component signs, which an
    unsigned code would fix at +1.  At most 16 bits: every stage squares
    and sums codes in int64, the energy threshold register holds a squared
    code in 32 bits, and IQPD captures store int16.
    """

    total_bits: int = 16
    fractional_bits: int = 15

    def __post_init__(self) -> None:
        _int_fields(self, "total_bits", "fractional_bits")
        if not 2 <= self.total_bits <= 16:
            raise ValueError(f"total_bits must be in [2, 16], got {self.total_bits}")
        if not 0 <= self.fractional_bits < self.total_bits:
            raise ValueError(
                f"fractional_bits must be in [0, total_bits), got {self.fractional_bits}"
            )

    @property
    def scale(self) -> int:
        return 1 << self.fractional_bits

    @property
    def min_code(self) -> int:
        return -(1 << (self.total_bits - 1))

    @property
    def max_code(self) -> int:
        return (1 << (self.total_bits - 1)) - 1

    @classmethod
    def parse(cls, text: str) -> "FixedPointFormat":
        """Parse a signed format name like ``q1.15``."""
        s = text.strip().lower()
        if not s.startswith("q"):
            raise ValueError(f"unrecognized fixed-point format {text!r}")
        try:
            int_part, frac_part = s[1:].split(".")
            integer_bits = int(int_part)
            fractional_bits = int(frac_part)
        except ValueError:
            raise ValueError(f"unrecognized fixed-point format {text!r}") from None
        return cls(integer_bits + fractional_bits, fractional_bits)


Q1_15 = FixedPointFormat(16, 15)


@dataclass(frozen=True)
class SampleStream:
    """Immutable block of quantized I/Q samples.

    ``i`` and ``q`` hold raw integer codes (int32); values are
    ``code * 2**-fractional_bits``.  ``saturation_count`` records how many
    components were clipped during quantization.  ``codes`` holds ``i`` and
    ``q`` as the rows of one read-only (2, n) block, which every stage
    reads.  The constructor takes integer arrays of any width, checks every
    code against the format and copies them into a fresh block, so the
    caller's arrays stay theirs; a float or bool array is rejected."""

    format: FixedPointFormat
    i: np.ndarray
    q: np.ndarray
    saturation_count: int = 0
    codes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        i, q = np.asarray(self.i), np.asarray(self.q)
        if i.shape != q.shape or i.ndim != 1:
            raise ValueError("i and q must be 1-D arrays of equal length")
        if i.dtype.kind not in "iu" or q.dtype.kind not in "iu":
            raise ValueError(f"i and q must hold integer codes, not {i.dtype} and {q.dtype}")
        lo, hi = self.format.min_code, self.format.max_code
        # Python ints compare exactly whatever the arrays' integer type
        bounds = [int(f(arr)) for arr in (i, q) for f in (np.min, np.max)] if i.size else [0]
        if min(bounds) < lo or max(bounds) > hi:
            raise ValueError("sample codes out of range for the declared format")
        codes = np.empty((2, len(i)), dtype=np.int32)
        codes[0], codes[1] = i, q
        codes.flags.writeable = False  # immutable after construction
        self.__dict__.update(i=codes[0], q=codes[1], codes=codes)  # frozen fields

    @classmethod
    def _from_codes(
        cls, fmt: FixedPointFormat, codes: np.ndarray, saturation_count: int = 0
    ) -> "SampleStream":
        """A stream over the rows of a fresh (2, n) int32 array, built without
        the range scan: only a caller that bounded every code may call it."""
        codes.flags.writeable = False
        stream = object.__new__(cls)
        stream.__dict__.update(
            format=fmt, i=codes[0], q=codes[1], saturation_count=saturation_count, codes=codes
        )
        return stream

    def __len__(self) -> int:
        return len(self.i)

    @cached_property
    def energy(self) -> np.ndarray:
        """The per-sample energy ``i**2 + q**2``, exact in read-only int64."""
        energy = np.add(*np.square(self.codes, dtype=np.int64))
        energy.flags.writeable = False
        return energy

    @cached_property
    def sign_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The I and Q component signs as read-only +-1 float64 arrays (a
        code of 0 counts as +1), built once and shared by every correlator."""
        signs = np.copysign(1.0, self.codes)  # an integer 0 casts to +0.0
        signs.flags.writeable = False
        return signs[0], signs[1]


@dataclass(frozen=True)
class Preamble:
    """Known reference sequence at full precision (pre-quantization)."""

    samples: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        samples = np.array(self.samples, dtype=np.complex128)
        if samples.ndim != 1 or not 1 <= len(samples) <= MAX_PREAMBLE_LEN:
            raise ValueError(f"preamble length must be in [1, {MAX_PREAMBLE_LEN}]")
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)

    @property
    def length(self) -> int:
        return len(self.samples)

    @cached_property
    def mean_power(self) -> float:
        return float(np.mean(np.abs(self.samples) ** 2))


def window_sums(values, width: int) -> np.ndarray:
    """Sum of the ``width``-long window of integer or boolean ``values``
    ending at each index, from one int64 prefix sum.

    Entry k sums ``values[max(0, k - width + 1) : k + 1]``, one entry per
    value: the values are read as preceded by ``width - 1`` zeros.
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    # the prefix sum lands after the zero padding and one more zero
    csum = np.zeros(width + len(values), dtype=np.int64)
    np.cumsum(values, dtype=np.int64, out=csum[width:])
    return csum[width:] - csum[: len(values)]


def quantize(values, fmt: FixedPointFormat = Q1_15) -> SampleStream:
    """Quantize a 1-D sequence of complex values to a SampleStream (round
    half away from zero, saturate at the format bounds).

    Both components are rounded in one pass over the interleaved float64
    view.  NaN has no code and is rejected; +-inf saturates."""
    v = np.asarray(values, dtype=np.complex128)
    if v.ndim != 1:
        raise ValueError("i and q must be 1-D arrays of equal length")
    pairs = np.ascontiguousarray(v).view(np.float64).reshape(-1, 2)
    # round half away from zero, sign(x) * floor(|x| * scale + 0.5), in
    # place.  A magnitude of 2**16 or more saturates every format, so capping
    # it there first keeps the scaling finite; below 2**16 every step is exact
    rounded = np.minimum(np.abs(pairs), _SATURATING)
    rounded *= fmt.scale
    rounded += 0.5
    np.floor(rounded, out=rounded)
    np.copysign(rounded, pairs, out=rounded)
    clipped = np.maximum(rounded, fmt.min_code)
    np.minimum(clipped, fmt.max_code, out=clipped)
    # a NaN never equals its clip, so it counts here and the NaN scan runs
    saturated = int(np.count_nonzero(rounded != clipped))
    if saturated and np.isnan(rounded).any():
        raise ValueError("cannot quantize NaN")
    codes = clipped.T.astype(np.int32, order="C")  # contiguous i and q rows
    return SampleStream._from_codes(fmt, codes, saturated)


def embed_preamble(
    preamble: Preamble,
    pad_before: int,
    pad_after: int,
) -> tuple[np.ndarray, int]:
    """Build ``zeros(pad_before) ++ preamble ++ zeros(pad_after)``.

    Returns the signal and the ground-truth preamble start index
    (== ``pad_before``).
    """
    if pad_before < 0 or pad_after < 0:
        raise ValueError("pads must be non-negative")
    parts = [
        np.zeros(pad_before, dtype=np.complex128),
        preamble.samples,
        np.zeros(pad_after, dtype=np.complex128),
    ]
    return np.concatenate(parts), pad_before


def add_awgn(signal, snr_db: float, seed, signal_power: float = 1.0) -> np.ndarray:
    """Add complex white Gaussian noise at the given SNR.

    SNR is defined against ``signal_power`` (the mean preamble sample power,
    not the padded signal's average), so 32- and 64-sample preambles see the
    same per-sample noise at a given SNR.  Per-component noise variance is
    ``signal_power / (2 * 10**(snr_db/10))``.  ``snr_db = +inf`` disables
    noise.  ``seed`` may be anything ``numpy.random.default_rng`` accepts,
    including an existing Generator; a fixed seed is bit-reproducible.

    A ``ValueError`` rejects a ``signal_power`` that is negative or not
    finite, and an SNR (NaN, -inf or of too large a magnitude) that leaves
    no finite noise level.
    """
    # Python floats: an overflow raises here instead of a numpy scalar warning
    snr_db, signal_power = float(snr_db), float(signal_power)
    if not (math.isfinite(signal_power) and signal_power >= 0):
        raise ValueError(f"signal_power must be finite and >= 0, got {signal_power}")
    x = np.asarray(signal, dtype=np.complex128)
    if len(x) == 0:
        raise ValueError("signal must be non-empty")
    if math.isinf(snr_db) and snr_db > 0:
        return x.copy()
    try:
        sigma = math.sqrt(signal_power / (2.0 * 10.0 ** (snr_db / 10.0)))
    except (OverflowError, ZeroDivisionError):  # 10**(snr/10) overflowed or reached 0
        sigma = math.inf
    if not math.isfinite(sigma):  # also a NaN SNR
        raise ValueError(f"snr_db {snr_db} gives no finite noise level")
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, sigma, size=(len(x), 2))
    # complex addition is componentwise: add the signal into the noise pairs
    noise += np.ascontiguousarray(x).view(np.float64).reshape(-1, 2)
    return noise.view(np.complex128).ravel()


def pn_preamble(length: int, seed) -> Preamble:
    """Pseudo-noise preamble with unit mean sample power.

    Components take values +-1/sqrt(2) (QPSK-style signs drawn from the
    seeded RNG).  Constant modulus keeps the sign pattern well defined for
    every sample, so the sign correlator's ideal peak is exactly twice the
    length.
    """
    rng = np.random.default_rng(seed)
    signs = rng.integers(0, 2, size=(2, length)) * 2 - 1
    amp = 1.0 / math.sqrt(2.0)
    return Preamble(amp * (signs[0] + 1j * signs[1]))
