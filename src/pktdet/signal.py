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
# caps the reference length so each partial, |p_xy| <= n, fits one.  Their
# sum re reaches 2n = 32,768 at the cap, one past int16, and needs 17 bits.
MAX_PREAMBLE_LEN = 1 << 14
# The energy gate's exceedance register holds one bit per window sample, so
# its width, and the longest window, is fixed too.
MAX_ENERGY_WINDOW = 1 << 16
# The longest zero pad on either side of an embedded preamble (256 MiB of
# complex128); a longer one is refused before anything is allocated.
MAX_PAD = 1 << 24

# Preamble components below this magnitude keep the mean power of the
# longest preamble finite: 2**14 samples of 2 * 2**1000 sum below 2**1016.
_MAX_PREAMBLE_MAGNITUDE = 2.0**500

# a value of this magnitude or more quantizes to a saturated code in every
# format (at most 16 bits, so |code| <= 2**15)
_SATURATING = float(1 << 16)
# the float64 just below one half: added to a scaled magnitude, it rounds
# k + 0.5 up to k + 1 yet leaves 0.5 - 2**-54 below 1, where adding 0.5
# itself would round that sum up to 1.0
_JUST_BELOW_HALF = float(np.nextafter(0.5, 0.0))


def _int_in(value, name: str, lo: int | None = None, hi: int | None = None) -> int:
    """``value`` as an int (NumPy's integers too) within [lo, hi], a bound
    of None being none: the one rule for an integer setting.  Anything
    else, a whole float say, raises ``ValueError`` naming ``name``."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer") from None
    if hi is not None and not lo <= value <= hi:
        raise ValueError(f"{name} must be in [{lo}, {hi}]")
    if lo is not None and value < lo:
        raise ValueError(f"{name} must be >= {lo}")
    return value


def _int_field(obj, name: str, lo: int | None = None, hi: int | None = None) -> int:
    """Store field ``name`` of the frozen dataclass ``obj`` as :func:`_int_in`
    returns it, and return it."""
    value = _int_in(getattr(obj, name), name, lo, hi)
    object.__setattr__(obj, name, value)
    return value


def _real(value, name: str):
    """``value``, if a real number of any type that a float can hold, else
    ``ValueError`` naming it."""
    try:
        math.isnan(value)  # a TypeError for a string, None or a complex
    except (TypeError, OverflowError):  # OverflowError: an int beyond a float
        raise ValueError(f"{name} must be a real number") from None
    return value


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
        total_bits = _int_field(self, "total_bits", 2, 16)
        _int_field(self, "fractional_bits", 0, total_bits - 1)

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


@dataclass(frozen=True, eq=False)
class SampleStream:
    """Immutable block of quantized I/Q samples.

    ``i`` and ``q`` hold raw integer codes; values are
    ``code * 2**-fractional_bits``.  ``saturation_count``, an integer in
    [0, 2n], records how many components were clipped during quantization.
    ``codes`` holds ``i`` and ``q`` as the rows of one read-only (2, n)
    int64 block, which every stage reads without a cast.  The constructor
    takes integer arrays of any width, checks every code against the format
    and copies them into a fresh block, so the caller's arrays stay theirs;
    a float or bool array is rejected.  A stream compares and hashes by
    identity."""

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
        _int_field(self, "saturation_count", 0, 2 * len(i))
        lo, hi = self.format.min_code, self.format.max_code
        # Python ints compare exactly whatever the arrays' integer type
        bounds = [int(f(arr)) for arr in (i, q) for f in (np.min, np.max)] if i.size else [0]
        if min(bounds) < lo or max(bounds) > hi:
            raise ValueError("sample codes out of range for the declared format")
        codes = np.empty((2, len(i)), dtype=np.int64)
        codes[0], codes[1] = i, q
        codes.flags.writeable = False  # immutable after construction
        self.__dict__.update(i=codes[0], q=codes[1], codes=codes)  # frozen fields

    @classmethod
    def _from_codes(
        cls, fmt: FixedPointFormat, pairs: np.ndarray, saturation_count: int = 0
    ) -> "SampleStream":
        """A stream over the (n, 2) code ``pairs``, cast in one strided pass to
        a fresh (2, n) int64 block, built without the range scan: only a
        caller that bounded every code may call it."""
        codes = pairs.T.astype(np.int64, order="C")
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
        i2, q2 = np.square(self.codes)
        energy = i2 + q2
        energy.flags.writeable = False
        return energy

    @cached_property
    def sign_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The I and Q component signs as read-only +-1 float64 arrays (a
        code of 0 counts as +1), built once and shared by every correlator."""
        signs = np.copysign(1.0, self.codes)  # an integer 0 casts to +0.0
        signs.flags.writeable = False
        return signs[0], signs[1]


@dataclass(frozen=True, eq=False)
class Preamble:
    """Full-precision (pre-quantization) reference sequence; compares and hashes by identity."""

    samples: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        samples = np.array(self.samples, dtype=np.complex128)
        if samples.ndim != 1 or not 1 <= len(samples) <= MAX_PREAMBLE_LEN:
            raise ValueError(f"preamble length must be in [1, {MAX_PREAMBLE_LEN}]")
        # the largest component magnitude, NaN where a component is NaN
        peak = float(np.abs(samples.view(np.float64)).max())
        if not math.isfinite(peak):  # a NaN has no sign, an inf no power
            raise ValueError("preamble samples must be finite")
        if peak >= _MAX_PREAMBLE_MAGNITUDE:
            raise ValueError(
                "preamble samples are too large: each component must be below "
                "2**500 (about 3.3e150), so their mean power stays finite"
            )
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)

    @property
    def length(self) -> int:
        return len(self.samples)

    @cached_property
    def mean_power(self) -> float:
        return float(np.mean(np.abs(self.samples) ** 2))


def prefix_sums(values, width: int) -> np.ndarray:
    """The int64 running sums down axis 0 of integer or boolean ``values``
    (1-D, or (n, k) summed per column) after ``width`` zero rows: entry
    ``k + width`` less entry ``k`` is the sum of the ``width``-long window
    ending at value k, the values read as preceded by ``width - 1`` zeros."""
    if width < 1:
        raise ValueError("width must be >= 1")
    values = np.asarray(values)
    csum = np.zeros((width + len(values), *values.shape[1:]), dtype=np.int64)
    # int64 counts a boolean input, which a bool-typed accumulate would OR;
    # add.accumulate runs about 1.3x faster than np.cumsum with the same
    # dtype and out
    np.add.accumulate(values, dtype=np.int64, out=csum[width:])
    return csum


def quantize(values, fmt: FixedPointFormat = Q1_15) -> SampleStream:
    """Quantize a 1-D sequence of complex values to a SampleStream (round
    half away from zero, saturate at the format bounds).

    Both components are rounded in one pass over the interleaved float64
    view.  NaN has no code and is rejected; +-inf saturates."""
    v = np.asarray(values, dtype=np.complex128)
    if v.ndim != 1:
        raise ValueError("i and q must be 1-D arrays of equal length")
    pairs = np.ascontiguousarray(v).view(np.float64).reshape(-1, 2)
    # round half away from zero, sign(x) * floor(|x| * scale + 1/2), in
    # place.  A magnitude of 2**16 or more saturates every format, so capping
    # it there first keeps the scaling finite.  Scaling by a power of two is
    # exact; the addition is not, so it adds the float just below 1/2, whose
    # sum floors to the exact rounding at every magnitude up to the cap
    rounded = np.minimum(np.abs(pairs), _SATURATING)
    rounded *= fmt.scale
    rounded += _JUST_BELOW_HALF
    np.floor(rounded, out=rounded)
    np.copysign(rounded, pairs, out=rounded)
    clipped = np.maximum(rounded, fmt.min_code)
    np.minimum(clipped, fmt.max_code, out=clipped)
    # a NaN never equals its clip, so it counts here and the NaN scan runs
    saturated = int(np.count_nonzero(rounded != clipped))
    if saturated and np.isnan(rounded).any():
        raise ValueError("cannot quantize NaN")
    return SampleStream._from_codes(fmt, clipped, saturated)


def embed_preamble(
    preamble: Preamble,
    pad_before: int,
    pad_after: int,
) -> tuple[np.ndarray, int]:
    """Build ``zeros(pad_before) ++ preamble ++ zeros(pad_after)``.

    Returns the signal and the ground-truth preamble start index
    (== ``pad_before``).  Each pad must lie in [0, MAX_PAD].
    """
    if not (0 <= pad_before <= MAX_PAD and 0 <= pad_after <= MAX_PAD):
        raise ValueError(f"pads must be in [0, {MAX_PAD}] samples")
    signal = np.zeros(pad_before + len(preamble.samples) + pad_after, dtype=np.complex128)
    signal[pad_before : len(signal) - pad_after] = preamble.samples
    return signal, pad_before


def add_awgn(signal, snr_db: float, seed, signal_power: float = 1.0) -> np.ndarray:
    """Add complex white Gaussian noise at the given SNR.

    SNR is defined against ``signal_power`` (the mean preamble sample power,
    not the padded signal's average), so 32- and 64-sample preambles see the
    same per-sample noise at a given SNR.  Per-component noise variance is
    ``signal_power / (2 * 10**(snr_db/10))``.  ``snr_db = +inf`` disables
    noise.  ``seed`` may be anything ``numpy.random.default_rng`` accepts,
    including an existing Generator; a fixed seed is bit-reproducible.

    The signal power and the SNR are checked by :func:`noise_sigma`.
    """
    sigma = noise_sigma(snr_db, signal_power)
    x = np.asarray(signal, dtype=np.complex128)
    if len(x) == 0:
        raise ValueError("signal must be non-empty")
    if snr_db == math.inf:
        return x.copy()
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, sigma, size=(len(x), 2))
    # complex addition is componentwise: add the signal into the noise pairs
    noise += np.ascontiguousarray(x).view(np.float64).reshape(-1, 2)
    return noise.view(np.complex128).ravel()


def noise_sigma(snr_db: float, signal_power: float) -> float:
    """The per-component noise standard deviation of :func:`add_awgn`,
    ``sqrt(signal_power / (2 * 10**(snr_db/10)))``, which is 0 at ``snr_db =
    +inf``.  A ``ValueError`` rejects a ``signal_power`` that is negative or
    not finite, and an SNR (NaN, -inf or of too large a magnitude) that
    leaves no finite noise level."""
    # Python floats: an overflow raises here instead of a numpy scalar warning
    snr_db = float(_real(snr_db, "snr_db"))
    signal_power = float(_real(signal_power, "signal_power"))
    if not (math.isfinite(signal_power) and signal_power >= 0):
        raise ValueError(f"signal_power must be finite and >= 0, got {signal_power}")
    try:
        sigma = math.sqrt(signal_power / (2.0 * 10.0 ** (snr_db / 10.0)))
    except (OverflowError, ZeroDivisionError):  # 10**(snr/10) overflowed or reached 0
        sigma = math.inf
    if not math.isfinite(sigma):  # also a NaN SNR
        raise ValueError(f"snr_db {snr_db} gives no finite noise level")
    return sigma


def seed_words(*values) -> np.ndarray:
    """The uint32 words numpy's ``SeedSequence`` makes of the tuple ``values``
    of non-negative integers (each least significant word first, 0 as one
    zero word), which draw the tuple's stream without its per-item
    conversion: the one rule for a user's seed.  A value that is not an
    integer (:func:`_int_in`) or is negative raises ``ValueError``."""
    words: list[int] = []
    for value in values:
        value = _int_in(value, "seed")
        if value < 0:
            raise ValueError(f"seed must be non-negative, got {value}")
        words.append(value & 0xFFFFFFFF)  # 0 too: one zero word
        for shift in range(32, value.bit_length(), 32):
            words.append((value >> shift) & 0xFFFFFFFF)
    return np.array(words, dtype=np.uint32)


def pn_preamble(length: int, seed) -> Preamble:
    """Pseudo-noise preamble with unit mean sample power.

    Components take values +-1/sqrt(2) (QPSK-style signs drawn from the
    seeded RNG).  Constant modulus keeps the sign pattern well defined for
    every sample, so the sign correlator's ideal peak is exactly twice the
    length.  The length is checked before the signs are drawn.
    """
    length = _int_in(length, "preamble length", 1, MAX_PREAMBLE_LEN)
    rng = np.random.default_rng(seed)
    signs = rng.integers(0, 2, size=(2, length)) * 2 - 1
    amp = 1.0 / math.sqrt(2.0)
    return Preamble(amp * (signs[0] + 1j * signs[1]))
