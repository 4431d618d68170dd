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
from dataclasses import dataclass, field

import numpy as np

# Correlator partial sums are accumulated in >=16-bit signed registers; this
# caps the reference length so |re| <= 2n can never overflow them.
MAX_PREAMBLE_LEN = 1 << 14


@dataclass(frozen=True)
class FixedPointFormat:
    """Two's-complement (or unsigned) fixed-point format for one I/Q component.

    At most 16 bits: every stage squares and sums codes in int64, the energy
    threshold register holds a squared code in 32 bits, and IQPD captures
    store int16.
    """

    total_bits: int = 16
    fractional_bits: int = 15
    signed: bool = True

    def __post_init__(self) -> None:
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
        return -(1 << (self.total_bits - 1)) if self.signed else 0

    @property
    def max_code(self) -> int:
        return (1 << (self.total_bits - 1)) - 1 if self.signed else (1 << self.total_bits) - 1

    @property
    def step(self) -> float:
        """Value of one LSB."""
        return 2.0 ** -self.fractional_bits

    def name(self) -> str:
        prefix = "q" if self.signed else "uq"
        return f"{prefix}{self.total_bits - self.fractional_bits}.{self.fractional_bits}"

    @classmethod
    def parse(cls, text: str) -> "FixedPointFormat":
        """Parse a format name like ``q1.15`` (signed) or ``uq2.14`` (unsigned)."""
        s = text.strip().lower()
        signed = True
        if s.startswith("uq"):
            signed = False
            s = s[2:]
        elif s.startswith("q"):
            s = s[1:]
        else:
            raise ValueError(f"unrecognized fixed-point format {text!r}")
        try:
            int_part, frac_part = s.split(".")
            integer_bits = int(int_part)
            fractional_bits = int(frac_part)
        except ValueError:
            raise ValueError(f"unrecognized fixed-point format {text!r}") from None
        return cls(integer_bits + fractional_bits, fractional_bits, signed)


Q1_15 = FixedPointFormat(16, 15, True)


@dataclass(frozen=True)
class SampleStream:
    """Immutable block of quantized I/Q samples.

    ``i`` and ``q`` hold raw integer codes (int32); values are
    ``code * 2**-fractional_bits``.  ``saturation_count`` records how many
    components were clipped during quantization.
    """

    format: FixedPointFormat
    i: np.ndarray
    q: np.ndarray
    saturation_count: int = 0

    def __post_init__(self) -> None:
        if self.i.shape != self.q.shape or self.i.ndim != 1:
            raise ValueError("i and q must be 1-D arrays of equal length")
        lo, hi = self.format.min_code, self.format.max_code
        for arr in (self.i, self.q):
            if len(arr) and (arr.min() < lo or arr.max() > hi):
                raise ValueError("sample codes out of range for the declared format")
            arr.flags.writeable = False  # immutable after construction

    def __len__(self) -> int:
        return len(self.i)

    def to_complex(self) -> np.ndarray:
        """Exact float values of the stored codes (power-of-two scaling)."""
        step = self.format.step
        return self.i.astype(np.float64) * step + 1j * self.q.astype(np.float64) * step


@dataclass(frozen=True)
class Preamble:
    """Known reference sequence at full precision (pre-quantization)."""

    id: str
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

    def mean_power(self) -> float:
        return float(np.mean(np.abs(self.samples) ** 2))


def _quantize_component(values: np.ndarray, fmt: FixedPointFormat) -> tuple[np.ndarray, int]:
    scaled = values * fmt.scale
    # round half away from zero; exact for |scaled| < 2**52
    rounded = np.sign(scaled) * np.floor(np.abs(scaled) + 0.5)
    clipped = np.clip(rounded, fmt.min_code, fmt.max_code)
    saturated = int(np.count_nonzero(rounded != clipped))
    return clipped.astype(np.int32), saturated


def quantize(values, fmt: FixedPointFormat = Q1_15) -> SampleStream:
    """Quantize complex values to a SampleStream (round to nearest, saturate)."""
    v = np.asarray(values, dtype=np.complex128)
    i_codes, sat_i = _quantize_component(v.real, fmt)
    q_codes, sat_q = _quantize_component(v.imag, fmt)
    return SampleStream(format=fmt, i=i_codes, q=q_codes, saturation_count=sat_i + sat_q)


def embed_preamble(
    preamble: Preamble,
    pad_before: int,
    pad_after: int,
    payload=None,
) -> tuple[np.ndarray, int]:
    """Build ``zeros(pad_before) ++ preamble ++ payload ++ zeros(pad_after)``.

    Returns the signal and the ground-truth preamble start index
    (== ``pad_before``).
    """
    if pad_before < 0 or pad_after < 0:
        raise ValueError("pads must be non-negative")
    parts = [np.zeros(pad_before, dtype=np.complex128), preamble.samples]
    if payload is not None:
        parts.append(np.asarray(payload, dtype=np.complex128))
    parts.append(np.zeros(pad_after, dtype=np.complex128))
    return np.concatenate(parts), pad_before


def add_awgn(signal, snr_db: float, seed, signal_power: float = 1.0) -> np.ndarray:
    """Add complex white Gaussian noise at the given SNR.

    SNR is defined against ``signal_power`` (the mean preamble sample power,
    not the padded signal's average), so 32- and 64-sample preambles see the
    same per-sample noise at a given SNR.  Per-component noise variance is
    ``signal_power / (2 * 10**(snr_db/10))``.  ``snr_db = +inf`` disables
    noise.  ``seed`` may be anything ``numpy.random.default_rng`` accepts,
    including an existing Generator; a fixed seed is bit-reproducible.
    """
    x = np.asarray(signal, dtype=np.complex128)
    if len(x) == 0:
        raise ValueError("signal must be non-empty")
    if math.isinf(snr_db) and snr_db > 0:
        return x.copy()
    sigma = math.sqrt(signal_power / (2.0 * 10.0 ** (snr_db / 10.0)))
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, sigma, size=(len(x), 2))
    return x + noise[:, 0] + 1j * noise[:, 1]


def pn_preamble(name: str, length: int, seed) -> Preamble:
    """Pseudo-noise preamble with unit mean sample power.

    Components take values +-1/sqrt(2) (QPSK-style signs drawn from the
    seeded RNG).  Constant modulus keeps the sign pattern well defined for
    every sample, so the sign correlator's ideal peak is exactly twice the
    length.
    """
    rng = np.random.default_rng(seed)
    signs = rng.integers(0, 2, size=(2, length)) * 2 - 1
    amp = 1.0 / math.sqrt(2.0)
    return Preamble(id=name, samples=amp * (signs[0] + 1j * signs[1]))
