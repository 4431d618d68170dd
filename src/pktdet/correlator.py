"""Sign-quantized cross-correlation (fine detection).

Received samples are reduced to their component signs (+-1, with a code of
0 counting as +1), and the reference preamble's component signs are packed
into 32-bit coefficient words, one bit per sample component (bit = 1 for a
component >= 0).  An n-point correlation then needs no multipliers: a sign
product is +1 exactly when the two sign bits agree.  The four partial sums
combine into the complex correlation:

    re = p_ii + p_qq        im = p_qi - p_iq

where p_xy correlates received component x against reference component y.
At perfect alignment every bit agrees, giving the ideal maximum re = 2n
(64 for a 32-point bank, 128 for a 64-point bank) and im = 0.

Alignment convention: the newest window sample lines up with the *last*
reference coefficient (matched-filter orientation), so the peak for a
preamble starting at stream index s lands at output index s + n - 1.

The detection decision elsewhere in the pipeline compares ``re`` against a
threshold, so the batch path computes only ``re``: p_ii + p_qq as dot
products of +-1 sign arrays, one ``np.correlate`` per partial.  It computes
only the windows from the first to the last enabled position, so idle air
the gate keeps closed before and after a packet costs no correlation.
Given the threshold t, an int in [0, 2**32 - 1], it also skips p_qq
wherever it cannot matter: p_qq <= n, so ``re`` can reach t only where
p_ii >= t - n, and p_qq is computed only over the span of those
positions; p_ii >= -n, so the default t = 0 keeps every position.  The
sample-at-a-time model of the hardware's XNOR/popcount datapath, with all
four partials, is :class:`pktdet.standards.DetectorBank`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .signal import Preamble, SampleStream, _int_in, prefix_sums

WORD_BITS = 32
WORD_MASK = 0xFFFFFFFF


@dataclass(frozen=True)
class CoefficientBank:
    """Reference preamble signs packed into 32-bit words.

    Bit k of word w (for I and Q separately) holds the sign of reference
    sample ``32*w + k``: 1 for a component >= 0, 0 for a component < 0.
    The length (>= 1) and each word (in [0, 2**32 - 1]) take the one
    integer rule (:func:`pktdet.signal._int_in`), and the words are stored
    as tuples of ints, ceil(length / 32) per component.  Bits past sample
    ``length - 1`` are zero, so a 16-point reference fills half of one word
    pair and a 64-point reference fills two pairs.  ``_packed`` holds each
    component's words joined into one integer, bit k = reference sample k.
    """

    length: int
    i_words: tuple[int, ...]
    q_words: tuple[int, ...]

    def __post_init__(self) -> None:
        length = _int_in(self.length, "bank length", 1)
        object.__setattr__(self, "length", length)
        packed = []
        for name in ("i_words", "q_words"):
            words = getattr(self, name)
            words = tuple(_int_in(w, "coefficient word", 0, WORD_MASK) for w in words)
            if len(words) != words_for(length):
                raise ValueError("word count must be ceil(length / 32) for I and Q")
            bits = _join_words(words)
            if bits >> length:
                raise ValueError(f"bits past sample {length - 1} must be zero")
            object.__setattr__(self, name, words)
            packed.append(bits)
        object.__setattr__(self, "_packed", tuple(packed))

    @cached_property
    def sign_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The I and Q reference signs as +-1 int64 arrays in sample order;
        built on first use, so a bank that only streams never pays for it."""
        size = -(-self.length // 8)  # bytes per component
        raw = b"".join(joined.to_bytes(size, "little") for joined in self._packed)
        bits = np.frombuffer(raw, np.uint8).reshape(2, size)
        bits = np.unpackbits(bits, axis=1, count=self.length, bitorder="little")
        signs = 2 * bits.astype(np.int64) - 1
        signs.flags.writeable = False
        return signs[0], signs[1]


def words_for(length: int) -> int:
    """Number of 32-bit words that hold ``length`` sign bits."""
    return -(-length // WORD_BITS)


def _join_words(words: tuple[int, ...]) -> int:
    # word w holds bits 32*w ... 32*w + 31 of the little-endian integer
    return int.from_bytes(np.array(words, dtype="<u4").tobytes(), "little")


def load_coefficients(preamble: Preamble) -> CoefficientBank:
    """Pack the reference's component signs into a coefficient bank."""
    samples = preamble.samples
    count = words_for(preamble.length)
    words = []
    for signs in (samples.real >= 0, samples.imag >= 0):
        joined = int.from_bytes(np.packbits(signs, bitorder="little").tobytes(), "little")
        words.append(tuple(joined >> (WORD_BITS * w) & WORD_MASK for w in range(count)))
    return CoefficientBank(preamble.length, *words)


def dump_bank(bank: CoefficientBank) -> str:
    """Textual coefficient dump: ``n=<length>`` then one 32-bit hex word per
    line, I words first, then Q words."""
    lines = [f"n={bank.length}"]
    lines += [f"{w:08x}" for w in bank.i_words]
    lines += [f"{w:08x}" for w in bank.q_words]
    return "\n".join(lines) + "\n"


def parse_bank(text: str) -> CoefficientBank:
    """Parse the :func:`dump_bank` format."""
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("n="):
        raise ValueError("coefficient dump must start with 'n=<length>'")
    length = int(lines[0][2:])
    expected_words = words_for(length)
    words = [int(ln, 16) for ln in lines[1:]]
    if len(words) != 2 * expected_words:
        raise ValueError(
            f"expected {2 * expected_words} words for a {length}-point bank, got {len(words)}"
        )
    return CoefficientBank(
        length=length,
        i_words=tuple(words[:expected_words]),
        q_words=tuple(words[expected_words:]),
    )


@dataclass(slots=True)
class CorrelatorOutput:
    """The four sign partial sums; ``re`` is the detection statistic.

    A plain mutable record (not frozen): ``DetectorBank.push`` builds one
    per profile per enabled sample with ``object.__new__`` and four slot
    stores, skipping the ``__init__`` frame, which a frozen dataclass could
    not.  It stays a dataclass for ``==``, ``repr`` and
    ``dataclasses.replace``."""

    p_ii: int
    p_qq: int
    p_qi: int
    p_iq: int

    @property
    def re(self) -> int:
        return self.p_ii + self.p_qq


class SignCorrelator:
    """Batch sign correlator for one coefficient bank.

    :meth:`process` correlates a whole stream from an empty window and
    reports the enabled positions where the window is full and ``re`` can
    still reach ``threshold`` (the profile's decoded threshold word, an
    integer in [0, 2**32 - 1]; the default 0 keeps every such position).
    ``work_count`` tallies every enabled full-window position over every
    call (the energy gate's power-saving contract).
    """

    def __init__(self, bank: CoefficientBank, threshold: int = 0) -> None:
        self.bank = bank
        # an int: a NumPy uint32 would wrap in threshold - n
        self.threshold = _int_in(threshold, "threshold", 0, WORD_MASK)
        self.work_count = 0

    def process(self, stream: SampleStream, enable=None) -> tuple[np.ndarray, np.ndarray]:
        """Correlate a whole stream, starting from an empty window.

        Returns ``(index, re)``: the enabled positions where the window is
        full, and the int64 ``re = p_ii + p_qq`` at those positions.
        ``enable`` must be one-dimensional and match the stream length when
        given.  Only the windows from the first to the last of those
        positions are computed, and only the positions where p_ii >= t - n
        for the threshold t are returned (the others have ``re < t``), with
        their exact ``re``; at t = 0 that is every one of them.
        ``work_count`` counts every enabled full-window position.
        """
        length = len(stream)
        enable = np.ones(length, dtype=bool) if enable is None else np.asarray(enable, dtype=bool)
        if enable.shape != (length,):
            raise ValueError("enable must have one entry per stream sample")
        n = self.bank.length
        # enabled positions, less n - 1, the first position with a full
        # window (nonzero skips flatnonzero's ravel)
        index = enable[n - 1 :].nonzero()[0]
        self.work_count += len(index)
        s_i, s_q = stream.sign_arrays
        ref_i, ref_q = self.bank.sign_arrays
        re = _correlate_at(s_i, ref_i, index)
        keep = re >= self.threshold - n  # p_qq <= n
        index, re = index[keep], re[keep]
        re += _correlate_at(s_q, ref_q, index)
        return index + (n - 1), re.astype(np.int64)


def _correlate_at(signs: np.ndarray, ref: np.ndarray, index: np.ndarray) -> np.ndarray:
    """The float64 correlation of ``ref`` with ``signs[k : k + len(ref)]``
    for each k of the increasing ``index``: one ``np.correlate`` over their
    span, gathered where it has a gap.  float64 takes numpy's fast dot path;
    every term is +-1, so each sum is an integer far below 2**53, and exact."""
    count = len(index)
    if not count:
        return np.zeros(0)
    lo, hi = int(index[0]), int(index[-1])
    out = np.correlate(signs[lo : hi + len(ref)], ref)
    if hi - lo >= count:  # a gap
        out = out[index - lo]
    return out


def latch_enable(enable, holdoff: int) -> np.ndarray:
    """Extend every enabled position by ``holdoff`` samples so a correlation
    peak just past the gate's trailing edge is not lost."""
    if holdoff < 0:
        raise ValueError("holdoff must be >= 0")
    enable = np.asarray(enable, dtype=bool)
    # every hold-off of at least len - 1 latches alike; the clamp bounds the
    # window's zero padding for any 32-bit register value
    width = min(holdoff, len(enable)) + 1
    csum = prefix_sums(enable, width)
    # a window holds an open gate where the running count rose across it
    return csum[width:] > csum[: len(enable)]
