"""Sign-quantized cross-correlation (fine detection).

Received samples are reduced to their component signs (+-1, with a code of
0 counting as +1), and the reference preamble's component signs are packed
into 32-bit coefficient words, one bit per sample component (bit = 1 for a
component >= 0).  An n-point correlation then needs no multipliers: a sign
product is +1 exactly when the two sign bits agree, so each partial sum is

    partial = 2 * popcount(XNOR(window_bits, coeff_bits)) - n

The four partials combine into the complex correlation:

    re = p_ii + p_qq        im = p_qi - p_iq

where p_xy correlates received component x against reference component y.
At perfect alignment every bit agrees, giving the ideal maximum re = 2n
(64 for a 32-point bank, 128 for a 64-point bank) and im = 0.

Alignment convention: the newest window sample lines up with the *last*
reference coefficient (matched-filter orientation), so the peak for a
preamble starting at stream index s lands at output index s + n - 1.

The batch path computes the same partials with one ``np.correlate`` of the
+-1 sign arrays per partial, which is the popcount identity above written
as a dot product.

The detection decision elsewhere in the pipeline compares ``re`` against a
threshold; the magnitude is available from the partials when needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .signal import Preamble, SampleStream

WORD_BITS = 32
WORD_MASK = 0xFFFFFFFF


@dataclass(frozen=True)
class CoefficientBank:
    """Reference preamble signs packed into 32-bit words.

    Bit k of word w (for I and Q separately) holds the sign of reference
    sample ``32*w + k``: 1 for a component >= 0, 0 for a component < 0.
    Bits past ``valid_bits_in_last_word`` are zero, so a 16-point reference
    fills half of one word pair and a 64-point reference fills two pairs.
    """

    length: int
    i_words: tuple[int, ...]
    q_words: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError("bank length must be >= 1")
        expected_words = -(-self.length // WORD_BITS)
        if len(self.i_words) != expected_words or len(self.q_words) != expected_words:
            raise ValueError("word count must be ceil(length / 32) for I and Q")
        tail_mask = (1 << self.valid_bits_in_last_word) - 1
        for words in (self.i_words, self.q_words):
            if any(not 0 <= w <= WORD_MASK for w in words):
                raise ValueError("coefficient words must be unsigned 32-bit values")
            if words[-1] & ~tail_mask:
                raise ValueError("bits beyond valid_bits_in_last_word must be zero")

    @property
    def word_count(self) -> int:
        return len(self.i_words)

    @property
    def valid_bits_in_last_word(self) -> int:
        return self.length - WORD_BITS * (-(-self.length // WORD_BITS) - 1)

    @cached_property
    def sign_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The I and Q reference signs as +-1 int64 arrays in sample order;
        built on first use, so a bank that only streams never pays for it."""
        shifts = np.arange(WORD_BITS, dtype=np.uint32)

        def unpack(words: tuple[int, ...]) -> np.ndarray:
            bits = (np.array(words, dtype=np.uint32)[:, None] >> shifts) & 1
            signs = 2 * bits.ravel()[: self.length].astype(np.int64) - 1
            signs.flags.writeable = False
            return signs

        return unpack(self.i_words), unpack(self.q_words)

    def packed_i(self) -> int:
        """All I-sign bits as one integer, bit k = reference sample k."""
        return _join_words(self.i_words)

    def packed_q(self) -> int:
        return _join_words(self.q_words)

    def signs(self) -> list[tuple[int, int]]:
        """Unpack back to per-sample ``(si, sq)`` signs of +-1 (index order)."""
        si, sq = self.sign_arrays
        return list(zip(si.tolist(), sq.tolist()))


def _join_words(words: tuple[int, ...]) -> int:
    value = 0
    for w, word in enumerate(words):
        value |= word << (WORD_BITS * w)
    return value


def _split_words(value: int, length: int) -> tuple[int, ...]:
    count = -(-length // WORD_BITS)
    return tuple((value >> (WORD_BITS * w)) & WORD_MASK for w in range(count))


def load_coefficients(preamble: Preamble) -> CoefficientBank:
    """Pack the reference's component signs into a coefficient bank."""
    n = preamble.length
    re_bits = 0
    im_bits = 0
    for k in range(n):
        if preamble.samples[k].real >= 0:
            re_bits |= 1 << k
        if preamble.samples[k].imag >= 0:
            im_bits |= 1 << k
    return CoefficientBank(
        length=n,
        i_words=_split_words(re_bits, n),
        q_words=_split_words(im_bits, n),
    )


def dump_bank(bank: CoefficientBank) -> str:
    """Textual coefficient dump: ``n=<length>`` then one 32-bit hex word per
    line, I words first, then Q words."""
    lines = [f"n={bank.length}"]
    lines += [f"{w:08x}" for w in bank.i_words]
    lines += [f"{w:08x}" for w in bank.q_words]
    return "\n".join(lines) + "\n"


def parse_bank(text: str) -> CoefficientBank:
    """Parse the :func:`dump_bank` format."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not lines or not lines[0].startswith("n="):
        raise ValueError("coefficient dump must start with 'n=<length>'")
    length = int(lines[0][2:])
    expected_words = -(-length // WORD_BITS)
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


@dataclass(frozen=True, slots=True)
class CorrelatorOutput:
    """The four sign partial sums; re/im follow the I/Q decomposition."""

    p_ii: int
    p_qq: int
    p_qi: int
    p_iq: int

    @property
    def re(self) -> int:
        return self.p_ii + self.p_qq

    @property
    def im(self) -> int:
        return self.p_qi - self.p_iq


class SignCorrelator:
    """Windowed sign correlator for one coefficient bank.

    :meth:`push` shifts one sample through the window and computes the
    partial sums only at enabled positions once the window is full.
    :meth:`process` correlates a whole stream from an empty window and
    reports the same positions.  ``work_count`` tallies the enabled, ready
    positions of both (the energy gate's power-saving contract).
    """

    def __init__(self, bank: CoefficientBank) -> None:
        self._bind(bank)
        self._win_i = 0
        self._win_q = 0
        self._seen = 0
        self.work_count = 0

    def _bind(self, bank: CoefficientBank) -> None:
        self.bank = bank
        self._n = bank.length
        self._mask = (1 << bank.length) - 1
        self._b_i = bank.packed_i()
        self._b_q = bank.packed_q()

    @property
    def ready(self) -> bool:
        return self._seen >= self._n

    def rebind_bank(self, bank: CoefficientBank) -> None:
        """Swap coefficients without disturbing the sample window."""
        if bank.length != self._n:
            raise ValueError("replacement bank must have the same length")
        self._bind(bank)

    def push(
        self, i_code: int, q_code: int, enabled: bool = True
    ) -> CorrelatorOutput | None:
        """Shift one sample's raw codes in; correlate if enabled and ready."""
        top_bit = 1 << (self._n - 1)
        win_i = self._win_i = (self._win_i >> 1) | (top_bit if i_code >= 0 else 0)
        win_q = self._win_q = (self._win_q >> 1) | (top_bit if q_code >= 0 else 0)
        self._seen += 1
        if not enabled or self._seen < self._n:
            return None
        self.work_count += 1
        n, mask, b_i, b_q = self._n, self._mask, self._b_i, self._b_q
        return CorrelatorOutput(
            p_ii=2 * ((~(win_i ^ b_i)) & mask).bit_count() - n,
            p_qq=2 * ((~(win_q ^ b_q)) & mask).bit_count() - n,
            p_qi=2 * ((~(win_q ^ b_i)) & mask).bit_count() - n,
            p_iq=2 * ((~(win_i ^ b_q)) & mask).bit_count() - n,
        )

    def process(self, stream: SampleStream, enable=None) -> tuple[np.ndarray, np.ndarray]:
        """Correlate a whole stream, starting from an empty window.

        Returns ``(index, partials)``: the enabled positions where the window
        is full, and a (4, len(index)) int64 array whose rows are p_ii,
        p_qq, p_qi and p_iq at those positions.  ``enable`` must match the
        stream length when given.
        """
        length = len(stream)
        if enable is not None and len(enable) != length:
            raise ValueError("enable must have one entry per stream sample")
        first = self._n - 1  # the first position with a full window
        if length <= first:
            return np.zeros(0, dtype=np.int64), np.zeros((4, 0), dtype=np.int64)
        index = np.arange(first, length)
        if enable is not None:
            index = index[np.asarray(enable, dtype=bool)[first:]]
        s_i = np.where(stream.i >= 0, 1, -1)
        s_q = np.where(stream.q >= 0, 1, -1)
        ref_i, ref_q = self.bank.sign_arrays
        partials = np.stack(
            [
                np.correlate(s_i, ref_i),
                np.correlate(s_q, ref_q),
                np.correlate(s_q, ref_i),
                np.correlate(s_i, ref_q),
            ]
        )[:, index - first]
        self.work_count += len(index)
        return index, partials


def latch_enable(enable, holdoff: int) -> np.ndarray:
    """Extend every enabled position by ``holdoff`` samples so a correlation
    peak just past the gate's trailing edge is not lost."""
    if holdoff < 0:
        raise ValueError("holdoff must be >= 0")
    raw = np.asarray(enable, dtype=bool)
    if holdoff == 0 or not raw.any():
        return raw.copy()
    positions = np.arange(len(raw))
    last_true = np.maximum.accumulate(np.where(raw, positions, -(holdoff + 1)))
    return positions - last_true <= holdoff
