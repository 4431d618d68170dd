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

The detection decision elsewhere in the pipeline compares ``re`` against a
threshold; the magnitude is available from the partials when needed.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    valid_bits_in_last_word: int

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError("bank length must be >= 1")
        expected_words = -(-self.length // WORD_BITS)
        if len(self.i_words) != expected_words or len(self.q_words) != expected_words:
            raise ValueError("word count must be ceil(length / 32) for I and Q")
        expected_valid = self.length - WORD_BITS * (expected_words - 1)
        if self.valid_bits_in_last_word != expected_valid:
            raise ValueError("valid_bits_in_last_word inconsistent with length")
        tail_mask = (1 << expected_valid) - 1
        for words in (self.i_words, self.q_words):
            if any(not 0 <= w <= WORD_MASK for w in words):
                raise ValueError("coefficient words must be unsigned 32-bit values")
            if words[-1] & ~tail_mask:
                raise ValueError("bits beyond valid_bits_in_last_word must be zero")

    @property
    def word_count(self) -> int:
        return len(self.i_words)

    def packed_i(self) -> int:
        """All I-sign bits as one integer, bit k = reference sample k."""
        return _join_words(self.i_words)

    def packed_q(self) -> int:
        return _join_words(self.q_words)

    def signs(self) -> list[tuple[int, int]]:
        """Unpack back to per-sample ``(si, sq)`` signs of +-1 (index order)."""
        pi, pq = self.packed_i(), self.packed_q()
        return [
            (1 if (pi >> k) & 1 else -1, 1 if (pq >> k) & 1 else -1)
            for k in range(self.length)
        ]


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
        valid_bits_in_last_word=n - WORD_BITS * (-(-n // WORD_BITS) - 1),
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
        valid_bits_in_last_word=length - WORD_BITS * (expected_words - 1),
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

    :meth:`push` takes one sample and :meth:`process` a whole stream; both
    shift every sample through the same window, and the partial sums are
    only computed at enabled positions once the window is full, and
    ``work_count`` tallies exactly those computations (the energy gate's
    power-saving contract).
    """

    def __init__(self, bank: CoefficientBank) -> None:
        self.bank = bank
        self._n = bank.length
        self._mask = (1 << bank.length) - 1
        self._b_i = bank.packed_i()
        self._b_q = bank.packed_q()
        self._win_i = 0
        self._win_q = 0
        self._seen = 0
        self.work_count = 0

    @property
    def ready(self) -> bool:
        return self._seen >= self._n

    def rebind_bank(self, bank: CoefficientBank) -> None:
        """Swap coefficients without disturbing the sample window."""
        if bank.length != self._n:
            raise ValueError("replacement bank must have the same length")
        self.bank = bank
        self._b_i = bank.packed_i()
        self._b_q = bank.packed_q()

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

    def process(
        self, stream: SampleStream, enable=None
    ) -> list[tuple[int, CorrelatorOutput]]:
        """Run over a whole stream; one (index, output) per enabled, ready
        position.  ``enable`` must match the stream length when given."""
        length = len(stream)
        if enable is None:
            enable_list = [True] * length
        else:
            if len(enable) != length:
                raise ValueError("enable must have one entry per stream sample")
            enable_list = [bool(e) for e in enable]
        i_bits = (stream.i >= 0).astype(np.uint8).tolist()
        q_bits = (stream.q >= 0).astype(np.uint8).tolist()

        n = self._n
        top = n - 1
        mask = self._mask
        b_i, b_q = self._b_i, self._b_q
        win_i, win_q, seen = self._win_i, self._win_q, self._seen
        work = 0
        out: list[tuple[int, CorrelatorOutput]] = []
        append = out.append
        for idx in range(length):
            win_i = (win_i >> 1) | (i_bits[idx] << top)
            win_q = (win_q >> 1) | (q_bits[idx] << top)
            seen += 1
            if enable_list[idx] and seen >= n:
                work += 1
                append(
                    (
                        idx,
                        CorrelatorOutput(
                            p_ii=2 * ((~(win_i ^ b_i)) & mask).bit_count() - n,
                            p_qq=2 * ((~(win_q ^ b_q)) & mask).bit_count() - n,
                            p_qi=2 * ((~(win_q ^ b_i)) & mask).bit_count() - n,
                            p_iq=2 * ((~(win_i ^ b_q)) & mask).bit_count() - n,
                        ),
                    )
                )
        self._win_i, self._win_q, self._seen = win_i, win_q, seen
        self.work_count += work
        return out


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
