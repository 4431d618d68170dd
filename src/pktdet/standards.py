"""Multi-standard detection: per-standard profiles, the run-time register
map, the detector bank, and the arbitration rule.

One detector bank runs several sign correlators in parallel over the same
gated sample stream, one per candidate standard.  Every runtime parameter
(energy thresholds, coefficient words, fine thresholds, hold-off, ...) is
reachable through exactly one 32-bit register key, emulating control by an
embedded soft processor.  Register maps are immutable values: a write
produces a new map, and a running pipeline adopts a newly published map
only at a sample boundary, so no correlation output can ever be explained
by a half-applied configuration (whole coefficient banks swap atomically).

When several standards fire on the same packet, the candidate with the
longest correlator wins: a long preamble crossing its threshold is less
likely to be a false alarm than a short one.  Remaining ties break on
higher peak, then earlier peak, then profile registration order, making
arbitration a total deterministic order.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

from .coarse import CoarseConfig, detect_coarse
from .correlator import (
    CoefficientBank,
    CorrelatorOutput,
    SignCorrelator,
    latch_enable,
    load_coefficients,
    words_for,
)
from .energy import EnergyConfig, enable_array, raw_threshold
from .signal import MAX_ENERGY_WINDOW, Q1_15, FixedPointFormat, Preamble, SampleStream, _int_field

# Every register word: key -> (least, most, meaning).  A key as most bounds
# the word by that word's value; <p> is a profile's place, <w> a word's.
_REGISTERS = {
    "energy/enabled": (0, 0xFFFFFFFF, "nonzero turns the energy gate on"),
    "energy/window_len": (1, MAX_ENERGY_WINDOW, "samples in the gate's sliding window"),
    "energy/sample_thresh_raw": (0, 0xFFFFFFFF, "energy a sample must exceed, in code^2 units"),
    "energy/count_thresh": (0, "energy/window_len", "count of such samples a window must exceed"),
    "coarse/enabled": (0, 0xFFFFFFFF, "nonzero turns the coarse stage on"),
    "coarse/lag": (1, 0xFFFFFFFF, "repetition lag L of the training block"),
    "coarse/thresh_q15": (0, 0xFFFFFFFF, "metric threshold t as round(t * 32768)"),
    "coarse/plateau": (1, 0xFFFFFFFF, "positions the metric must stay at or above t"),
    "fine/holdoff": (0, 0xFFFFFFFF, "samples the correlators stay on after the gate closes"),
    "prof<p>/threshold": (1, 0xFFFFFFFF, "least re that makes a candidate"),
    "prof<p>/enabled": (0, 0xFFFFFFFF, "nonzero turns the profile's correlator on"),
    "prof<p>/coeff_i/<w>": (0, 0xFFFFFFFF, "I sign bits, bit k for sample 32w + k"),
    "prof<p>/coeff_q/<w>": (0, 0xFFFFFFFF, "Q sign bits, laid out as the I words"),
}

# bound once: DetectorBank.push calls it per profile per enabled sample
_new_record = object.__new__


class ConfigurationError(ValueError):
    """Raised for unknown register keys or a register map inconsistent with
    the profile set, before any sample is processed."""


@dataclass(frozen=True)
class StandardProfile:
    """Detector parameters for one standard."""

    id: str
    preamble: Preamble
    fine_threshold: int

    def __post_init__(self) -> None:
        # No upper bound on the threshold: configuring a value above the
        # ideal maximum 2n is a legitimate way to park a correlator.
        _int_field(self, "fine_threshold", 1)

    @property
    def correlator_len(self) -> int:
        return self.preamble.length

    @functools.cached_property
    def bank(self) -> CoefficientBank:
        """The preamble's signs packed into coefficient words, once per
        profile: every register map built for the profile reads them."""
        return load_coefficients(self.preamble)


@dataclass(frozen=True, slots=True)
class DetectionEvent:
    standard_id: str
    peak_value: int
    peak_index: int
    stage_trace: tuple[int | None, int | None]  # (energy gate index, coarse index)


@dataclass(frozen=True, slots=True)
class Candidate:
    profile: StandardProfile
    peak_value: int
    peak_index: int
    order: int  # profile registration order, final tie-break


class RegisterMap(Mapping):
    """Immutable keyed set of 32-bit unsigned registers.

    Values must be integers (``int``, ``bool`` or a numpy integer); a float
    or a string is rejected rather than truncated or parsed.  A map never
    changes, so it keeps its own decodes, one per tuple of correlator
    lengths (see :func:`_decode_registers`).  A pickle or a copy carries
    only the values, which are checked again on load."""

    __slots__ = ("_values", "_views")

    def __init__(self, values: Mapping[str, int]):
        checked = {}
        for key, value in values.items():
            try:
                value = operator.index(value)
            except TypeError:
                raise ConfigurationError(
                    f"register {key!r} value {value!r} is not an integer"
                ) from None
            if not 0 <= value <= 0xFFFFFFFF:
                raise ConfigurationError(f"register {key!r} value {value} not a 32-bit word")
            checked[str(key)] = value
        self._values = checked
        self._views = {}  # correlator lengths -> decoded view

    def __reduce__(self):
        return (RegisterMap, (self._values,))

    def read(self, key: str) -> int:
        try:
            return self._values[key]
        except KeyError:
            raise ConfigurationError(f"unknown register key {key!r}") from None

    def write(self, key: str, value: int) -> "RegisterMap":
        """Return a new map with ``key`` updated; the key must already exist."""
        if key not in self._values:
            raise ConfigurationError(f"unknown register key {key!r}")
        updated = dict(self._values)
        updated[key] = value
        return RegisterMap(updated)

    def __getitem__(self, key: str) -> int:
        return self._values[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)


def build_register_map(
    profiles,
    energy: EnergyConfig | None = None,
    coarse: CoarseConfig | None = None,
    fmt: FixedPointFormat = Q1_15,
) -> RegisterMap:
    """Populate a register map for a profile set.

    ``energy``/``coarse`` of None leaves that stage disabled (the correlators
    then run unconditionally); its registers then hold the stage's defaults,
    which no decode reads.  ``fine/holdoff`` is twice the longest correlator,
    so a peak near the gate's trailing edge survives; write the register for
    any other hold-off.

    A map never changes, so equal calls share one: the build is memoised
    (``functools.lru_cache``, 256 maps) on each profile's threshold and
    bank, in order, the stage configurations and ``fmt``.  Only here are
    thresholds rounded to their register words.
    """
    entries = tuple((p.fine_threshold, p.bank) for p in profiles)
    return _build_register_map(entries, energy, coarse, fmt)


@functools.lru_cache(maxsize=256)
def _build_register_map(entries, energy, coarse, fmt) -> RegisterMap:
    """The body of :func:`build_register_map`, on (threshold, bank) pairs."""
    if not entries:
        raise ConfigurationError("at least one profile is required")
    gate = energy or EnergyConfig()
    trigger = coarse or CoarseConfig()
    # the words of the table's rows, in its order: the stage rows first
    stage_words = (
        int(energy is not None),
        gate.window_len,
        raw_threshold(gate, fmt),
        gate.count_threshold,
        int(coarse is not None),
        trigger.half_period,
        round(trigger.metric_threshold * (1 << 15)),
        trigger.plateau_min,
        2 * max(bank.length for _, bank in entries),
    )
    values = dict(zip(_REGISTERS, stage_words))
    profile_rows = list(_REGISTERS)[len(values) :]
    for p, (threshold, bank) in enumerate(entries):
        # a row takes one word, a <w> row one per coefficient word
        row_words = ((threshold,), (1,), bank.i_words, bank.q_words)
        for row, words in zip(profile_rows, row_words, strict=True):
            for w, word in enumerate(words):
                values[row.replace("<p>", str(p)).replace("<w>", str(w))] = word
    return RegisterMap(values)


@dataclass(frozen=True)
class _PipelineView:
    """Registers decoded into stage configuration, validated up front; a
    stage holds its register words as they are, or None where it is off."""

    energy: tuple[int, int, int] | None
    coarse: tuple[int, int, int] | None
    holdoff: int
    banks: tuple[CoefficientBank, ...]
    thresholds: tuple[int, ...]
    enabled: tuple[bool, ...]
    arb_window: int  # the longest correlator, disabled profiles included


def _word(regs: RegisterMap, key: str, least: int, most: int) -> int:
    """Register ``key`` of ``regs``, which must be in [least, most]: the one
    rule for a stage word the decode checks."""
    if not least <= (value := regs.read(key)) <= most:
        raise ConfigurationError(f"register {key!r} must be in [{least}, {most}], not {value}")
    return value


def _decode_registers(profiles, regs: RegisterMap) -> _PipelineView:
    """Decode and validate ``regs`` for a profile set.

    The view depends only on the register contents and the profiles'
    lengths, not on the sample format, and the map keeps it under the
    lengths: every trial of a sweep and every publish of one map decode it
    once.  A map that fails to decode keeps nothing, so each error names
    the profile ids of its call.  Ids are no part of the key, so a repeated
    id is rejected before the lookup: two profiles of one id would report
    as one."""
    profiles = list(profiles)
    if not profiles:
        raise ConfigurationError("at least one profile is required")
    ids = {p.id for p in profiles}
    if len(ids) != len(profiles):
        raise ConfigurationError("profile ids must be unique")
    lengths = tuple(p.correlator_len for p in profiles)
    view = regs._views.get(lengths)
    if view is not None:
        return view

    stages = {"energy": None, "coarse": None}
    for name in stages:
        if regs.read(f"{name}/enabled"):
            # the stage's words in table order, each checked by its row
            words = {}
            for key, (least, most, _) in _REGISTERS.items():
                if key.startswith(f"{name}/") and not key.endswith("/enabled"):
                    words[key] = _word(regs, key, least, words.get(most, most))
            stages[name] = tuple(words.values())

    banks = []
    for p, profile in enumerate(profiles):
        length = profile.correlator_len
        word_count = words_for(length)
        try:
            i_words = tuple(regs.read(f"prof{p}/coeff_i/{w}") for w in range(word_count))
            q_words = tuple(regs.read(f"prof{p}/coeff_q/{w}") for w in range(word_count))
            banks.append(CoefficientBank(length=length, i_words=i_words, q_words=q_words))
        except ValueError as exc:
            raise ConfigurationError(
                f"profile {profile.id!r}: coefficient words do not form a valid "
                f"{length}-point bank ({exc})"
            ) from None
    view = _PipelineView(
        energy=stages["energy"],
        coarse=stages["coarse"],
        holdoff=regs.read("fine/holdoff"),
        banks=tuple(banks),
        thresholds=tuple(regs.read(f"prof{p}/threshold") for p in range(len(profiles))),
        enabled=tuple(bool(regs.read(f"prof{p}/enabled")) for p in range(len(profiles))),
        arb_window=max(lengths),
    )
    least = _REGISTERS["prof<p>/threshold"][0]
    for profile, threshold in zip(profiles, view.thresholds):
        if threshold < least:
            raise ConfigurationError(f"profile {profile.id!r}: threshold must be positive")
    regs._views[lengths] = view
    return view


def arbitrate(candidates) -> Candidate:
    """Pick the winner among simultaneous candidates.

    Longest correlator first; ties break on higher peak value, then lower
    peak index, then registration order.  Total and deterministic."""
    candidates = list(candidates)
    if not candidates:
        raise ValueError("candidates must be non-empty")
    return max(
        candidates,
        key=lambda c: (c.profile.correlator_len, c.peak_value, -c.peak_index, -c.order),
    )


def _extract_candidates(index, re, threshold: int, profile: StandardProfile, order: int):
    """Peaks of contiguous above-threshold runs of ``re``.

    ``index`` holds the output positions in increasing order and ``re`` the
    value at each.  A run breaks when the index jumps (gate gap) or ``re``
    drops below the threshold; its peak is its first maximum."""
    above = re >= threshold
    candidates = []
    peak = peak_index = None
    prev = -2  # below every index, so the first position opens a run
    # a drop below the threshold leaves an index gap among the kept positions
    for k, value in zip(index[above].tolist(), re[above].tolist()):
        if k != prev + 1:
            if peak is not None:
                candidates.append(Candidate(profile, peak, peak_index, order))
            peak, peak_index = value, k
        elif value > peak:
            peak, peak_index = value, k
        prev = k
    if peak is not None:
        candidates.append(Candidate(profile, peak, peak_index, order))
    return candidates


def events_from_candidates(
    candidates,
    arb_window: int,
    gate_run_starts=None,
    coarse_index: int | None = None,
) -> list[DetectionEvent]:
    """Cluster candidates that are within ``arb_window`` samples of each
    other and arbitrate one event per cluster.

    An event's gate index is the last of the sorted ``gate_run_starts`` at
    or before its peak (None without one); its coarse index is
    ``coarse_index``."""
    ordered = sorted(candidates, key=lambda c: (c.peak_index, c.order))
    if not ordered:
        return []
    clusters = [[ordered[0]]]
    for cand in ordered[1:]:
        if cand.peak_index - clusters[-1][-1].peak_index > arb_window:
            clusters.append([cand])
        else:
            clusters[-1].append(cand)
    winners = [c[0] if len(c) == 1 else arbitrate(c) for c in clusters]

    gates = [None] * len(winners)
    if gate_run_starts is not None and len(gate_run_starts):
        # the number of starts at or before each peak; 0 means none
        peaks = [w.peak_index for w in winners]
        counts = np.searchsorted(gate_run_starts, peaks, side="right").tolist()
        gates = [int(gate_run_starts[k - 1]) if k > 0 else None for k in counts]
    return [
        DetectionEvent(
            standard_id=w.profile.id,
            peak_value=w.peak_value,
            peak_index=w.peak_index,
            stage_trace=(gate, coarse_index),
        )
        for w, gate in zip(winners, gates)
    ]


def run_detector_bank(stream: SampleStream, profiles, regs: RegisterMap) -> list[DetectionEvent]:
    """Run the full pipeline over one stream and return arbitrated events.

    The stages run in this order:

    1. the energy gate, open everywhere when the stage is off;
    2. the coarse stage, when on: its first trigger clears the gate before
       it, and no trigger means no events;
    3. the hold-off latch, over that cut gate;
    4. each enabled profile's correlator over the latched positions, and
       its candidates, the peaks of its above-threshold runs, which a gap
       in the latched gate breaks;
    5. arbitration, clustering within the longest correlator's length,
       disabled profiles included.

    The energy gate is computed once and shared by every correlator; each
    enabled profile's correlator reports, and counts as work, only gated
    positions (plus the hold-off extension).  An event's gate index starts
    its latched run of the uncut energy gate, so it may lie before the
    coarse index; the run starts are found only with the energy gate on and
    a candidate made.  ``reference_run`` in ``tests/oracles.py`` states the
    same rules one sample at a time.
    """
    profiles = list(profiles)
    view = _decode_registers(profiles, regs)
    n = len(stream)

    if view.energy is not None:
        raw_energy = enable_array(stream, *view.energy)
    else:
        raw_energy = np.ones(n, dtype=bool)

    coarse_index = None
    raw_enable = raw_energy
    if view.coarse is not None:
        coarse_index = detect_coarse(stream, *view.coarse).first_trigger
        if coarse_index is None:
            return []
        raw_enable = raw_energy.copy()
        raw_enable[:coarse_index] = False

    enable = latch_enable(raw_enable, view.holdoff)
    candidates: list[Candidate] = []
    for order, profile in enumerate(profiles):
        if not view.enabled[order]:
            continue
        correlator = SignCorrelator(view.banks[order], view.thresholds[order])
        index, re = correlator.process(stream, enable)
        candidates.extend(_extract_candidates(index, re, view.thresholds[order], profile, order))

    gate_run_starts = None
    if candidates and view.energy is not None:
        # only an event reads them: the energy decision that opened each
        # latched gate run, a raw-enabled index whose previous one lies more
        # than holdoff + 1 back
        on = raw_energy.nonzero()[0]
        opens = np.ones(len(on), dtype=bool)
        np.greater(on[1:] - on[:-1], view.holdoff + 1, out=opens[1:])
        gate_run_starts = on[opens]
    return events_from_candidates(candidates, view.arb_window, gate_run_starts, coarse_index)


class DetectorBank:
    """Streaming energy + fine pipeline with runtime register adoption.

    Single-owner: feed samples one at a time; each call returns the raw
    correlator output per profile id, in registration order (None where
    gated off, disabled or not ready).  Every call returns a fresh map: on a
    closed gate, a copy of the bank's idle map, every id None.  The tap
    table holds the enabled profiles only, so a disabled one costs nothing.
    Each output record is made by ``object.__new__`` with its four slots
    stored in place, so no ``__init__`` frame runs per profile per sample.
    A register map passed to :meth:`update_registers` is in force, in full,
    from the next push: the owner calls it between pushes, so it always
    lands on a sample boundary and every output is explainable by exactly
    one complete configuration.  The coarse stage is batch-only.

    The bank models the hardware datapath in plain integers.  One pair of
    sign shift registers, as wide as the longest profile, holds a bit per
    received I and Q component (1 for a code >= 0), the newest sample at the
    top; a profile of length n reads the newest n bits, W_i and W_q.  With
    its packed coefficient bits B_i and B_q, each partial p_xy (received
    component x against reference component y) is an XNOR popcount:

        p_xy = 2 * popcount(XNOR(W_x, B_y)) - n = n - 2 * popcount(W_x ^ B_y)

    Both operands fit in n bits, so the XOR form needs no complement or
    mask.  The energy gate shifts each sample's exceedance into a
    ``window_len``-bit register and counts it with ``bit_count``, so a
    sample in the window keeps the comparison made when it arrived.

    Readiness is decided when it changes, not per sample.  Arming puts in
    force the gate's count threshold (``window_len``, which no count
    exceeds, until the gate's window is full) and the taps whose windows
    are full.  The constructor and every publish arm the bank from the
    samples counted so far.  A push reads the gate threshold and the taps
    armed for its sample; then, until every window is full, the gate's and
    the longest profile's, disabled profiles included, it counts the sample
    and re-arms where a window becomes full.  A rejected code is not
    counted, and a full bank counts no samples.
    """

    def __init__(self, profiles, regs: RegisterMap, fmt: FixedPointFormat):
        self._profiles = list(profiles)
        self._lo, self._hi = fmt.min_code, fmt.max_code
        self._seen = 0  # samples counted while a window fills
        self._adopt(regs)
        self._idle = dict.fromkeys(profile.id for profile in self._profiles)
        self._win_i = self._win_q = 0
        self._exceed = 0
        self._holdoff_left = 0

    def _adopt(self, regs: RegisterMap) -> None:
        """Decode ``regs`` and put it in force, or raise and keep the map in
        force unchanged."""
        view = _decode_registers(self._profiles, regs)
        if view.coarse is not None:
            raise ConfigurationError("the streaming bank supports energy + fine only")
        # a disabled gate is a 0-bit window whose count 0 always beats -1
        window_len, thr_raw, count = view.energy or (0, -1, -1)
        # the constructor's first map sets the topology every later map keeps
        if getattr(self, "_window_len", window_len) != window_len:
            raise ConfigurationError("energy stage topology cannot change mid-stream")
        span = view.arb_window
        self._window_len = window_len
        self._top = 1 << (span - 1)
        self._mask = (1 << window_len) - 1
        self._thr_raw, self._count_thr = thr_raw, count
        self._holdoff = view.holdoff
        self._taps = tuple(
            (profile.id, bank.length, span - bank.length, *bank._packed)
            for profile, bank, on in zip(self._profiles, view.banks, view.enabled)
            if on
        )
        self._fill_points = {window_len, span, *(tap[1] for tap in self._taps)}
        self._arm()

    def _arm(self) -> None:
        """Arm the gate and the taps for the next sample, number ``_seen +
        1``, then set ``_arm_at`` to the count at which the next window
        becomes full, or to -1 once every window is full."""
        upcoming = self._seen + 1
        window_len = self._window_len
        self._gate_thr = self._count_thr if window_len <= upcoming else window_len
        self._ready = tuple(tap for tap in self._taps if tap[1] <= upcoming)
        later = [n for n in self._fill_points if n > upcoming]
        self._arm_at = min(later) - 1 if later else -1

    def update_registers(self, regs: RegisterMap) -> None:
        """Publish a complete register map, in force from the next push.

        A map the bank cannot adopt raises :class:`ConfigurationError` here,
        and the bank runs on under the map it has."""
        self._adopt(regs)

    def push(self, i_code: int, q_code: int) -> dict[str, CorrelatorOutput | None]:
        """Take one sample's I and Q codes, integers within the bank's
        format, and return each profile's output for it.  A code that is not
        such an integer raises before any state changes."""
        i, q = operator.index(i_code), operator.index(q_code)
        if not (self._lo <= i <= self._hi and self._lo <= q <= self._hi):
            raise ValueError(f"sample codes ({i}, {q}) out of range for the bank's format")
        top = self._top
        win_i = self._win_i = (self._win_i >> 1) | (top if i >= 0 else 0)
        win_q = self._win_q = (self._win_q >> 1) | (top if q >= 0 else 0)
        gate_thr, ready = self._gate_thr, self._ready
        if self._arm_at > 0:  # a window is still filling
            self._seen += 1
            if self._seen == self._arm_at:
                self._arm()
        above = i * i + q * q > self._thr_raw
        exceed = self._exceed = ((self._exceed << 1) | above) & self._mask
        outs = self._idle.copy()
        if exceed.bit_count() > gate_thr:
            self._holdoff_left = self._holdoff
        elif self._holdoff_left:
            self._holdoff_left -= 1
        else:
            return outs
        for pid, n, shift, b_i, b_q in ready:
            w_i, w_q = win_i >> shift, win_q >> shift
            # no __init__ runs, so all four slots must be stored here
            out = outs[pid] = _new_record(CorrelatorOutput)
            out.p_ii = n - 2 * (w_i ^ b_i).bit_count()
            out.p_qq = n - 2 * (w_q ^ b_q).bit_count()
            out.p_qi = n - 2 * (w_q ^ b_i).bit_count()
            out.p_iq = n - 2 * (w_i ^ b_q).bit_count()
        return outs
