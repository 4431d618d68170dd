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
from .signal import FixedPointFormat, Preamble, SampleStream, _int_fields

# decoded views, keyed on register contents; a view's banks take a few kB
_VIEWS_CACHED = 256
_VIEWS: dict[tuple, "_PipelineView"] = {}
# built maps, keyed on the values they are made from, bounded alike
_MAPS: dict[tuple, "RegisterMap"] = {}


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
        _int_fields(self, "fine_threshold")
        # No upper bound on the threshold: configuring a value above the
        # ideal maximum 2n is a legitimate way to park a correlator.
        if self.fine_threshold < 1:
            raise ValueError("fine_threshold must be positive")

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


def _register_int(key: str, value) -> int:
    """``value`` as the int register ``key`` holds (see :class:`RegisterMap`)."""
    try:
        return operator.index(value)
    except TypeError:
        raise ConfigurationError(f"register {key!r} value {value!r} is not an integer") from None


class RegisterMap(Mapping):
    """Immutable keyed set of 32-bit unsigned registers.

    Values must be integers (``int``, ``bool`` or a numpy integer); a float
    or a string is rejected rather than truncated or parsed.  A map never
    changes, so its contents as a frozenset key the decode cache (see
    :func:`_decode_registers`); a loaded pickle hashes its key anew."""

    __slots__ = ("_values", "_key")

    def __init__(self, values: Mapping[str, int]):
        checked = {}
        for key, value in values.items():
            value = _register_int(key, value)
            if not 0 <= value <= 0xFFFFFFFF:
                raise ConfigurationError(f"register {key!r} value {value} not a 32-bit word")
            checked[str(key)] = value
        self._values = checked
        self._key = frozenset(checked.items())

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
    holdoff: int | None = None,
    fmt: FixedPointFormat = FixedPointFormat(),
) -> RegisterMap:
    """Populate a register map for a profile set.

    ``energy``/``coarse`` of None leaves that stage disabled (the correlators
    then run unconditionally); its registers then hold the stage's defaults,
    which no decode reads.  ``holdoff`` defaults to twice the longest
    correlator so a peak near the gate's trailing edge survives.

    A map never changes, so equal calls share one: the map is cached under
    each profile's threshold and bank, in order, the stage configurations,
    ``holdoff`` and ``fmt``.  A full cache starts over, as the decode cache
    does.  Only here are thresholds rounded to their register words.
    """
    profiles = list(profiles)
    if holdoff is not None:
        holdoff = _register_int("fine/holdoff", holdoff)
    key = (tuple((p.fine_threshold, p.bank) for p in profiles), energy, coarse, holdoff, fmt)
    regs = _MAPS.get(key)
    if regs is None:
        regs = _build_register_map(profiles, energy, coarse, holdoff, fmt)
        if len(_MAPS) >= _VIEWS_CACHED:
            _MAPS.clear()
        _MAPS[key] = regs
    return regs


def _build_register_map(profiles, energy, coarse, holdoff, fmt) -> RegisterMap:
    """The uncached body of :func:`build_register_map`."""
    if not profiles:
        raise ConfigurationError("at least one profile is required")
    max_len = max(p.correlator_len for p in profiles)
    if holdoff is None:
        holdoff = 2 * max_len

    gate = energy or EnergyConfig()
    trigger = coarse or CoarseConfig()
    values: dict[str, int] = {
        "energy/enabled": int(energy is not None),
        "energy/window_len": gate.window_len,
        "energy/sample_thresh_raw": raw_threshold(gate, fmt),
        "energy/count_thresh": gate.count_threshold,
        "coarse/enabled": int(coarse is not None),
        "coarse/lag": trigger.half_period,
        "coarse/thresh_q15": round(trigger.metric_threshold * (1 << 15)),
        "coarse/plateau": trigger.plateau_min,
        "fine/holdoff": holdoff,
    }
    for p, profile in enumerate(profiles):
        bank = profile.bank
        values[f"prof{p}/threshold"] = profile.fine_threshold
        values[f"prof{p}/enabled"] = 1
        for w, word in enumerate(bank.i_words):
            values[f"prof{p}/coeff_i/{w}"] = word
        for w, word in enumerate(bank.q_words):
            values[f"prof{p}/coeff_q/{w}"] = word
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


def _positive(regs: RegisterMap, key: str) -> int:
    """Register ``key`` of ``regs``, which must be at least 1."""
    if (value := regs.read(key)) < 1:
        raise ConfigurationError(f"register {key!r} must be >= 1, not {value}")
    return value


def _decode_registers(profiles, regs: RegisterMap) -> _PipelineView:
    """Decode and validate ``regs`` for a profile set.

    The view depends only on the register contents and the profiles'
    lengths, not on the sample format, and is cached under them: equal
    maps, such as one rebuilt for every capture, share one view and its
    banks.  A full cache starts over, since a run swaps between only a few
    maps.  A map that fails to decode caches nothing, so each error names
    the profile ids of its call.  Ids are no part of the key, so a repeated
    id is rejected before the lookup: two profiles of one id would report
    as one."""
    profiles = list(profiles)
    if not profiles:
        raise ConfigurationError("at least one profile is required")
    ids = {p.id for p in profiles}
    if len(ids) != len(profiles):
        raise ConfigurationError("profile ids must be unique")
    key = (regs._key, tuple(p.correlator_len for p in profiles))
    view = _VIEWS.get(key)
    if view is not None:
        return view

    energy = None
    if regs.read("energy/enabled"):
        window = _positive(regs, "energy/window_len")
        count = regs.read("energy/count_thresh")
        if count > window:
            raise ConfigurationError(f"register 'energy/count_thresh' {count} exceeds the window")
        energy = (window, regs.read("energy/sample_thresh_raw"), count)

    coarse = None
    if regs.read("coarse/enabled"):
        lag, plateau = _positive(regs, "coarse/lag"), _positive(regs, "coarse/plateau")
        # any threshold word is legal: M can exceed 1, and a word above the
        # M a stream reaches parks the stage
        coarse = (lag, regs.read("coarse/thresh_q15"), plateau)

    banks, thresholds, enabled = [], [], []
    for p, profile in enumerate(profiles):
        length = profile.correlator_len
        word_count = words_for(length)
        try:
            i_words = tuple(regs.read(f"prof{p}/coeff_i/{w}") for w in range(word_count))
            q_words = tuple(regs.read(f"prof{p}/coeff_q/{w}") for w in range(word_count))
            bank = CoefficientBank(length=length, i_words=i_words, q_words=q_words)
        except ValueError as exc:
            raise ConfigurationError(
                f"profile {profile.id!r}: coefficient words do not form a valid "
                f"{length}-point bank ({exc})"
            ) from None
        threshold = regs.read(f"prof{p}/threshold")
        if threshold < 1:
            raise ConfigurationError(f"profile {profile.id!r}: threshold must be positive")
        banks.append(bank)
        thresholds.append(threshold)
        enabled.append(bool(regs.read(f"prof{p}/enabled")))
    if len(_VIEWS) >= _VIEWS_CACHED:
        _VIEWS.clear()
    _VIEWS[key] = view = _PipelineView(
        energy=energy,
        coarse=coarse,
        holdoff=regs.read("fine/holdoff"),
        banks=tuple(banks),
        thresholds=tuple(thresholds),
        enabled=tuple(enabled),
        arb_window=max(bank.length for bank in banks),
    )
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
    if not np.count_nonzero(above):  # cheaper than above.any() on short spans
        return []
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

    The energy gate is computed once and shared by every correlator; each
    enabled profile's correlator reports, and counts as work, only gated
    positions (plus the hold-off extension).
    """
    profiles = list(profiles)
    view = _decode_registers(profiles, regs)
    n = len(stream)

    if view.energy is not None:
        if n < view.energy[0]:
            return []
        raw_energy = enable_array(stream, *view.energy)
    else:
        raw_energy = np.ones(n, dtype=bool)

    coarse_index = None
    raw_enable = raw_energy
    if view.coarse is not None:
        if n < 2 * view.coarse[0]:
            return []
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
        index, re = SignCorrelator(view.banks[order]).process(stream, enable)
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
    correlator output per profile id (None where gated off or not ready).
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
    """

    def __init__(self, profiles, regs: RegisterMap, fmt: FixedPointFormat):
        self._profiles = list(profiles)
        self._lo, self._hi = fmt.min_code, fmt.max_code
        self._adopt(regs)
        self._win_i = self._win_q = 0
        self._exceed = 0
        self._seen = 0
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
        span = max(bank.length for bank in view.banks)
        self._window_len = window_len
        self._top = 1 << (span - 1)
        self._mask = (1 << window_len) - 1
        self._thr_raw, self._count_thr = thr_raw, count
        self._holdoff = view.holdoff
        self._taps = tuple(
            (profile.id, bank.length, span - bank.length, *bank._packed, on)
            for profile, bank, on in zip(self._profiles, view.banks, view.enabled)
        )

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
        seen = self._seen = self._seen + 1
        above = i * i + q * q > self._thr_raw
        exceed = self._exceed = ((self._exceed << 1) | above) & self._mask
        if seen >= self._window_len and exceed.bit_count() > self._count_thr:
            self._holdoff_left = self._holdoff
            enabled = True
        else:
            enabled = self._holdoff_left > 0
            self._holdoff_left = max(0, self._holdoff_left - 1)
        outs = {}
        for pid, n, shift, b_i, b_q, on in self._taps:
            if enabled and on and seen >= n:
                w_i, w_q = win_i >> shift, win_q >> shift
                # positional, in field order p_ii, p_qq, p_qi, p_iq
                outs[pid] = CorrelatorOutput(
                    n - 2 * (w_i ^ b_i).bit_count(),
                    n - 2 * (w_q ^ b_q).bit_count(),
                    n - 2 * (w_q ^ b_i).bit_count(),
                    n - 2 * (w_i ^ b_q).bit_count(),
                )
            else:
                outs[pid] = None
        return outs
