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

from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

from .coarse import CoarseConfig, detect_coarse
from .correlator import (
    WORD_BITS,
    CoefficientBank,
    CorrelatorOutput,
    SignCorrelator,
    latch_enable,
    load_coefficients,
)
from .energy import EnergyConfig, EnergyDetector, enable_array
from .signal import FixedPointFormat, Preamble, SampleStream

ARB_PRIORITY_LONGEST = 0  # the only supported arbitration policy


class ConfigurationError(ValueError):
    """Raised for unknown register keys or a register map inconsistent with
    the profile set, before any sample is processed."""


@dataclass(frozen=True)
class StandardProfile:
    """Detector parameters plus inert payload metadata for one standard.

    ``packet_len``, ``symbol_size`` and ``training_period`` are not used by
    detection; they ride along so a detection event can hand the payload
    parameters of the winning standard to whatever consumes it.
    """

    id: str
    preamble: Preamble
    fine_threshold: int
    packet_len: int = 0
    symbol_size: int = 0
    training_period: int = 0

    def __post_init__(self) -> None:
        # No upper bound on the threshold: configuring a value above the
        # ideal maximum 2n is a legitimate way to park a correlator.
        if self.fine_threshold < 1:
            raise ValueError("fine_threshold must be positive")

    @property
    def correlator_len(self) -> int:
        return self.preamble.length


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
    """Immutable keyed set of 32-bit unsigned registers."""

    __slots__ = ("_values",)

    def __init__(self, values: Mapping[str, int]):
        checked = {}
        for key, value in values.items():
            value = int(value)
            if not 0 <= value <= 0xFFFFFFFF:
                raise ConfigurationError(f"register {key!r} value {value} not a 32-bit word")
            checked[str(key)] = value
        self._values = checked

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
        return self.read(key)

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
    then run unconditionally).  ``holdoff`` defaults to twice the longest
    correlator so a peak near the gate's trailing edge survives.
    """
    profiles = list(profiles)
    if not profiles:
        raise ConfigurationError("at least one profile is required")
    max_len = max(p.correlator_len for p in profiles)
    if holdoff is None:
        holdoff = 2 * max_len

    values: dict[str, int] = {
        "energy/enabled": int(energy is not None),
        "energy/window_len": energy.window_len if energy else 16,
        "energy/sample_thresh_raw": round(
            (energy.sample_energy_threshold if energy else 0.0) * fmt.scale**2
        ),
        "energy/count_thresh": energy.count_threshold if energy else 0,
        "coarse/enabled": int(coarse is not None),
        "coarse/lag": coarse.half_period if coarse else 16,
        "coarse/thresh_q15": round((coarse.metric_threshold if coarse else 0.0) * (1 << 15)),
        "coarse/plateau": coarse.plateau_min if coarse else 8,
        "fine/holdoff": holdoff,
        "arb/priority": ARB_PRIORITY_LONGEST,
    }
    for p, profile in enumerate(profiles):
        bank = load_coefficients(profile.preamble)
        values[f"prof{p}/len"] = profile.correlator_len
        values[f"prof{p}/threshold"] = profile.fine_threshold
        values[f"prof{p}/enabled"] = 1
        for w, word in enumerate(bank.i_words):
            values[f"prof{p}/coeff_i/{w}"] = word
        for w, word in enumerate(bank.q_words):
            values[f"prof{p}/coeff_q/{w}"] = word
    return RegisterMap(values)


@dataclass(frozen=True)
class _PipelineView:
    """Registers decoded into stage configuration, validated up front."""

    energy_cfg: EnergyConfig | None
    coarse_cfg: CoarseConfig | None
    holdoff: int
    banks: tuple[CoefficientBank, ...]
    thresholds: tuple[int, ...]
    enabled: tuple[bool, ...]


def _decode_registers(profiles, regs: RegisterMap, fmt: FixedPointFormat) -> _PipelineView:
    profiles = list(profiles)
    if not profiles:
        raise ConfigurationError("at least one profile is required")
    if regs.read("arb/priority") != ARB_PRIORITY_LONGEST:
        raise ConfigurationError("unsupported arbitration priority policy")

    energy_cfg = None
    if regs.read("energy/enabled"):
        try:
            energy_cfg = EnergyConfig(
                window_len=regs.read("energy/window_len"),
                sample_energy_threshold=regs.read("energy/sample_thresh_raw") / fmt.scale**2,
                count_threshold=regs.read("energy/count_thresh"),
            )
        except ValueError as exc:
            raise ConfigurationError(f"bad energy registers: {exc}") from None

    coarse_cfg = None
    if regs.read("coarse/enabled"):
        try:
            coarse_cfg = CoarseConfig(
                half_period=regs.read("coarse/lag"),
                metric_threshold=regs.read("coarse/thresh_q15") / float(1 << 15),
                plateau_min=regs.read("coarse/plateau"),
            )
        except ValueError as exc:
            raise ConfigurationError(f"bad coarse registers: {exc}") from None

    banks = []
    thresholds = []
    enabled = []
    for p, profile in enumerate(profiles):
        length = regs.read(f"prof{p}/len")
        if length != profile.correlator_len:
            raise ConfigurationError(
                f"profile {profile.id!r}: length register {length} does not match "
                f"correlator_len {profile.correlator_len}"
            )
        word_count = -(-length // WORD_BITS)
        try:
            i_words = tuple(regs.read(f"prof{p}/coeff_i/{w}") for w in range(word_count))
            q_words = tuple(regs.read(f"prof{p}/coeff_q/{w}") for w in range(word_count))
            bank = CoefficientBank(length=length, i_words=i_words, q_words=q_words)
        except (ConfigurationError, ValueError) as exc:
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
    return _PipelineView(
        energy_cfg=energy_cfg,
        coarse_cfg=coarse_cfg,
        holdoff=regs.read("fine/holdoff"),
        banks=tuple(banks),
        thresholds=tuple(thresholds),
        enabled=tuple(enabled),
    )


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
    index, re = index[above], re[above]
    if not len(index):
        return []
    breaks = np.flatnonzero(np.diff(index) != 1) + 1
    candidates = []
    for run_index, run_re in zip(np.split(index, breaks), np.split(re, breaks)):
        peak = int(np.argmax(run_re))
        candidates.append(Candidate(profile, int(run_re[peak]), int(run_index[peak]), order))
    return candidates


def events_from_candidates(
    candidates,
    arb_window: int,
    gate_run_starts=None,
    coarse_index: int | None = None,
) -> list[DetectionEvent]:
    """Cluster candidates that are within ``arb_window`` samples of each
    other and arbitrate one event per cluster."""
    ordered = sorted(candidates, key=lambda c: (c.peak_index, c.order))
    events: list[DetectionEvent] = []
    cluster: list[Candidate] = []

    def flush() -> None:
        if not cluster:
            return
        winner = arbitrate(cluster)
        gate_index = None
        if gate_run_starts is not None and len(gate_run_starts):
            pos = int(np.searchsorted(gate_run_starts, winner.peak_index, side="right")) - 1
            if pos >= 0:
                gate_index = int(gate_run_starts[pos])
        events.append(
            DetectionEvent(
                standard_id=winner.profile.id,
                peak_value=winner.peak_value,
                peak_index=winner.peak_index,
                stage_trace=(gate_index, coarse_index),
            )
        )

    for cand in ordered:
        if cluster and cand.peak_index - cluster[-1].peak_index > arb_window:
            flush()
            cluster = []
        cluster.append(cand)
    flush()
    return events


def run_detector_bank(
    stream: SampleStream, profiles, regs: RegisterMap, rssi: bool | None = None
) -> list[DetectionEvent]:
    """Run the full pipeline over one stream and return arbitrated events.

    The energy gate is computed once and shared by every correlator; each
    enabled profile's correlator reports, and counts as work, only gated
    positions (plus the hold-off extension).  ``rssi`` is the optional external carrier-sense
    flag ANDed into the energy decisions when provided; it has no effect
    while the energy stage is off.
    """
    profiles = list(profiles)
    view = _decode_registers(profiles, regs, stream.format)
    n = len(stream)

    if view.energy_cfg is not None:
        # a false carrier-sense flag closes the gate at every position
        if n < view.energy_cfg.window_len or (rssi is not None and not rssi):
            return []
        raw_energy = enable_array(stream, view.energy_cfg)
    else:
        raw_energy = np.ones(n, dtype=bool)

    coarse_index = None
    raw_enable = raw_energy
    if view.coarse_cfg is not None:
        if n < 2 * view.coarse_cfg.half_period:
            return []
        coarse_index = detect_coarse(stream, view.coarse_cfg).first_trigger
        if coarse_index is None:
            return []
        raw_enable = raw_energy & (np.arange(n) >= coarse_index)

    enable = latch_enable(raw_enable, view.holdoff)
    gate_run_starts = None
    if view.energy_cfg is not None:
        # the energy decision that opened the gate region holding each peak
        gate = latch_enable(raw_energy, view.holdoff)
        starts = gate & ~np.concatenate(([False], gate[:-1]))
        gate_run_starts = np.flatnonzero(starts)

    candidates: list[Candidate] = []
    for order, profile in enumerate(profiles):
        if not view.enabled[order]:
            continue
        index, partials = SignCorrelator(view.banks[order]).process(stream, enable)
        re = partials[0] + partials[1]
        candidates.extend(_extract_candidates(index, re, view.thresholds[order], profile, order))
    arb_window = max(p.correlator_len for p in profiles)
    return events_from_candidates(candidates, arb_window, gate_run_starts, coarse_index)


class DetectorBank:
    """Streaming energy + fine pipeline with runtime register adoption.

    Single-owner: feed samples one at a time; each call returns the raw
    correlator output per profile id (None where gated off or not ready).
    A register map published with :meth:`update_registers` is adopted in
    full at the next sample boundary, so every output is explainable by
    exactly one complete configuration.  The coarse stage is batch-only.
    """

    def __init__(self, profiles, regs: RegisterMap, fmt: FixedPointFormat):
        self._profiles = list(profiles)
        self._fmt = fmt
        view = _decode_registers(self._profiles, regs, fmt)
        if view.coarse_cfg is not None:
            raise ConfigurationError("the streaming bank supports energy + fine only")
        self._view = view
        self._correlators = [SignCorrelator(bank) for bank in view.banks]
        self._energy = (
            EnergyDetector(view.energy_cfg, fmt) if view.energy_cfg is not None else None
        )
        self._holdoff_left = 0
        self._pending: RegisterMap | None = None

    def update_registers(self, regs: RegisterMap) -> None:
        """Publish a complete register map; adopted at the next boundary."""
        self._pending = regs

    def _adopt_pending(self) -> None:
        if self._pending is None:
            return
        view = _decode_registers(self._profiles, self._pending, self._fmt)
        if view.coarse_cfg is not None:
            raise ConfigurationError("the streaming bank supports energy + fine only")
        if (self._view.energy_cfg is None) != (view.energy_cfg is None) or (
            view.energy_cfg is not None
            and view.energy_cfg.window_len != self._view.energy_cfg.window_len
        ):
            raise ConfigurationError("energy stage topology cannot change mid-stream")
        for correlator, bank in zip(self._correlators, view.banks):
            correlator.rebind_bank(bank)
        if self._energy is not None:
            self._energy.reconfigure(view.energy_cfg)
        self._view = view
        self._pending = None

    def push(self, i_code: int, q_code: int) -> dict[str, CorrelatorOutput | None]:
        self._adopt_pending()
        raw_active = self._energy.push(i_code, q_code) if self._energy is not None else True
        if raw_active:
            self._holdoff_left = self._view.holdoff
            enabled = True
        else:
            enabled = self._holdoff_left > 0
            self._holdoff_left = max(0, self._holdoff_left - 1)
        return {
            profile.id: self._correlators[p].push(
                i_code, q_code, enabled and self._view.enabled[p]
            )
            for p, profile in enumerate(self._profiles)
        }
