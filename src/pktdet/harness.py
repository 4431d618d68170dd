"""Monte-Carlo detection-probability experiments.

A sweep transmits one standard's preamble at a range of SNRs, many trials
per point, and classifies each trial by what the detector bank reported:

  * ``correct``        the transmitted standard won arbitration
  * ``missed``         no event at all
  * ``false_standard`` some other standard won (counted like a miss when
                       quoting detection probability)

Each trial owns an RNG substream derived from (seed, snr_index,
trial_index), so results are bit-identical whether trials run serially or
in a process pool, and any rerun with the same seed reproduces the CSV
byte for byte.  Every draw that starts from a user's seed is seeded with
:func:`signal.seed_words` of its tuple, the uint32 words numpy's
``SeedSequence`` reads from it, which draw the tuple's stream.

The scope scenario is the single-shot companion: one capture at a chosen
SNR with the correlators running unconditionally, emitting the full ``re``
trace of every profile for plotting (one column per standard).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, fields
from enum import Enum
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .coarse import CoarseConfig
from .correlator import SignCorrelator
from .energy import EnergyConfig
from .signal import (
    MAX_PAD,
    FixedPointFormat,
    Preamble,
    Q1_15,
    SampleStream,
    _int_field,
    _int_in,
    _real,
    add_awgn,
    embed_preamble,
    noise_sigma,
    pn_preamble,
    quantize,
    seed_words,
)
from .standards import (
    DetectionEvent,
    RegisterMap,
    StandardProfile,
    build_register_map,
    run_detector_bank,
)


def csv_text(header, rows) -> str:
    """``header`` and then each of ``rows`` as comma-separated lines with LF
    endings: the one CSV writer of every table the package emits."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


class TrialOutcome(str, Enum):
    CORRECT = "correct"
    MISSED = "missed"
    FALSE_STANDARD = "false_standard"


@dataclass(frozen=True)
class SweepConfig:
    profiles: tuple[StandardProfile, ...]
    transmitted_profile_id: str
    snr_points_db: tuple[float, ...]
    trials_per_point: int
    seed: int
    pad_before_range: tuple[int, int] = (64, 192)
    pad_after: int = 128
    energy: EnergyConfig | None = EnergyConfig()
    coarse: CoarseConfig | None = None
    sample_format: FixedPointFormat = Q1_15

    def __post_init__(self) -> None:
        try:
            if not self.snr_points_db:
                raise ValueError("snr_points_db must hold at least one point")
            for snr in self.snr_points_db:
                _real(snr, "snr_points_db")
        except TypeError:
            raise ValueError("snr_points_db must be a sequence of real numbers") from None
        seed_words(self.seed)  # the one seed rule: a negative seed raises
        try:
            ids = [p.id for p in self.profiles]
        except (TypeError, AttributeError):
            raise ValueError("profiles must be a sequence of profiles") from None
        if len(set(ids)) != len(ids):
            raise ValueError("profile ids must be unique")
        if self.transmitted_profile_id not in ids:
            raise ValueError(f"unknown profile {self.transmitted_profile_id!r}")
        _int_field(self, "trials_per_point", 1)
        try:
            lo, hi = self.pad_before_range
        except (TypeError, ValueError):
            raise ValueError("pad_before_range must be a (lo, hi) pair") from None
        lo = _int_in(lo, "pad_before_range[0]", 0)
        hi = _int_in(hi, "pad_before_range[1]", lo)
        object.__setattr__(self, "pad_before_range", (lo, hi))
        _int_field(self, "pad_after", 0)

    @cached_property
    def registers(self) -> RegisterMap:
        """The register map every trial of the sweep runs under."""
        return build_register_map(
            self.profiles, energy=self.energy, coarse=self.coarse, fmt=self.sample_format
        )

    def transmitted_profile(self) -> StandardProfile:
        return next(p for p in self.profiles if p.id == self.transmitted_profile_id)


@dataclass(frozen=True, slots=True)
class SweepRow:
    snr_db: float
    trials: int
    correct: int
    missed: int
    false_standard: int
    probability: float
    ci_half_width: float


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    outcomes: tuple[tuple[TrialOutcome, ...], ...]  # per SNR point, per trial

    CSV_HEADER = tuple(f.name for f in fields(SweepRow))

    def to_csv(self) -> str:
        rows = (
            (f"{r.snr_db:g}", r.trials, r.correct, r.missed, r.false_standard)
            + (f"{r.probability:.6f}", f"{r.ci_half_width:.6f}")
            for r in self.rows
        )
        return csv_text(self.CSV_HEADER, rows)


def scenario_profiles(seed: int = 7) -> tuple[StandardProfile, ...]:
    """The three-standard demo setup: a 32-sample PN preamble and two
    distinct 64-sample PN preambles, with thresholds softened below the
    ideal maxima (64 and 128) to tolerate noise.  Preamble k is drawn from
    ``seed_words(seed, k)``, the stream that tuple seeds."""
    return tuple(
        StandardProfile(
            id=pid,
            preamble=pn_preamble(length, seed_words(seed, k)),
            fine_threshold=threshold,
        )
        for k, (pid, length, threshold) in enumerate(
            (("pn32", 32, 50), ("pn64a", 64, 100), ("pn64b", 64, 100))
        )
    )


def default_sweep_config(
    seed: int = 7,
    transmitted: str = "pn64a",
    snr_points_db=tuple(range(-10, 16, 2)),
    trials_per_point: int = 300,
) -> SweepConfig:
    return SweepConfig(
        profiles=scenario_profiles(seed),
        transmitted_profile_id=transmitted,
        snr_points_db=tuple(float(s) for s in snr_points_db),
        trials_per_point=trials_per_point,
        seed=seed,
    )


def synthesize(
    preamble: Preamble,
    pad_before: int,
    pad_after: int,
    snr_db: float,
    rng,
    fmt: FixedPointFormat,
) -> tuple[SampleStream, int]:
    """Embed ``preamble`` between zero pads, add AWGN at ``snr_db`` against
    the preamble's mean power, and quantize to ``fmt``.

    Returns the stream and the ground-truth preamble start.  ``rng`` is
    anything ``numpy.random.default_rng`` accepts; a Generator is drawn
    from in place, after whatever the caller drew before.
    """
    clean, start = embed_preamble(preamble, pad_before, pad_after)
    noisy = add_awgn(clean, snr_db, rng, preamble.mean_power)
    return quantize(noisy, fmt), start


def _synthesize_capture(cfg: SweepConfig, tx, snr_db: float, seed) -> tuple[SampleStream, int]:
    """One capture of ``tx`` under ``cfg``: the RNG seeded with ``seed``
    draws the preamble start offset first, then the noise."""
    rng = np.random.default_rng(seed)
    lo, hi = cfg.pad_before_range
    pad_before = int(rng.integers(lo, hi + 1))
    return synthesize(tx.preamble, pad_before, cfg.pad_after, snr_db, rng, cfg.sample_format)


def run_trial(cfg: SweepConfig, snr_db: float, trial_seed) -> TrialOutcome:
    """One embed -> noise -> quantize -> detect -> classify pass.

    ``trial_seed`` is anything ``numpy.random.default_rng`` accepts; the
    sweep passes ``seed_words(seed, snr_index, trial_index)``.  The preamble
    start offset is drawn per trial so the detector cannot memorize the
    alignment.
    """
    tx = cfg.transmitted_profile()
    stream, _ = _synthesize_capture(cfg, tx, snr_db, trial_seed)
    events = run_detector_bank(stream, cfg.profiles, cfg.registers)
    if not events:
        return TrialOutcome.MISSED
    if events[0].standard_id == tx.id:
        return TrialOutcome.CORRECT
    return TrialOutcome.FALSE_STANDARD


def _sweep_point(args) -> tuple[TrialOutcome, ...]:
    cfg, snr_index, snr_db = args
    trials = range(cfg.trials_per_point)
    return tuple(run_trial(cfg, snr_db, seed_words(cfg.seed, snr_index, t)) for t in trials)


def run_sweep(cfg: SweepConfig, workers: int = 1) -> SweepResult:
    """Run all SNR points x trials.  ``workers > 1`` fans the SNR points out
    to a process pool of at most one worker per point; outcomes are
    identical either way.  ``workers`` below 1 or not an integer, a pad
    above ``MAX_PAD`` and an SNR point that gives the transmitted preamble
    no noise level (:func:`noise_sigma`) raise ``ValueError`` before any trial runs."""
    workers = _int_in(workers, "workers", 1)
    if max(cfg.pad_before_range[1], cfg.pad_after) > MAX_PAD:
        raise ValueError(f"pads must be in [0, {MAX_PAD}] samples")
    power = cfg.transmitted_profile().preamble.mean_power
    for snr in cfg.snr_points_db:
        noise_sigma(snr, power)
    tasks = [(cfg, k, snr) for k, snr in enumerate(cfg.snr_points_db)]
    # the pool starts every worker it may use at once, busy or not
    workers = min(workers, len(tasks))
    if workers > 1:
        # imported here: multiprocessing adds about 2 MB of resident memory
        # that serial sweeps and the other subcommands never use
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = tuple(pool.map(_sweep_point, tasks))
    else:
        outcomes = tuple(map(_sweep_point, tasks))

    rows = []
    for snr, point in zip(cfg.snr_points_db, outcomes):
        correct = point.count(TrialOutcome.CORRECT)
        missed = point.count(TrialOutcome.MISSED)
        false_standard = len(point) - correct - missed
        probability = correct / len(point)
        ci = 1.96 * math.sqrt(probability * (1.0 - probability) / len(point))
        rows.append(SweepRow(snr, len(point), correct, missed, false_standard, probability, ci))
    return SweepResult(rows=tuple(rows), outcomes=outcomes)


@dataclass(frozen=True, eq=False)
class ScopeResult:
    """Full correlator traces for one capture (one column per standard):
    read-only arrays in a read-only mapping.  Compares and hashes by
    identity."""

    profile_ids: tuple[str, ...]
    thresholds: tuple[int, ...]
    traces: Mapping[str, np.ndarray]
    expected_peak_index: int
    events: tuple[DetectionEvent, ...]

    def to_csv(self) -> str:
        length = len(next(iter(self.traces.values())))
        return csv_text(
            ("index",) + self.profile_ids,
            ([n] + [int(self.traces[pid][n]) for pid in self.profile_ids] for n in range(length)),
        )


def run_scope_scenario(cfg: SweepConfig, snr_db: float = 10.0, seed: int = 0) -> ScopeResult:
    """Single capture with all correlators free-running (no gate), so every
    profile's full ``re`` time series can be plotted and compared.

    Positions before a correlator's window first fills are reported as 0.
    Events come from the detector bank with the energy and coarse stages
    off, so they are taken from these same traces with the configured
    thresholds and arbitration; with a healthy SNR the transmitted
    profile's trace holds the only threshold crossing.
    """
    tx = cfg.transmitted_profile()
    stream, start = _synthesize_capture(cfg, tx, snr_db, seed_words(cfg.seed, seed))

    traces: dict[str, np.ndarray] = {}
    for profile in cfg.profiles:
        index, re = SignCorrelator(profile.bank).process(stream)
        trace = np.zeros(len(stream), dtype=np.int32)
        trace[index] = re
        trace.flags.writeable = False
        traces[profile.id] = trace
    regs = build_register_map(cfg.profiles, fmt=cfg.sample_format)
    events = run_detector_bank(stream, cfg.profiles, regs)
    return ScopeResult(
        profile_ids=tuple(p.id for p in cfg.profiles),
        thresholds=tuple(p.fine_threshold for p in cfg.profiles),
        traces=MappingProxyType(traces),
        expected_peak_index=start + tx.correlator_len - 1,
        events=tuple(events),
    )
