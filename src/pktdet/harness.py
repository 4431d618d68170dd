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
byte for byte.

The scope scenario is the single-shot companion: one capture at a chosen
SNR with the correlators running unconditionally, emitting the full ``re``
trace of every profile for plotting (one column per standard).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .coarse import CoarseConfig
from .correlator import SignCorrelator, load_coefficients
from .energy import EnergyConfig
from .signal import (
    FixedPointFormat,
    Preamble,
    Q1_15,
    SampleStream,
    add_awgn,
    embed_preamble,
    pn_preamble,
    quantize,
)
from .standards import (
    DetectionEvent,
    RegisterMap,
    StandardProfile,
    build_register_map,
    run_detector_bank,
)


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
    energy: EnergyConfig | None = EnergyConfig(16, 0.5, 8)
    coarse: CoarseConfig | None = None
    sample_format: FixedPointFormat = Q1_15

    def __post_init__(self) -> None:
        if self.trials_per_point < 1:
            raise ValueError("trials_per_point must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        ids = [p.id for p in self.profiles]
        if len(set(ids)) != len(ids):
            raise ValueError("profile ids must be unique")
        if self.transmitted_profile_id not in ids:
            raise ValueError("transmitted_profile_id must name one of the profiles")
        lo, hi = self.pad_before_range
        if not 0 <= lo <= hi:
            raise ValueError("pad_before_range must satisfy 0 <= lo <= hi")
        if self.pad_after < 0:
            raise ValueError("pad_after must be >= 0")

    @cached_property
    def registers(self) -> RegisterMap:
        """The register map every trial of the sweep runs under."""
        return build_register_map(
            self.profiles, energy=self.energy, coarse=self.coarse, fmt=self.sample_format
        )

    def transmitted_profile(self) -> StandardProfile:
        for p in self.profiles:
            if p.id == self.transmitted_profile_id:
                return p
        raise KeyError(self.transmitted_profile_id)


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

    CSV_HEADER = (
        "snr_db",
        "trials",
        "correct",
        "missed",
        "false_standard",
        "probability",
        "ci_half_width",
    )

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.CSV_HEADER)
        for row in self.rows:
            writer.writerow(
                [
                    f"{row.snr_db:g}",
                    row.trials,
                    row.correct,
                    row.missed,
                    row.false_standard,
                    f"{row.probability:.6f}",
                    f"{row.ci_half_width:.6f}",
                ]
            )
        return buf.getvalue()

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(self.to_csv())


def scenario_profiles(seed: int = 7) -> tuple[StandardProfile, ...]:
    """The three-standard demo setup: a 32-sample PN preamble and two
    distinct 64-sample PN preambles, with thresholds softened below the
    ideal maxima (64 and 128) to tolerate noise."""
    return (
        StandardProfile(
            id="pn32",
            preamble=pn_preamble("pn32", 32, (seed, 0)),
            fine_threshold=50,
            packet_len=256,
            symbol_size=64,
            training_period=32,
        ),
        StandardProfile(
            id="pn64a",
            preamble=pn_preamble("pn64a", 64, (seed, 1)),
            fine_threshold=100,
            packet_len=512,
            symbol_size=64,
            training_period=64,
        ),
        StandardProfile(
            id="pn64b",
            preamble=pn_preamble("pn64b", 64, (seed, 2)),
            fine_threshold=100,
            packet_len=1024,
            symbol_size=128,
            training_period=64,
        ),
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
    noisy = add_awgn(clean, snr_db, rng, preamble.mean_power())
    return quantize(noisy, fmt), start


def run_trial(cfg: SweepConfig, snr_db: float, trial_seed) -> TrialOutcome:
    """One embed -> noise -> quantize -> detect -> classify pass.

    ``trial_seed`` is anything ``numpy.random.default_rng`` accepts; the
    sweep passes (seed, snr_index, trial_index).  The preamble start offset
    is drawn per trial so the detector cannot memorize the alignment.
    """
    rng = np.random.default_rng(trial_seed)
    lo, hi = cfg.pad_before_range
    pad_before = int(rng.integers(lo, hi + 1))
    tx = cfg.transmitted_profile()
    stream, _ = synthesize(
        tx.preamble, pad_before, cfg.pad_after, snr_db, rng, cfg.sample_format
    )
    events = run_detector_bank(stream, cfg.profiles, cfg.registers)
    if not events:
        return TrialOutcome.MISSED
    if events[0].standard_id == tx.id:
        return TrialOutcome.CORRECT
    return TrialOutcome.FALSE_STANDARD


def _sweep_point(args) -> tuple[int, list[TrialOutcome]]:
    cfg, snr_index, snr_db = args
    return snr_index, [
        run_trial(cfg, snr_db, (cfg.seed, snr_index, t))
        for t in range(cfg.trials_per_point)
    ]


def run_sweep(cfg: SweepConfig, workers: int = 1) -> SweepResult:
    """Run all SNR points x trials.  ``workers > 1`` fans the SNR points out
    to a process pool; outcomes are identical either way."""
    tasks = [(cfg, k, snr) for k, snr in enumerate(cfg.snr_points_db)]
    if workers > 1:
        # imported here: multiprocessing adds about 2 MB of resident memory
        # that serial sweeps and the other subcommands never use
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = dict(pool.map(_sweep_point, tasks))
    else:
        results = dict(map(_sweep_point, tasks))

    rows = []
    outcomes = []
    for k, snr in enumerate(cfg.snr_points_db):
        point = results[k]
        correct = sum(1 for o in point if o is TrialOutcome.CORRECT)
        missed = sum(1 for o in point if o is TrialOutcome.MISSED)
        false_standard = len(point) - correct - missed
        probability = correct / len(point)
        ci = 1.96 * math.sqrt(probability * (1.0 - probability) / len(point))
        rows.append(
            SweepRow(
                snr_db=snr,
                trials=len(point),
                correct=correct,
                missed=missed,
                false_standard=false_standard,
                probability=probability,
                ci_half_width=ci,
            )
        )
        outcomes.append(tuple(point))
    return SweepResult(rows=tuple(rows), outcomes=tuple(outcomes))


@dataclass(frozen=True)
class ScopeResult:
    """Full correlator traces for one capture (one column per standard)."""

    profile_ids: tuple[str, ...]
    thresholds: tuple[int, ...]
    traces: dict[str, np.ndarray]
    transmitted_id: str
    true_start_index: int
    expected_peak_index: int
    events: tuple[DetectionEvent, ...]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(("index",) + self.profile_ids)
        length = len(next(iter(self.traces.values())))
        for n in range(length):
            writer.writerow([n] + [int(self.traces[pid][n]) for pid in self.profile_ids])
        return buf.getvalue()

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(self.to_csv())


def run_scope_scenario(cfg: SweepConfig, snr_db: float = 10.0, seed: int = 0) -> ScopeResult:
    """Single capture with all correlators free-running (no gate), so every
    profile's full ``re`` time series can be plotted and compared.

    Positions before a correlator's window first fills are reported as 0.
    Events come from the detector bank with the energy and coarse stages
    off, so they are taken from these same traces with the configured
    thresholds and arbitration; with a healthy SNR the transmitted
    profile's trace holds the only threshold crossing.
    """
    if len(cfg.profiles) != 3:
        raise ValueError("the scope scenario expects the three-standard configuration")
    rng = np.random.default_rng((cfg.seed, seed))
    lo, hi = cfg.pad_before_range
    pad_before = int(rng.integers(lo, hi + 1))
    tx = cfg.transmitted_profile()
    stream, start = synthesize(
        tx.preamble, pad_before, cfg.pad_after, snr_db, rng, cfg.sample_format
    )

    traces: dict[str, np.ndarray] = {}
    for profile in cfg.profiles:
        index, partials = SignCorrelator(load_coefficients(profile.preamble)).process(stream)
        trace = np.zeros(len(stream), dtype=np.int32)
        trace[index] = partials[0] + partials[1]
        traces[profile.id] = trace
    regs = build_register_map(cfg.profiles, fmt=cfg.sample_format)
    events = run_detector_bank(stream, cfg.profiles, regs)
    return ScopeResult(
        profile_ids=tuple(p.id for p in cfg.profiles),
        thresholds=tuple(p.fine_threshold for p in cfg.profiles),
        traces=traces,
        transmitted_id=tx.id,
        true_start_index=start,
        expected_peak_index=start + tx.correlator_len - 1,
        events=tuple(events),
    )
