"""The three pktdet benchmark workloads, their inputs and their checks.

Each workload builds its inputs from the benchmark seed in ``setup``, runs
ops in rounds, times every op, and checks every op's output right after
timing it.  Calls that are measured go through the module attribute
(``standards.run_detector_bank``, ``iqfile.read_iq``, ...) so that the
tracer's wrappers see them; the checks use the names bound below at import
time, so checking never shows up in a traced span.

See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from pktdet import harness, iqfile, standards
from pktdet.coarse import CoarseConfig
from pktdet.energy import EnergyConfig
from pktdet.harness import default_sweep_config, scenario_profiles
from pktdet.signal import Q1_15, add_awgn, quantize
from pktdet.standards import Candidate, DetectorBank, build_register_map, events_from_candidates

from oracles import sign_partials
from timing import calibration_seconds, clock
from tracing import Patches

AMPLITUDE = 0.5  # per component: packets sit 6 dB below full scale
IDLE_SNR_DB = 12.0  # packet power over the noise of idle air
PACKET_ENERGY = EnergyConfig(window_len=16, sample_energy_threshold=0.25, count_threshold=8)
ARB_WINDOW = 64  # longest correlator in the scenario profiles


@dataclass(frozen=True, slots=True)
class Op:
    """One timed op: CPU seconds, the input samples it detected, and the
    CPU seconds of the calibration loop timed right before it."""

    seconds: float
    samples: int
    calibration: float


def qpsk(rng, count: int) -> np.ndarray:
    signs = rng.integers(0, 2, size=(2, count)) * 2 - 1
    return AMPLITUDE * (signs[0] + 1j * signs[1])


def ref_pairs(profile) -> list[tuple[int, int]]:
    s = profile.preamble.samples
    return [(1 if z.real >= 0 else -1, 1 if z.imag >= 0 else -1) for z in s]


def event_tuples(events) -> list[tuple[str, int]]:
    return [(e.standard_id, e.peak_index) for e in events]


class Workload:
    """Base: counts checked ops and failed ones, and digests the outputs of
    the first ``min_rounds`` rounds, which every run completes."""

    name = ""
    min_rounds = 1

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self._hash = hashlib.sha256()

    def setup(self, seed: int, work_dir) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def run_round(self, r: int, tracer) -> list[Op]:
        raise NotImplementedError

    def digest(self) -> str:
        return self._hash.hexdigest()

    def _record(self, r: int, ok: bool, output: bytes, ops: int = 1) -> None:
        self.attempted += ops
        self.failed += 0 if ok else ops
        if r < self.min_rounds:
            self._hash.update(output)


class SweepCurves(Workload):
    """The two criterion-4 sweeps (pn32, then pn64a) through run_sweep.

    One round runs both curves over the default 13-point grid with
    ``trials_per_point`` trials each; round r uses sweep seed
    ``seed * 100000 + r``.  One op is one trial, timed by a wrapper on
    ``harness.run_trial``.
    """

    name = "sweep_curves"
    CHECK_FROM_DB = 8.0  # every trial at or above this SNR must be correct

    def __init__(self, trials_per_point: int = 4) -> None:
        super().__init__()
        self.trials_per_point = trials_per_point

    def setup(self, seed: int, work_dir) -> None:
        self.seed = seed
        self.configs = [
            default_sweep_config(transmitted=tx, trials_per_point=self.trials_per_point)
            for tx in ("pn32", "pn64a")
        ]

    def warm_up(self) -> None:
        for cfg in self.configs:
            harness.run_sweep(replace(cfg, trials_per_point=1, seed=self.seed))

    def run_round(self, r: int, tracer) -> list[Op]:
        ops: list[Op] = []
        samples = 0
        run_trial = harness.run_trial
        run_bank = harness.run_detector_bank

        def timed_trial(*args, **kwargs):
            nonlocal samples
            if tracer is not None:
                tracer.op += 1
            samples = 0
            calibration = calibration_seconds()
            start = clock()
            try:
                return run_trial(*args, **kwargs)
            finally:
                ops.append(Op(clock() - start, samples, calibration))

        def counted_bank(stream, *args, **kwargs):
            nonlocal samples
            samples += len(stream)
            return run_bank(stream, *args, **kwargs)

        patches = Patches()
        patches.set(harness, "run_trial", timed_trial)
        patches.set(harness, "run_detector_bank", counted_bank)
        try:
            seed = self.seed * 100000 + r
            results = [harness.run_sweep(replace(cfg, seed=seed)) for cfg in self.configs]
        finally:
            patches.restore()
        for result in results:
            self.check(r, result)
        return ops

    def check(self, r: int, result) -> None:
        for row, outcomes in zip(result.rows, result.outcomes):
            ok = (
                row.trials == self.trials_per_point == len(outcomes)
                and row.correct + row.missed + row.false_standard == row.trials
                and (row.snr_db < self.CHECK_FROM_DB or row.correct == row.trials)
            )
            self._record(r, ok, b"", row.trials)
        if r < self.min_rounds:
            self._hash.update(result.to_csv().encode())


class CaptureSparse(Workload):
    """``pktdet detect`` on IQPD captures: read, build registers, detect.

    Each capture holds ``LENGTH`` samples of idle air and one packet: a
    training block repeated at the coarse lag, one scenario preamble
    (rotating pn32, pn64a, pn64b) and random QPSK payload.  One op is one
    capture; round r detects capture ``r % captures``.
    """

    name = "capture_sparse"
    LENGTH = 2048
    LAG = 16
    TRAINING_REPEATS = 4
    PAYLOAD = 256
    COARSE = CoarseConfig(half_period=LAG, metric_threshold=0.5, plateau_min=8)

    def __init__(self, captures: int = 96) -> None:
        super().__init__()
        self.captures = captures
        self.min_rounds = captures

    def setup(self, seed: int, work_dir) -> None:
        self.profiles = scenario_profiles()
        rng = np.random.default_rng((seed, 1))
        self.paths = []
        self.truth = []
        for k in range(self.captures):
            profile = self.profiles[k % len(self.profiles)]
            training = np.tile(qpsk(rng, self.LAG), self.TRAINING_REPEATS)
            preamble = AMPLITUDE * math.sqrt(2.0) * profile.preamble.samples
            packet = np.concatenate((training, preamble, qpsk(rng, self.PAYLOAD)))
            start = int(rng.integers(256, self.LENGTH - len(packet) - 256))
            clean = np.zeros(self.LENGTH, dtype=np.complex128)
            clean[start : start + len(packet)] = packet
            stream = quantize(add_awgn(clean, IDLE_SNR_DB, rng, 2 * AMPLITUDE**2), Q1_15)
            path = work_dir / f"capture{k:03d}.iqpd"
            iqfile.write_iq(path, stream)
            self.paths.append(path)
            peak = start + len(training) + profile.correlator_len - 1
            self.truth.append([(profile.id, peak)])

    def warm_up(self) -> None:
        for path in self.paths[:3]:
            self.detect(path)

    def detect(self, path):
        stream = iqfile.read_iq(path)
        regs = standards.build_register_map(
            self.profiles, energy=PACKET_ENERGY, coarse=self.COARSE, fmt=stream.format
        )
        return len(stream), standards.run_detector_bank(stream, self.profiles, regs)

    def run_round(self, r: int, tracer) -> list[Op]:
        k = r % self.captures
        if tracer is not None:
            tracer.op = r
        calibration = calibration_seconds()
        start = clock()
        samples, events = self.detect(self.paths[k])
        elapsed = clock() - start
        got = event_tuples(events)
        self._record(r, got == self.truth[k], repr((k, events)).encode())
        return [Op(elapsed, samples, calibration)]


class StreamRegswap(Workload):
    """Sample-at-a-time streaming through DetectorBank.push with register
    maps swapped every epoch.

    The capture holds ``epochs`` epochs of ``EPOCH`` samples, each with one
    packet (a preamble of the epoch's coefficient set, then QPSK payload)
    in idle air.  Even epochs publish set A (the scenario profiles), odd
    epochs set B (other preambles of the same lengths, other thresholds).
    One op is one epoch: publish the map, push its samples.  Round r is
    epoch ``r % epochs`` of a capture that loops, so the bank streams on
    without a reset.
    """

    name = "stream_regswap"
    EPOCH = 400
    PAYLOAD = 96
    SET_B_THRESHOLDS = (48, 96, 96)

    def __init__(self, epochs: int = 64) -> None:
        super().__init__()
        if epochs % 2:
            raise ValueError("epochs must be even so each epoch keeps its set on every pass")
        self.epochs = epochs
        self.min_rounds = epochs

    def setup(self, seed: int, work_dir) -> None:
        set_a = scenario_profiles()
        set_b = tuple(
            replace(p, fine_threshold=t)
            for p, t in zip(scenario_profiles(seed=8), self.SET_B_THRESHOLDS)
        )
        self.sets = (set_a, set_b)
        self.regs = (
            build_register_map(set_a, energy=PACKET_ENERGY),
            build_register_map(set_b, energy=replace(PACKET_ENERGY, count_threshold=6)),
        )
        self.refs = tuple([ref_pairs(p) for p in s] for s in self.sets)
        rng = np.random.default_rng((seed, 2))
        length = self.epochs * self.EPOCH
        clean = np.zeros(length, dtype=np.complex128)
        self.truth = []
        for k in range(self.epochs):
            p = int(rng.integers(len(set_a)))
            profile = self.sets[k % 2][p]
            offset = 32 + int(rng.integers(64))
            preamble = AMPLITUDE * math.sqrt(2.0) * profile.preamble.samples
            packet = np.concatenate((preamble, qpsk(rng, self.PAYLOAD)))
            start = k * self.EPOCH + offset
            clean[start : start + len(packet)] = packet
            self.truth.append((profile.id, offset + profile.correlator_len - 1))
        stream = quantize(add_awgn(clean, IDLE_SNR_DB, rng, 2 * AMPLITUDE**2), Q1_15)
        self.i = stream.i.tolist()
        self.q = stream.q.tolist()
        self.signs = [
            (1 if a >= 0 else -1, 1 if b >= 0 else -1) for a, b in zip(self.i, self.q)
        ]
        self.format = stream.format
        self.bank = DetectorBank(set_a, self.regs[0], self.format)

    def warm_up(self) -> None:
        bank = DetectorBank(self.sets[0], self.regs[0], self.format)
        for a, b in zip(self.i[: self.EPOCH], self.q[: self.EPOCH]):
            bank.push(a, b)

    def run_round(self, r: int, tracer) -> list[Op]:
        base = (r % self.epochs) * self.EPOCH
        i = self.i[base : base + self.EPOCH]
        q = self.q[base : base + self.EPOCH]
        push = self.bank.push
        if tracer is not None:
            tracer.op = r
        calibration = calibration_seconds()
        start = clock()
        self.bank.update_registers(self.regs[r % 2])
        span = tracer.begin("standards.DetectorBank.push") if tracer is not None else -1
        outs = [push(a, b) for a, b in zip(i, q)]
        if tracer is not None:
            tracer.end(span)
        elapsed = clock() - start
        if tracer is not None:
            worked = sum(o is not None for out in outs for o in out.values())
            tracer.counts["standards.pushes"] += len(outs)
            tracer.counts["standards.reg_publishes"] += 1
            tracer.counts["correlator.positions"] += len(outs) * len(self.sets[0])
            tracer.counts["correlator.work"] += worked
        ok, output = self.check(r, outs)
        self._record(r, ok, output)
        return [Op(elapsed, len(outs), calibration)]

    def check(self, r: int, outs) -> tuple[bool, bytes]:
        """Events from this epoch's outputs under this epoch's thresholds,
        and the first, middle and last output of every profile against the
        oracle computed with this epoch's bank."""
        set_index = r % 2
        profiles = self.sets[set_index]
        first = r * self.EPOCH
        length = len(self.signs)
        candidates = []
        output = bytearray()
        ok = True
        for order, profile in enumerate(profiles):
            pid = profile.id
            worked = [(j, out[pid]) for j, out in enumerate(outs) if out[pid] is not None]
            candidates += run_peaks(worked, profile, order, first)
            n = profile.correlator_len
            for x in sorted({0, len(worked) // 2, len(worked) - 1}) if worked else ():
                j, o = worked[x]
                t = first + j
                window = [self.signs[(t - n + 1 + m) % length] for m in range(n)]
                expected = sign_partials(window, self.refs[set_index][order])
                ok = ok and expected == (o.p_ii, o.p_qq, o.p_qi, o.p_iq)
            if r < self.min_rounds:
                for j, o in worked:
                    output += struct.pack("<iBiiii", j, order, o.p_ii, o.p_qq, o.p_qi, o.p_iq)
        events = events_from_candidates(candidates, ARB_WINDOW)
        tx_id, offset = self.truth[r % self.epochs]
        ok = ok and event_tuples(events) == [(tx_id, first + offset)]
        return ok, bytes(output)


def run_peaks(worked, profile, order: int, first: int) -> list[Candidate]:
    """Peak of every contiguous run of outputs at or above the threshold."""
    candidates = []
    peak = None
    prev = None
    for j, o in worked:
        if o.re >= profile.fine_threshold:
            if peak is not None and j == prev + 1:
                if o.re > peak[0]:
                    peak = (o.re, j)
            else:
                if peak is not None:
                    candidates.append(Candidate(profile, peak[0], first + peak[1], order))
                peak = (o.re, j)
        elif peak is not None:
            candidates.append(Candidate(profile, peak[0], first + peak[1], order))
            peak = None
        prev = j
    if peak is not None:
        candidates.append(Candidate(profile, peak[0], first + peak[1], order))
    return candidates


WORKLOADS = {w.name: w for w in (SweepCurves, CaptureSparse, StreamRegswap)}
