"""In-memory span tracing for the pktdet benchmark.

Spans come only from this directory.  The tracer swaps each traced public
callable for a timing wrapper at the module attribute its caller looks up
(``harness`` and ``standards`` import their collaborators by name, so the
wrapper goes on ``harness.quantize``, ``standards.enable_array`` and so
on), and puts the originals back when it is switched off.  Nothing under
``src/`` changes.

Each span records its name, start, end, parent span and op id.  Spans stay
in memory until the run ends; per-module metrics, self times included, are
computed from them afterwards.
"""

from __future__ import annotations

import os
from collections import Counter, defaultdict
from dataclasses import dataclass

from timing import clock


class Patches:
    """A stack of module-attribute replacements, undone in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Tracer.spans, -1 at the root
    op: int


class Tracer:
    """Collects spans and counters while installed over the pktdet modules."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._patches = Patches()

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, clock(), 0.0, parent, self.op))
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = clock()
        self._stack.pop()

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` with a spanned call; ``count(counts, args,
        result)`` runs after the span closes, so it is not timed."""
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.end(index)
            if count is not None:
                count(self.counts, args, result)
            return result

        self._patches.set(owner, attr, traced)

    def install(self) -> None:
        from pktdet import harness, iqfile, standards

        def synth(counts, args, stream):
            counts["signal.samples"] += len(stream)
            counts["signal.saturations"] += stream.saturation_count

        def gate(counts, args, enable):
            counts["energy.positions"] += len(enable)
            counts["energy.active"] += int(enable.sum())

        def coarse(counts, args, out):
            counts["coarse.triggers"] += out.first_trigger is not None

        def arbitrate(counts, args, events):
            counts["standards.candidates"] += len(args[0])
            counts["standards.events"] += len(events)

        def read(counts, args, stream):
            counts["iqfile.bytes"] += os.path.getsize(args[0])

        self.wrap(harness, "run_trial", "harness.run_trial")
        self.wrap(harness, "embed_preamble", "signal.embed_preamble")
        self.wrap(harness, "add_awgn", "signal.add_awgn")
        self.wrap(harness, "quantize", "signal.quantize", synth)
        for owner in (harness, standards):
            self.wrap(owner, "build_register_map", "standards.build_register_map")
            self.wrap(owner, "run_detector_bank", "standards.run_detector_bank")
        self.wrap(standards, "enable_array", "energy.enable_array", gate)
        self.wrap(standards, "detect_coarse", "coarse.detect_coarse", coarse)
        self.wrap(standards, "latch_enable", "correlator.latch_enable")
        self.wrap(
            standards, "events_from_candidates", "standards.events_from_candidates", arbitrate
        )
        self.wrap(iqfile, "read_iq", "iqfile.read_iq", read)

        tracer = self
        base = standards.SignCorrelator

        class TracedSignCorrelator(base):
            def process(self, stream, enable=None):
                before = self.work_count
                index = tracer.begin("correlator.process")
                try:
                    return super().process(stream, enable)
                finally:
                    tracer.end(index)
                    tracer.counts["correlator.positions"] += len(stream)
                    tracer.counts["correlator.work"] += self.work_count - before

        self._patches.set(standards, "SignCorrelator", TracedSignCorrelator)

    def uninstall(self) -> None:
        self._patches.restore()

    def totals(self) -> tuple[dict[str, float], dict[str, float], Counter]:
        """Total time, self time and span count per span name."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for index, span in enumerate(self.spans):
            duration = span.end - span.start
            total[span.name] += duration
            self_time[span.name] += duration - child_time[index]
            calls[span.name] += 1
        return total, self_time, calls

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-module metrics as ``name -> (value, unit)``, summed over the
        traced ops.  Stages a workload does not run read 0."""
        total, self_time, calls = self.totals()
        c = self.counts

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        return {
            "harness.trial_s": (total["harness.run_trial"], "s"),
            "harness.trial_self_s": (self_time["harness.run_trial"], "s"),
            "signal.synth_s": (
                sum(total[f"signal.{f}"] for f in ("embed_preamble", "add_awgn", "quantize")),
                "s",
            ),
            "signal.samples": (c["signal.samples"], "count"),
            "signal.saturations": (c["signal.saturations"], "count"),
            "standards.regs_build_s": (total["standards.build_register_map"], "s"),
            "standards.regs_builds": (calls["standards.build_register_map"], "count"),
            "standards.bank_s": (total["standards.run_detector_bank"], "s"),
            "standards.bank_self_s": (self_time["standards.run_detector_bank"], "s"),
            "standards.arbitrate_s": (total["standards.events_from_candidates"], "s"),
            "standards.candidates": (c["standards.candidates"], "count"),
            "standards.events": (c["standards.events"], "count"),
            "standards.events_per_candidate": (
                ratio(c["standards.events"], c["standards.candidates"]),
                "ratio",
            ),
            "standards.push_s": (total["standards.DetectorBank.push"], "s"),
            "standards.pushes": (c["standards.pushes"], "count"),
            "standards.reg_publishes": (c["standards.reg_publishes"], "count"),
            "energy.gate_s": (total["energy.enable_array"], "s"),
            "energy.duty_raw": (ratio(c["energy.active"], c["energy.positions"]), "ratio"),
            "coarse.detect_s": (total["coarse.detect_coarse"], "s"),
            "coarse.calls": (calls["coarse.detect_coarse"], "count"),
            "coarse.trigger_rate": (
                ratio(c["coarse.triggers"], calls["coarse.detect_coarse"]),
                "ratio",
            ),
            "correlator.process_s": (total["correlator.process"], "s"),
            "correlator.latch_s": (total["correlator.latch_enable"], "s"),
            "correlator.positions": (c["correlator.positions"], "count"),
            "correlator.work": (c["correlator.work"], "count"),
            "correlator.work_ratio": (
                ratio(c["correlator.work"], c["correlator.positions"]),
                "ratio",
            ),
            "iqfile.read_s": (total["iqfile.read_iq"], "s"),
            "iqfile.bytes": (c["iqfile.bytes"], "bytes"),
        }

    def dump(self) -> list[list]:
        return [[s.name, s.start, s.end, s.parent, s.op] for s in self.spans]
