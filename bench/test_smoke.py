"""Smoke test of the benchmark at a tiny size: every named metric comes out
with its unit, and a corrupted program output makes the checks fail.

Run from the repository root:  python3 -m pytest bench -q
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

import run

workloads = run.load_program()

from pktdet import harness, standards  # noqa: E402  (needs the path set above)

TINY = {
    "sweep_curves": lambda: workloads.SweepCurves(trials_per_point=1),
    "capture_sparse": lambda: workloads.CaptureSparse(captures=3),
    "stream_regswap": lambda: workloads.StreamRegswap(epochs=2),
}
SEED = 3
SECONDS = 0.05


def declared(kind: str) -> dict[str, str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def measure(name: str, trace: bool = False, pinned: str | None = None):
    report = run.measure(TINY[name](), SEED, SECONDS, trace, pinned)
    return report, json.loads(report.result_line())


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", TINY)
def test_every_metric_is_emitted_with_its_unit(name, trace):
    report, line = measure(name, trace)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    emitted = {k: v["unit"] for k, v in line["metrics"].items()}
    assert emitted == declared("per_layer" if trace else "end_to_end")
    assert all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())


def swap_standard(events):
    other = {"pn32": "pn64a", "pn64a": "pn64b", "pn64b": "pn32"}
    return [replace(e, standard_id=other[e.standard_id]) for e in events]


def shift_index(events):
    return [replace(e, peak_index=e.peak_index + 1) for e in events]


@pytest.mark.parametrize("corrupt", [swap_standard, shift_index])
def test_corrupted_capture_events_fail(monkeypatch, corrupt):
    detect = standards.run_detector_bank
    monkeypatch.setattr(standards, "run_detector_bank", lambda *a, **k: corrupt(detect(*a, **k)))
    report, line = measure("capture_sparse")
    assert line["correct"] is False
    assert line["failed"] == line["attempted"] > 0


def test_swapped_standard_fails_the_sweep(monkeypatch):
    detect = harness.run_detector_bank
    monkeypatch.setattr(
        harness, "run_detector_bank", lambda *a, **k: swap_standard(detect(*a, **k))
    )
    report, line = measure("sweep_curves")
    assert line["correct"] is False and line["failed"] > 0


def test_stale_register_map_fails_the_stream(monkeypatch):
    # a bank that never adopts a published map answers odd epochs with set A
    monkeypatch.setattr(workloads.DetectorBank, "update_registers", lambda self, regs: None)
    report, line = measure("stream_regswap")
    assert line["correct"] is False and line["failed"] > 0


def test_corrupted_stream_output_fails(monkeypatch):
    push = workloads.DetectorBank.push

    def off_by_two(self, i_code, q_code):
        outs = push(self, i_code, q_code)
        out = outs["pn64a"]
        if out is not None:
            outs["pn64a"] = replace(out, p_ii=out.p_ii + 2)
        return outs

    monkeypatch.setattr(workloads.DetectorBank, "push", off_by_two)
    report, line = measure("stream_regswap")
    assert line["correct"] is False and line["failed"] > 0


def test_digest_mismatch_fails_the_run():
    report, line = measure("capture_sparse", pinned="0" * 64)
    assert line["correct"] is False and line["failed"] == 0
    assert any("PIN MISMATCH" in note for note in report.notes)
