"""pktdet benchmark: one command, three workloads, checked outputs.

Run from the repository root:

    python3 bench/run.py --workload sweep_curves --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and prints the per-module metrics, including
``trace.overhead`` (traced over untraced op p50).  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
run's provenance, the tail percentile and op count, the error rate and the
output digest.  The exit code is 0 only when every check passed.

The program is imported from ``src/`` of the checkout this file sits in,
so the benchmark measures that source tree and nothing installed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from timing import REFERENCE_CALIBRATION_S, calibration_seconds, clock
from tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
BLOCK_OPS = 96  # one pass over the 96 captures


class ProgramMissing(RuntimeError):
    pass


def load_program():
    """Put the checkout's ``src``, ``tests`` (for the oracles) and this
    directory on the path and import the workloads."""
    if not (SRC / "pktdet" / "__init__.py").is_file():
        raise ProgramMissing(f"no pktdet source tree at {SRC}")
    if not (ROOT / "tests" / "oracles.py").is_file():
        raise ProgramMissing(f"no reference oracles at {ROOT / 'tests'}")
    for path in (BENCH_DIR, ROOT / "tests", SRC):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import pktdet

    if Path(pktdet.__file__).resolve().parent != SRC / "pktdet":
        raise ProgramMissing(f"pktdet imported from {pktdet.__file__}, not from {SRC}")
    import workloads

    return workloads


def import_seconds() -> float:
    """Median CPU time, at reference speed, for a fresh interpreter that
    has already loaded numpy to import pktdet from ``src``.  It is printed
    but kept out of ``setup_s``: on a shared virtual machine the cost of a
    fresh process's first touch of its memory swung by half between sets of
    runs while the calibration loop held steady."""
    code = (
        "import statistics, sys, time; sys.path[:0] = sys.argv[1:]; import numpy; "
        "from timing import REFERENCE_CALIBRATION_S, calibration_seconds; "
        "scale = REFERENCE_CALIBRATION_S / statistics.median("
        "calibration_seconds() for _ in range(5)); "
        "t = time.process_time(); import pktdet; print((time.process_time() - t) * scale)"
    )
    times = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", code, str(SRC), str(BENCH_DIR)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        times.append(float(done.stdout))
    return statistics.median(times)


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` when the checkout has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
    }


def tail(op_s: list[float]) -> tuple[float, float]:
    """(value, percentile) of the slowest op with ten ops beyond it: the
    highest percentile that still has ten samples past it."""
    ordered = sorted(op_s)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def blocks(rounds: list[list]) -> list[list]:
    """Consecutive whole rounds grouped into blocks of at least
    ``BLOCK_OPS`` ops; a short remainder joins the last block."""
    parts: list[list] = [[]]
    for ops in rounds:
        if len(parts[-1]) >= BLOCK_OPS:
            parts.append([])
        parts[-1].extend(ops)
    if len(parts) > 1 and len(parts[-1]) < BLOCK_OPS:
        parts[-2].extend(parts.pop())
    return parts


def at_reference(op) -> float:
    """The op's CPU seconds scaled by the calibration timed right before it."""
    return op.seconds * REFERENCE_CALIBRATION_S / op.calibration


def end_to_end(rounds: list[list]) -> tuple[dict[str, tuple[float, str]], str]:
    """Throughput, p50 and tail at reference speed, each the median over
    blocks of consecutive ops, so that a burst of load from outside the run
    moves one block and not the result."""
    parts = blocks(rounds)
    rates, p50s, tails, pcts = [], [], [], []
    for part in parts:
        seconds = [at_reference(op) for op in part]
        rates.append(sum(op.samples for op in part) / sum(seconds))
        p50s.append(statistics.median(seconds))
        value, pct = tail(seconds)
        tails.append(value)
        pcts.append(pct)
    metrics = {
        "samples_per_s": (statistics.median(rates), "samples/s"),
        "op_p50_ms": (statistics.median(p50s) * 1e3, "ms"),
        "op_tail_ms": (statistics.median(tails) * 1e3, "ms"),
    }
    note = (
        f"{sum(map(len, parts))} untraced ops in {len(parts)} blocks; each metric is the "
        f"median over blocks; op_tail_ms is each block's p{statistics.median(pcts):.1f} "
        f"(its slowest op with 10 ops beyond it)"
    )
    return metrics, note


@dataclass
class Report:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    notes: list[str]

    def result_line(self) -> str:
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
            }
        )


def run_rounds(wl, seconds: float, tracer):
    """Run rounds until ``seconds`` of wall time have passed and at least
    ``wl.min_rounds`` (two when traced) are done.  With a tracer, odd rounds
    are traced.  Returns the untraced ops per round, the traced ops and the
    round count."""
    plain: list[list] = []
    traced: list = []
    r = 0
    min_rounds = max(wl.min_rounds, 1 if tracer is None else 2)
    deadline = time.perf_counter() + seconds
    while r < min_rounds or time.perf_counter() < deadline:
        if tracer is not None and r % 2 == 1:
            tracer.install()
            try:
                traced.extend(wl.run_round(r, tracer))
            finally:
                tracer.uninstall()
        else:
            plain.append(wl.run_round(r, None))
        r += 1
    return plain, traced, r


def measure(wl, seed: int, seconds: float, trace: bool, pinned: str | None = None) -> Report:
    """Set ``wl`` up, run and check it, and report its end-to-end metrics,
    or its per-module metrics when ``trace`` is set."""
    import_s = import_seconds()
    WORK_DIR.mkdir(exist_ok=True)
    tracer = Tracer() if trace else None
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        wl.setup(seed, Path(tmp))  # first touch of the set-up's memory, not timed
        setups = []
        for _ in range(SETUP_REPEATS):
            scale = REFERENCE_CALIBRATION_S / calibration_seconds()
            start = clock()
            wl.setup(seed, Path(tmp))
            setups.append((clock() - start) * scale)
        wl.warm_up()
        gc.collect()
        plain, traced, rounds = run_rounds(wl, seconds, tracer)

    digest = wl.digest()
    digest_ok = pinned is None or digest == pinned
    error_rate = wl.failed / wl.attempted
    metrics, block_note = end_to_end(plain)
    calibrations = [op.calibration for ops in plain for op in ops]
    calibrations += [op.calibration for op in traced]
    calibration = statistics.median(calibrations)
    speed = REFERENCE_CALIBRATION_S / calibration
    pin_note = "not pinned" if pinned is None else "matches pin" if digest_ok else "PIN MISMATCH"
    notes = [
        f"{wl.name}: {rounds} rounds; {block_note}",
        f"calibration loop: median {calibration * 1e6:.1f} us CPU over {len(calibrations)} "
        f"timings; each op and set-up is scaled by the timing right before it, span "
        f"times by {speed:.4f}, to the reference speed ({REFERENCE_CALIBRATION_S * 1e6:g} us)",
        f"import of pktdet after numpy: {import_s * 1e3:.1f} ms at reference speed "
        f"(median of {IMPORT_REPEATS} fresh interpreters; not part of setup_s)",
        f"error_rate {error_rate:.6g} ({wl.failed} failed of {wl.attempted} checked)",
        f"digest sha256 {digest} ({pin_note})",
    ]
    if trace:
        untraced_p50 = statistics.median(at_reference(op) for ops in plain for op in ops)
        metrics = at_speed(tracer.layer_metrics(), speed)
        metrics["trace.overhead"] = (
            statistics.median(at_reference(op) for op in traced) / untraced_p50,
            "ratio",
        )
        metrics["trace.ops"] = (len(traced), "count")
        metrics["error_rate"] = (error_rate, "ratio")
        trace_file = WORK_DIR / f"trace-{wl.name}-seed{seed}.json"
        trace_file.write_text(json.dumps({"spans": tracer.dump()}))
        notes.append(
            f"{len(tracer.spans)} spans over {len(traced)} traced ops, "
            f"written to {trace_file.relative_to(ROOT)}"
        )
    else:
        metrics |= {
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (statistics.median(setups), "s"),
        }
    return Report(wl.failed == 0 and digest_ok, wl.attempted, wl.failed, metrics, notes)


def at_speed(metrics: dict[str, tuple[float, str]], speed: float) -> dict[str, tuple[float, str]]:
    """Scale every time in ``metrics`` by ``speed``."""
    return {k: (v * speed if u == "s" else v, u) for k, (v, u) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        workloads = load_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    pins = json.loads((BENCH_DIR / "digests.json").read_text())
    pinned = pins["digests"].get(args.workload) if args.seed == pins["seed"] else None
    wl = workloads.WORKLOADS[args.workload]()
    trace = bool(args.trace)
    report = measure(wl, args.seed, args.seconds, trace, pinned)
    print(json.dumps({"provenance": provenance(args.workload, args.seed, args.seconds, trace)}))
    for note in report.notes:
        print(note)
    print(report.result_line())
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
