"""The benchmark's clock and its calibration loop.

Every duration the benchmark reports is CPU seconds of its own process
(user + system).  On a shared virtual machine the wall clock also counts
the time the host spends running other guests: a fixed 35 ms loop read
anywhere from 35 to 300 ms of wall time there, and about 35 ms of CPU time
every time.  The benchmark's process is single-threaded and CPU-bound, so
on an unshared machine the two clocks agree.

CPU time still drifts with the load other guests put on the shared cores.
So right before every op the workloads time a short fixed loop, and the
report scales the op's time by ``REFERENCE_CALIBRATION_S`` over that
timing.  The loop is the kind of Python the model runs per sample (bit
counts, small slotted objects, list appends) and never touches the
program, so a change to the program moves the metrics and not the scale.
"""

from __future__ import annotations

import time

clock = time.process_time

CALIBRATION_STEPS = 500
REFERENCE_CALIBRATION_S = 0.00025  # the loop's CPU time at reference speed


class _Cell:
    __slots__ = ("index", "total")

    def __init__(self, index: int, total: int) -> None:
        self.index = index
        self.total = total


def _calibration_loop() -> list:
    total = 0
    cells = []
    for i in range(CALIBRATION_STEPS):
        total += ((i ^ 0x5A5A) & 0xFFFF).bit_count()
        cells.append(_Cell(i, total))
    return cells


def calibration_seconds() -> float:
    """CPU time of the fixed calibration loop.  An untimed first pass
    brings caches and the allocator to the same state whatever op ran
    before, so the timed pass measures the machine and not the program."""
    _calibration_loop()
    start = clock()
    _calibration_loop()
    return clock() - start
