"""Drive the sample-at-a-time correlator so its outputs can be compared
with the batch path."""

import numpy as np


def sign_pairs(bank):
    """The reference signs of ``bank`` as ``(si, sq)`` pairs of +-1 in
    sample order, ready to push as codes."""
    si, sq = bank.sign_arrays
    return list(zip(si.tolist(), sq.tolist()))


def push_run(corr, stream, enable=None):
    """Push every sample of ``stream`` through ``corr``; the ``(n,
    CorrelatorOutput)`` pairs of the positions where it reported."""
    pairs = []
    for t in range(len(stream)):
        enabled = True if enable is None else bool(enable[t])
        out = corr.push(int(stream.i[t]), int(stream.q[t]), enabled)
        if out is not None:
            pairs.append((t, out))
    return pairs


def as_outputs(pairs):
    """``(n, CorrelatorOutput)`` pairs in the ``(index, re)`` shape that
    ``SignCorrelator.process`` returns."""
    index = np.array([n for n, _ in pairs], dtype=np.int64)
    re = np.array([o.re for _, o in pairs], dtype=np.int64)
    return index, re


def same_outputs(a, b) -> bool:
    """Two ``(index, re)`` results hold the same positions and values, both
    int64."""
    return all(x.dtype == y.dtype == np.int64 and np.array_equal(x, y) for x, y in zip(a, b))
