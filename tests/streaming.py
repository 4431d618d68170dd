"""Drive the sample-at-a-time correlator so its outputs can be compared
with the batch path."""

import numpy as np


def as_outputs(pairs):
    """``(n, CorrelatorOutput)`` pairs in the ``(index, partials)`` shape
    that ``SignCorrelator.process`` returns."""
    index = np.array([n for n, _ in pairs], dtype=np.int64)
    rows = [(o.p_ii, o.p_qq, o.p_qi, o.p_iq) for _, o in pairs]
    return index, np.array(rows, dtype=np.int64).reshape(-1, 4).T


def push_run(corr, stream, enable=None):
    """Push every sample of ``stream`` through ``corr``; its outputs as
    :func:`as_outputs` shapes them."""
    pairs = []
    for t in range(len(stream)):
        enabled = True if enable is None else bool(enable[t])
        out = corr.push(int(stream.i[t]), int(stream.q[t]), enabled)
        if out is not None:
            pairs.append((t, out))
    return as_outputs(pairs)


def same_outputs(a, b) -> bool:
    """Two ``(index, partials)`` results hold the same positions and values."""
    return np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
