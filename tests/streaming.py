"""Build streams from codes, and drive the sample-at-a-time
``DetectorBank`` so its outputs can be compared with the batch path and the
oracles, ``reference_run`` among them."""

import functools

import numpy as np

from pktdet.correlator import CoefficientBank
from pktdet.signal import Q1_15, Preamble, SampleStream
from pktdet.standards import DetectorBank, RegisterMap, StandardProfile, build_register_map

from oracles import sign_bits, split_words


def stream_from_codes(codes, fmt=Q1_15):
    """A ``SampleStream`` of ``fmt`` holding the ``(i, q)`` code pairs
    ``codes``."""
    i = np.array([c[0] for c in codes], dtype=np.int32)
    q = np.array([c[1] for c in codes], dtype=np.int32)
    return SampleStream(format=fmt, i=i, q=q)


def code_signs(stream):
    """The signs of ``stream``'s codes as ``(si, sq)`` pairs of +-1 in
    sample order, a zero code counting as +1."""
    return [(1 if i >= 0 else -1, 1 if q >= 0 else -1) for i, q in stream.codes.T.tolist()]


def sign_pairs(bank):
    """The reference signs of ``bank`` as ``(si, sq)`` pairs of +-1 in
    sample order, ready to push as codes."""
    si, sq = bank.sign_arrays
    return list(zip(si.tolist(), sq.tolist()))


def bank_from_signs(pairs):
    """The coefficient bank whose reference signs are ``pairs``, ``(si, sq)``
    pairs of +-1 in sample order: the inverse of :func:`sign_pairs`, packed
    by the oracles rather than by ``load_coefficients``."""
    n = len(pairs)
    i_words, q_words = (
        split_words(bits, n) for bits in sign_bits(complex(si, sq) for si, sq in pairs)
    )
    return CoefficientBank(length=n, i_words=i_words, q_words=q_words)


def with_banks(regs, banks):
    """``regs`` with profile k's coefficient words replaced by those of
    ``banks[k]``, as the soft processor would load a reference."""
    values = dict(regs)
    for k, bank in enumerate(banks):
        for part, words in (("i", bank.i_words), ("q", bank.q_words)):
            for w, word in enumerate(words):
                values[f"prof{k}/coeff_{part}/{w}"] = word
    return RegisterMap(values)


@functools.lru_cache(maxsize=64)
def blank_map(lengths):
    """Profiles ``c0``, ``c1``, ... of the given lengths and their register
    map, whose coefficient words :func:`with_banks` overwrites."""
    profiles = [
        StandardProfile(f"c{k}", Preamble(np.ones(n)), fine_threshold=1)
        for k, n in enumerate(lengths)
    ]
    return profiles, build_register_map(profiles)


def pushes(profiles, regs, codes, schedule=(), fmt=Q1_15):
    """Push the ``(i, q)`` pairs ``codes`` through a ``DetectorBank`` under
    ``regs``, publishing each ``(sample, map)`` of ``schedule`` just before
    its sample; yield each push's output map."""
    bank = DetectorBank(profiles, regs, fmt)
    publishes = dict(schedule)
    for t, (i, q) in enumerate(codes):
        if t in publishes:
            bank.update_registers(publishes[t])
        yield bank.push(i, q)


def push_run(banks, stream, enable=None, publish=None):
    """Push every sample of ``stream`` through an ungated ``DetectorBank``
    whose profile k holds ``banks[k]``; per bank, the ``(n,
    CorrelatorOutput)`` pairs where it reported at an enabled position.  A
    gated push is an ungated one filtered to the enabled positions.
    ``publish`` maps a sample index to the banks whose words are published
    just before that sample."""
    profiles, blank = blank_map(tuple(b.length for b in banks))
    schedule = [(t, with_banks(blank, later)) for t, later in (publish or {}).items()]
    codes = zip(stream.i.tolist(), stream.q.tolist())
    run = pushes(profiles, with_banks(blank, banks), codes, schedule, stream.format)
    pairs = [[] for _ in banks]
    for t, outs in enumerate(run):
        if enable is None or enable[t]:
            for k, out in enumerate(outs.values()):
                if out is not None:
                    pairs[k].append((t, out))
    return pairs


def partials(out):
    """A ``CorrelatorOutput``'s four partials, or None for None."""
    return None if out is None else (out.p_ii, out.p_qq, out.p_qi, out.p_iq)


def push_partials(profiles, regs, codes, schedule=()):
    """Per Q1.15 push of :func:`pushes`, each profile's :func:`partials`, as
    a ``reference_run`` record holds them."""
    return [tuple(map(partials, outs.values())) for outs in pushes(profiles, regs, codes, schedule)]


def recorded_partials(run):
    """Per sample, each profile's partials or None, from a ``reference_run``
    result."""
    return [outs for _, _, outs in run[1]]


def event_tuples(events):
    """``DetectionEvent`` values as ``reference_run`` gives them."""
    return [(e.standard_id, e.peak_value, e.peak_index, e.stage_trace) for e in events]


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
