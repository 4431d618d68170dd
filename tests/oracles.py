"""Independent reference implementations used to check the pipeline.

Everything here is deliberately naive: exact rational rounding, O(N*W)
per-window recomputation, plain +-1 dot products, full-precision float
correlation.  None of it shares code with the package under test.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

import numpy as np


def round_half_away(value: float, fractional_bits: int, min_code: int, max_code: int) -> int:
    """Exact rational round-half-away-from-zero with saturation."""
    scaled = Fraction(value) * (1 << fractional_bits)
    whole = int(scaled)
    remainder = scaled - whole
    if remainder >= Fraction(1, 2):
        whole += 1
    elif remainder <= Fraction(-1, 2):
        whole -= 1
    return min(max(whole, min_code), max_code)


def quantize_oracle(values, fmt) -> tuple[list[tuple[int, int]], int]:
    """Componentwise rational quantization; returns codes and saturation
    count.  An infinite component saturates."""
    pairs = []
    saturations = 0
    for v in values:
        codes = []
        for x in (v.real, v.imag):
            if math.isinf(x):
                unclipped = int(math.copysign(1 << 40, x))
            else:
                unclipped = round_half_away(x, fmt.fractional_bits, -(1 << 40), 1 << 40)
            clipped = min(max(unclipped, fmt.min_code), fmt.max_code)
            saturations += clipped != unclipped
            codes.append(clipped)
        pairs.append((codes[0], codes[1]))
    return pairs, saturations


def exceed_count(i_codes, q_codes, start: int, window_len: int, thr_raw) -> int:
    count = 0
    for n in range(start, start + window_len):
        if int(i_codes[n]) ** 2 + int(q_codes[n]) ** 2 > thr_raw:
            count += 1
    return count


def oracle_enable(i_codes, q_codes, window_len: int, thr_raw, count: int) -> list[bool]:
    """The gate decision at every position by a per-window recount: the
    window of ``window_len`` samples ending there is full and more than
    ``count`` of them have energy above ``thr_raw`` (an int or a float)."""
    return [
        n >= window_len - 1
        and exceed_count(i_codes, q_codes, n - window_len + 1, window_len, thr_raw) > count
        for n in range(len(i_codes))
    ]


def slice_sums(values, width: int) -> list[int]:
    """Window sums by summing each slice: the windows ending at each k,
    clipped at the start."""
    values = [int(v) for v in values]
    return [sum(values[max(0, k - width + 1) : k + 1]) for k in range(len(values))]


def sign_bits(samples) -> tuple[int, int]:
    """The I and Q component signs of a reference as two integers, one bit
    per loop step: bit k is 1 when sample k's component is >= 0."""
    re_bits = im_bits = 0
    for k, sample in enumerate(samples):
        if sample.real >= 0:
            re_bits |= 1 << k
        if sample.imag >= 0:
            im_bits |= 1 << k
    return re_bits, im_bits


def split_words(value: int, length: int) -> tuple[int, ...]:
    """Cut a ``length``-bit integer into 32-bit words, least significant first."""
    count = (length + 31) // 32
    return tuple((value >> (32 * w)) & 0xFFFFFFFF for w in range(count))


def sign_partials(window_pairs, ref_pairs) -> tuple[int, int, int, int]:
    """Plain +-1 dot products of received signs against reference signs."""
    assert len(window_pairs) == len(ref_pairs)
    p_ii = p_qq = p_qi = p_iq = 0
    for (ai, aq), (bi, bq) in zip(window_pairs, ref_pairs):
        p_ii += ai * bi
        p_qq += aq * bq
        p_qi += aq * bi
        p_iq += ai * bq
    return p_ii, p_qq, p_qi, p_iq


def run_peaks(outputs, threshold: int) -> list[tuple[int, int]]:
    """(peak value, peak index) of every run of ``(index, re)`` outputs at or
    above ``threshold``, by one pass over the positions.

    A run breaks when the index jumps or ``re`` drops below the threshold;
    within a run the first maximum wins."""
    peaks = []
    run_peak = None
    run_peak_index = -1
    prev_index = None
    for index, value in outputs:
        contiguous = prev_index is not None and index == prev_index + 1
        prev_index = index
        if value >= threshold:
            if run_peak is not None and contiguous:
                if value > run_peak:
                    run_peak, run_peak_index = value, index
            else:
                if run_peak is not None:
                    peaks.append((run_peak, run_peak_index))
                run_peak, run_peak_index = value, index
        else:
            if run_peak is not None:
                peaks.append((run_peak, run_peak_index))
                run_peak = None
    if run_peak is not None:
        peaks.append((run_peak, run_peak_index))
    return peaks


def arbitrated_events(candidates, arb_window: int, gate_run_starts=None, coarse_index=None):
    """``(standard id, peak value, peak index, stage trace)`` per event, by
    one pass over the candidates in (peak index, order) order.

    A cluster grows while each candidate lies within ``arb_window`` samples
    of the one before it.  Its winner has the longest correlator, then the
    highest peak, the lowest peak index and the lowest order.  The gate index
    is the last of the sorted ``gate_run_starts`` at or before the winner's
    peak, found by a scan."""
    starts = [] if gate_run_starts is None else [int(s) for s in gate_run_starts]
    ordered = sorted(candidates, key=lambda c: (c.peak_index, c.order))
    events = []
    cluster = []

    def flush() -> None:
        if not cluster:
            return
        winner = cluster[0]
        for c in cluster[1:]:
            if (c.profile.correlator_len, c.peak_value, -c.peak_index, -c.order) > (
                winner.profile.correlator_len,
                winner.peak_value,
                -winner.peak_index,
                -winner.order,
            ):
                winner = c
        before = [s for s in starts if s <= winner.peak_index]
        gate = before[-1] if before else None
        trace = (gate, coarse_index)
        events.append((winner.profile.id, winner.peak_value, winner.peak_index, trace))

    for cand in ordered:
        if cluster and cand.peak_index - cluster[-1].peak_index > arb_window:
            flush()
            cluster = []
        cluster.append(cand)
    flush()
    return events


def schmidl_point(i_codes, q_codes, lag: int, d: int) -> tuple[int, int, int]:
    """Direct recomputation of (P_re, P_im, R) at one position."""
    p_re = p_im = r = 0
    for m in range(lag):
        ai, aq = int(i_codes[d + m]), int(q_codes[d + m])
        bi, bq = int(i_codes[d + m + lag]), int(q_codes[d + m + lag])
        # conj(a) * b
        p_re += ai * bi + aq * bq
        p_im += ai * bq - aq * bi
        r += bi * bi + bq * bq
    return p_re, p_im, r


def plateau_scan(metric, threshold: float, plateau: int) -> int | None:
    """O(n * plateau) rescan for the first qualifying run start."""
    values = list(metric)
    for d in range(len(values) - plateau + 1):
        if all(values[d + k] >= threshold for k in range(plateau)):
            return d
    return None


def maximal_run_starts(values, width: int) -> list[int]:
    """Start of every maximal run of at least ``width`` true values, by one
    pass that measures each run when it ends."""
    starts = []
    run_start = None
    for k, value in enumerate([*values, False]):
        if value and run_start is None:
            run_start = k
        elif not value and run_start is not None:
            if k - run_start >= width:
                starts.append(run_start)
            run_start = None
    return starts


def coarse_trigger_exact(i_codes, q_codes, lag: int, thr_q15: int, plateau: int) -> int | None:
    """First start of ``plateau`` consecutive positions whose metric is at or
    above ``thr_q15 / 2**15``, decided as ``|P|**2 * 2**15 >= thr_q15 * R**2``
    in Python ints.  Where R = 0, P = 0 too and the metric counts as 0, so
    such a position is above only at ``thr_q15 = 0``."""
    above = []
    for d in range(len(i_codes) - 2 * lag + 1):
        p_re, p_im, r = schmidl_point(i_codes, q_codes, lag, d)
        if r == 0:
            above.append(thr_q15 == 0)
        else:
            above.append((p_re * p_re + p_im * p_im) << 15 >= thr_q15 * r * r)
    return plateau_scan(above, True, plateau)


def latched_run_starts(raw, holdoff: int) -> list[int]:
    """Where each run of the latched gate starts: every raw decision is held
    for ``holdoff`` more samples, then the positions where the held gate
    turns on are kept."""
    latched = [any(raw[max(0, k - holdoff) : k + 1]) for k in range(len(raw))]
    return [k for k, on in enumerate(latched) if on and (k == 0 or not latched[k - 1])]


ReferenceCandidate = namedtuple("ReferenceCandidate", "profile peak_value peak_index order")


def word_signs(regs, p: int, length: int) -> list[tuple[int, int]]:
    """Profile ``p``'s reference signs as ``(si, sq)`` pairs of +-1, read bit
    by bit off its coefficient words: bit k of word w is sample 32w + k."""
    bits = [0, 0]
    for part, name in enumerate("iq"):
        for w in range((length + 31) // 32):
            bits[part] |= regs[f"prof{p}/coeff_{name}/{w}"] << (32 * w)
    return [tuple(1 if b >> k & 1 else -1 for b in bits) for k in range(length)]


def reference_run(codes, profiles, regs, schedule=()):
    """The whole pipeline over the ``(i, q)`` code pairs ``codes``, one
    sample at a time in Python ints, reading each register word by key.

    ``profiles`` give each standard's ``id`` and ``correlator_len`` in
    registration order; ``regs`` is the map in force from sample 0, and each
    ``(sample, map)`` of ``schedule`` is in force from its sample on.
    Returns ``(events, record)``: ``events`` as :func:`arbitrated_events`
    gives them, and ``record[t]`` the raw gate (the energy decision, before
    any coarse cut), the latched gate and, per profile, its four partials
    or None at sample t.

    Per sample, under the map in force:
      * a sample's exceedance is decided when it arrives, and the count of
        the last ``energy/window_len`` of them is compared under the current
        map; the gate stays shut until that many samples are in;
      * the hold-off is a counter, reloaded while the raw gate is open;
      * a profile reports at t when the gate is latched, the profile is
        enabled and t + 1 >= n.
    Events, under the first map only, from the outputs the record holds:
      * the first coarse trigger clears the raw gate before it, and no
        trigger means no events; the latch runs over that cut gate;
      * candidates are the run peaks of ``re`` over the latched positions,
        where a gap breaks a run;
      * gate-run starts come from the uncut raw gate, only with energy on
        and a candidate found;
      * the arbitration window is the longest profile's length, disabled
        profiles included.
    A schedule with the coarse stage on raises: no pipeline runs one."""
    codes = [(int(i), int(q)) for i, q in codes]
    profiles = list(profiles)
    schedule = dict(schedule)
    first = regs
    if schedule and any(m["coarse/enabled"] for m in (regs, *schedule.values())):
        raise ValueError("a schedule with the coarse stage on")
    start = 0  # where the cut gate may open; None for no coarse trigger
    if regs["coarse/enabled"]:
        start = coarse_trigger_exact(
            [i for i, _ in codes],
            [q for _, q in codes],
            regs["coarse/lag"],
            regs["coarse/thresh_q15"],
            regs["coarse/plateau"],
        )
    signs, exceed, record = [], [], []
    left = 0  # hold-off samples still to run
    for t, (i, q) in enumerate(codes):
        if t == 0 or t in schedule:
            regs = schedule.get(t, regs)
            refs = [word_signs(regs, p, x.correlator_len) for p, x in enumerate(profiles)]
        signs.append((1 if i >= 0 else -1, 1 if q >= 0 else -1))
        exceed.append(i * i + q * q > regs["energy/sample_thresh_raw"])
        window = regs["energy/window_len"]
        raw = not regs["energy/enabled"] or (
            t + 1 >= window and sum(exceed[t + 1 - window :]) > regs["energy/count_thresh"]
        )
        if raw and start is not None and t >= start:
            left, latched = regs["fine/holdoff"], True
        elif left:
            left, latched = left - 1, True
        else:
            latched = False
        outs = []
        for p, x in enumerate(profiles):
            n = x.correlator_len
            on = latched and regs[f"prof{p}/enabled"] and t + 1 >= n
            outs.append(sign_partials(signs[t + 1 - n :], refs[p]) if on else None)
        record.append((raw, latched, tuple(outs)))

    candidates = []
    for p, x in enumerate(profiles):
        outputs = [(t, o[p][0] + o[p][1]) for t, (_, _, o) in enumerate(record) if o[p]]
        for value, index in run_peaks(outputs, first[f"prof{p}/threshold"]):
            candidates.append(ReferenceCandidate(x, value, index, p))
    starts = None
    if first["energy/enabled"] and candidates:
        starts = latched_run_starts([raw for raw, _, _ in record], first["fine/holdoff"])
    coarse_index = start if first["coarse/enabled"] else None
    arb_window = max(x.correlator_len for x in profiles)
    return arbitrated_events(candidates, arb_window, starts, coarse_index), record


def float_xcorr(signal, reference) -> np.ndarray:
    """|sum conj(y[k+m]) h[m]| for every start offset k, by direct loops."""
    signal = np.asarray(signal, dtype=np.complex128)
    reference = np.asarray(reference, dtype=np.complex128)
    n = len(reference)
    out = np.empty(len(signal) - n + 1)
    for k in range(len(out)):
        acc = 0.0 + 0.0j
        for m in range(n):
            acc += np.conj(signal[k + m]) * reference[m]
        out[k] = abs(acc)
    return out


def float_xcorr_argmax(signal, reference) -> int:
    """Start offset maximizing the full-precision correlation magnitude."""
    return int(np.argmax(float_xcorr(signal, reference)))


def sign_detection_probability(n: int, threshold: int, snr_db: float) -> float:
    """Probability that an n-point sign correlator fires at perfect alignment.

    Model: the transmitted preamble has constant modulus with components
    +-a, and the AWGN convention of ``add_awgn`` gives each component noise
    of variance a**2 / snr.  Each of the 2n component signs then flips
    independently with rate q = erfc(sqrt(snr / 2)) / 2.  At alignment
    ``re = 2n - 2 * flips``, and a candidate opens on ``re >= threshold``,
    so the probability is P[Binomial(2n, q) <= floor((2n - threshold) / 2)].

    Left out of the model, each a small effect at the default scenario:
      * quantized codes of exactly 0, which the categoriser counts as +1
        whatever the sign of the unquantized value;
      * threshold crossings at positions off the alignment, which can
        detect a packet whose aligned ``re`` missed;
      * the energy gate, which can hold the correlator off at alignment;
      * cross-standard false alarms, where another profile's crossing
        wins arbitration.
    """
    q = 0.5 * math.erfc(math.sqrt(10.0 ** (snr_db / 10.0) / 2.0))
    components = 2 * n
    max_flips = (components - threshold) // 2
    return sum(
        math.comb(components, k) * q**k * (1.0 - q) ** (components - k)
        for k in range(max_flips + 1)
    )


def binomial_acceptance_region(trials: int, p: float, alpha: float) -> tuple[int, int]:
    """Equal-tailed acceptance region [lo, hi] of Binomial(trials, p).

    Each tail outside the region has probability at most alpha / 2, so a
    count drawn from the distribution falls outside with probability at most
    alpha.  The tails are summed in exact integer arithmetic: with
    p = num / den, P[X = k] = comb(trials, k) num**k (den - num)**(trials - k)
    / den**trials.
    """
    exact = Fraction(p)
    num, den = exact.numerator, exact.denominator
    weights = [
        math.comb(trials, k) * num**k * (den - num) ** (trials - k)
        for k in range(trials + 1)
    ]
    budget = Fraction(alpha) / 2 * den**trials
    lo, tail = 0, 0
    while tail + weights[lo] <= budget:
        tail += weights[lo]
        lo += 1
    hi, tail = trials, 0
    while tail + weights[hi] <= budget:
        tail += weights[hi]
        hi -= 1
    return lo, hi
