"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest -s`` to see them).

Criterion 4(b) compares the 64-sample and 32-sample detection curves.  The
scenario's thresholds (50/64 and 100/128) are the same fraction of the ideal
maxima, not the same false-alarm rate: on noise alone a position crosses
them with probability 3.8e-11 and 5.8e-21.  So the curves must cross where
the per-component sign-flip rate equals the margin fraction (near +2 dB), and
below that point the shorter correlator's wider binomial spread detects more
often.  4(b) therefore checks both curves against the sign-flip binomial
model (``oracles.sign_detection_probability``) at every SNR, and requires
the 64-sample curve to dominate within the CIs wherever that model says it
must.  The test prints the measured and model curves and the crossover.
"""

import hashlib
import time

import numpy as np
import pytest

from pktdet.coarse import schmidl_cox_correlations, schmidl_cox_metric
from pktdet.correlator import CoefficientBank, SignCorrelator, latch_enable, load_coefficients
from pktdet.energy import EnergyConfig, enable_array
from pktdet.harness import default_sweep_config, run_scope_scenario, run_sweep
from pktdet.signal import (
    Preamble,
    Q1_15,
    SampleStream,
    embed_preamble,
    pn_preamble,
    quantize,
)
from pktdet.standards import (
    Candidate,
    DetectorBank,
    StandardProfile,
    arbitrate,
    build_register_map,
    run_detector_bank,
)

from oracles import (
    binomial_acceptance_region,
    schmidl_point,
    sign_detection_probability,
    sign_partials,
)
from streaming import as_outputs, push_run, sign_pairs


def report(name: str, ok: bool, elapsed: float, detail: str = "") -> bool:
    line = f"[{'PASS' if ok else 'FAIL'}] {name} ({elapsed:.2f}s)"
    if detail:
        line += f" -- {detail}"
    print(line)
    return ok


def bank_from_sign_words(n: int, i_bits: int, q_bits: int) -> CoefficientBank:
    words = -(-n // 32)
    return CoefficientBank(
        length=n,
        i_words=tuple((i_bits >> (32 * w)) & 0xFFFFFFFF for w in range(words)),
        q_words=tuple((q_bits >> (32 * w)) & 0xFFFFFFFF for w in range(words)),
    )


def pairs_from_bits(n: int, i_bits: int, q_bits: int):
    return [
        (1 if (i_bits >> k) & 1 else -1, 1 if (q_bits >> k) & 1 else -1) for k in range(n)
    ]


def correlate_both_ways(pairs, banks, every: int = 1) -> list[dict]:
    """Per bank, ``((p_ii, p_qq, p_qi, p_iq), re)`` by position, at every
    ``every``-th position (the last of each group): the streaming (``push``)
    partials and the batch (``process``) ``re`` over the same Q1.15 (i, q)
    codes.  The streaming side is one ``DetectorBank`` loaded by writing
    each bank's coefficient words into its profile's registers."""
    enable = [t % every == every - 1 for t in range(len(pairs))]
    codes = np.array(pairs, dtype=np.int32).reshape(-1, 2)
    stream = SampleStream(format=Q1_15, i=codes[:, 0], q=codes[:, 1])
    outputs = []
    for bank, pushed in zip(banks, push_run(banks, stream, enable)):
        index, re = SignCorrelator(bank).process(stream, enable)
        assert np.array_equal(as_outputs(pushed)[0], index)
        outputs.append(
            {
                t: ((out.p_ii, out.p_qq, out.p_qi, out.p_iq), value)
                for (t, out), value in zip(pushed, re.tolist())
            }
        )
    return outputs


def with_re(partials: tuple[int, int, int, int]):
    """Oracle partials in the shape :func:`correlate_both_ways` returns."""
    return partials, partials[0] + partials[1]


# ---------------------------------------------------------------------------
# criterion 1: packed XNOR/popcount correlator == naive +-1 dot product
# ---------------------------------------------------------------------------


def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    checked = 0

    # exhaustive over every single-channel sign pattern pair at lengths 1..8:
    # all 2**n window patterns a stream back to back through one bank that
    # holds every reference b, and pattern a fills the window exactly at
    # position a*n + n - 1
    for n in range(1, 9):
        patterns = [pairs_from_bits(n, a, 0) for a in range(1 << n)]
        codes = [pair for pattern in patterns for pair in pattern]
        banks = [bank_from_sign_words(n, b, 0) for b in range(1 << n)]
        for b, outputs in enumerate(correlate_both_ways(codes, banks, every=n)):
            for a, pattern in enumerate(patterns):
                assert outputs[a * n + n - 1] == with_re(sign_partials(pattern, patterns[b]))
                checked += 1

    # randomized full four-partial pairs across the length menu
    rng = np.random.default_rng(20260810)

    def rand_bits(n: int) -> int:
        return int.from_bytes(rng.bytes((n + 7) // 8), "little") & ((1 << n) - 1)

    lengths = (1, 2, 3, 4, 5, 6, 7, 8, 16, 32, 64, 128)
    per_length = 10_000 // len(lengths) + 1
    randomized = 0
    for n in lengths:
        for _ in range(per_length):
            a_i, a_q, b_i, b_q = (rand_bits(n) for _ in range(4))
            bank = bank_from_sign_words(n, b_i, b_q)
            (outputs,) = correlate_both_ways(pairs_from_bits(n, a_i, a_q), [bank])
            out = outputs[n - 1]
            expected = sign_partials(
                pairs_from_bits(n, a_i, a_q), pairs_from_bits(n, b_i, b_q)
            )
            assert out == with_re(expected)
            randomized += 1

    elapsed = time.perf_counter() - t0
    ok = randomized >= 10_000 and elapsed < 10.0
    assert report(
        "criterion 1: packed correlator == naive oracle",
        ok,
        elapsed,
        f"{checked} exhaustive + {randomized} randomized pairs, all bit-exact",
    )


# ---------------------------------------------------------------------------
# criterion 2: ideal maxima 64 / 128
# ---------------------------------------------------------------------------


def test_criterion_2_ideal_maxima():
    t0 = time.perf_counter()
    for n, ideal in ((32, 64), (64, 128)):
        preamble = pn_preamble(n, seed=(2, n))
        bank = load_coefficients(preamble)
        (outputs,) = correlate_both_ways(sign_pairs(bank), [bank])
        (p_ii, p_qq, p_qi, p_iq), re = outputs[n - 1]
        assert p_ii + p_qq == re == ideal
        assert p_qi - p_iq == 0

    # zero components categorize as +1 on both sides, so the maximum survives
    samples = np.array([0 + 0j, 1j, -0.5 + 0j, 0.25 - 0.25j] * 8)
    zero_bank = load_coefficients(Preamble(samples))
    stream = quantize(samples, Q1_15)
    codes = list(zip(stream.i.tolist(), stream.q.tolist()))
    (outputs,) = correlate_both_ways(codes, [zero_bank])
    (p_ii, p_qq, _, _), re = outputs[31]
    assert p_ii + p_qq == re == 64

    elapsed = time.perf_counter() - t0
    assert report("criterion 2: ideal maxima 64/128 at alignment", elapsed < 1.0, elapsed)


# ---------------------------------------------------------------------------
# criterion 3: three-standard scenario at 10 dB
# ---------------------------------------------------------------------------


def test_criterion_3_scope_scenario_reliability():
    t0 = time.perf_counter()
    cfg = default_sweep_config(seed=7)
    trials = 300
    good = 0
    for seed in range(trials):
        result = run_scope_scenario(cfg, snr_db=10.0, seed=seed)
        thresholds = dict(zip(result.profile_ids, result.thresholds))
        correct = [e.standard_id for e in result.events] == ["pn64a"]
        quiet = (
            result.traces["pn32"].max() < thresholds["pn32"]
            and result.traces["pn64b"].max() < thresholds["pn64b"]
        )
        good += correct and quiet
    elapsed = time.perf_counter() - t0
    ok = good >= 0.95 * trials and elapsed < 30.0
    assert report(
        "criterion 3: 10 dB scenario picks the 64-sample standard",
        ok,
        elapsed,
        f"{good}/{trials} trials clean",
    )


# ---------------------------------------------------------------------------
# criterion 4 (+7): detection-probability curves over the SNR grid
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def sweep_results():
    results = {}
    for transmitted in ("pn32", "pn64a"):
        cfg = default_sweep_config(seed=7, transmitted=transmitted)
        start = time.perf_counter()
        results[transmitted] = (cfg, run_sweep(cfg), time.perf_counter() - start)
    return results


def _non_decreasing_within_ci(rows) -> list[str]:
    violations = []
    for prev, cur in zip(rows, rows[1:]):
        if cur.probability >= prev.probability:
            continue
        if cur.probability + cur.ci_half_width >= prev.probability - prev.ci_half_width:
            continue  # decrease explained by binomial noise
        violations.append(
            f"{prev.snr_db:g}->{cur.snr_db:g} dB: {prev.probability:.3f} -> {cur.probability:.3f}"
        )
    return violations


# Per-point level of the model check: over the 26 points of both curves a
# correct program fails it with probability at most 26 * 1e-3 = 2.6%, at any seed.
MODEL_ALPHA = 1e-3


def _model_pd(cfg, snr_db: float) -> float:
    tx = cfg.transmitted_profile()
    return sign_detection_probability(tx.correlator_len, tx.fine_threshold, snr_db)


def _outside_model(profile_id: str, rows, models) -> list[str]:
    violations = []
    for row, model in zip(rows, models):
        lo, hi = binomial_acceptance_region(row.trials, model, MODEL_ALPHA)
        if not lo <= row.correct <= hi:
            violations.append(
                f"{profile_id} at {row.snr_db:g} dB: "
                f"{row.correct}/{row.trials} outside [{lo}, {hi}] of model {model:.3f}"
            )
    return violations


def _model_crossover(cfg32, cfg64, below_db: float, above_db: float) -> float:
    """SNR between two grid points where the model's p64 - p32 turns >= 0."""
    for _ in range(40):
        mid = 0.5 * (below_db + above_db)
        if _model_pd(cfg64, mid) < _model_pd(cfg32, mid):
            below_db = mid
        else:
            above_db = mid
    return above_db


def test_criterion_4_curve_shape(sweep_results):
    t0 = time.perf_counter()
    cfg32, sweep32, t32 = sweep_results["pn32"]
    cfg64, sweep64, t64 = sweep_results["pn64a"]

    print(
        "\n  snr_db    p32 (+-ci)        model    p64 (+-ci)        model    64>=32 within CI"
    )
    snrs = [r.snr_db for r in sweep32.rows]
    model32 = [_model_pd(cfg32, snr) for snr in snrs]
    model64 = [_model_pd(cfg64, snr) for snr in snrs]
    dominates = [m64 >= m32 for m32, m64 in zip(model32, model64)]
    order_violations = []
    for k, (r32, r64) in enumerate(zip(sweep32.rows, sweep64.rows)):
        if k and dominates[k] and not dominates[k - 1]:
            crossover = _model_crossover(cfg32, cfg64, snrs[k - 1], snrs[k])
            print(
                f"  -- model crossover at {crossover:+.2f} dB, "
                f"between {snrs[k - 1]:+g} and {snrs[k]:+g} dB --"
            )
        ok = r64.probability + r64.ci_half_width >= r32.probability - r32.ci_half_width
        verdict = ("yes" if ok else "NO") if dominates[k] else "n/a (model 64<32)"
        print(
            f"  {r32.snr_db:+6.0f}    {r32.probability:.3f} (+-{r32.ci_half_width:.3f})"
            f"    {model32[k]:.3f}    {r64.probability:.3f} (+-{r64.ci_half_width:.3f})"
            f"    {model64[k]:.3f}    {verdict}"
        )
        if dominates[k] and not ok:
            order_violations.append(
                f"{r32.snr_db:g} dB: p64={r64.probability:.3f} < p32={r32.probability:.3f}"
            )

    mono_violations = _non_decreasing_within_ci(sweep32.rows) + _non_decreasing_within_ci(
        sweep64.rows
    )
    model_violations = _outside_model("pn32", sweep32.rows, model32) + _outside_model(
        "pn64a", sweep64.rows, model64
    )
    elapsed = time.perf_counter() - t0 + t32 + t64
    ok_a = not mono_violations and (t32 + t64) < 300.0
    report(
        "criterion 4a: curves non-decreasing in SNR within 95% CIs",
        ok_a,
        t32 + t64,
        "; ".join(mono_violations) or "monotone",
    )
    ok_b = not model_violations and not order_violations
    report(
        "criterion 4b: both curves match the sign-flip model; "
        "64-sample curve >= 32-sample curve wherever the model predicts it",
        ok_b,
        elapsed,
        "; ".join(model_violations + order_violations) or "all points agree",
    )
    assert ok_a, mono_violations
    assert not model_violations, model_violations
    assert not order_violations, order_violations


# sha256 of the seed-7 criterion-4 CSVs: a change that moves any trial's
# outcome shows here and must be called out, with the new digests
CRITERION_4_CSV_SHA256 = {
    "pn32": "b8ffd4b447d968c59879abae1f03ba482fec65ab654ab0bef3c1f5e240b5f9b4",
    "pn64a": "ec8fd76e7d0eb426eed385419fc2c7597faf47a61615b7c07db74ac630026f99",
}


def test_criterion_4_csv_bytes_pinned(sweep_results):
    t0 = time.perf_counter()
    digests = {
        tx: hashlib.sha256(sweep.to_csv().encode()).hexdigest()
        for tx, (_, sweep, _) in sweep_results.items()
    }
    ok = digests == CRITERION_4_CSV_SHA256
    assert report(
        "criterion 4: sweep CSVs byte-identical to the pinned digests",
        ok,
        time.perf_counter() - t0,
        "; ".join(f"{tx} {d[:12]}" for tx, d in digests.items()),
    ), digests


def test_criterion_7_determinism(sweep_results):
    t0 = time.perf_counter()
    cfg64, sweep64, _ = sweep_results["pn64a"]
    serial_csv = sweep64.to_csv()
    parallel_csv = run_sweep(cfg64, workers=2).to_csv()
    ok = parallel_csv == serial_csv

    # quick serial rerun on a reduced grid for the rerun-identity half
    mini = default_sweep_config(seed=7, transmitted="pn64a", snr_points_db=(0.0, 8.0))
    mini = type(mini)(
        profiles=mini.profiles,
        transmitted_profile_id=mini.transmitted_profile_id,
        snr_points_db=mini.snr_points_db,
        trials_per_point=40,
        seed=mini.seed,
    )
    ok = ok and run_sweep(mini).to_csv() == run_sweep(mini).to_csv()
    elapsed = time.perf_counter() - t0
    assert report(
        "criterion 7: sweeps byte-identical, serial or parallel",
        ok,
        elapsed,
        f"{len(serial_csv)} CSV bytes compared",
    )


# ---------------------------------------------------------------------------
# criterion 5: energy gating contract
# ---------------------------------------------------------------------------


def test_criterion_5_energy_gating_contract():
    t0 = time.perf_counter()
    preamble = pn_preamble(64, seed=5)
    profile = StandardProfile(id="pkt", preamble=preamble, fine_threshold=100)
    clean, start = embed_preamble(preamble, pad_before=200, pad_after=200)
    stream = quantize(clean, Q1_15)  # silent except for the one packet

    energy = EnergyConfig(window_len=16, sample_energy_threshold=0.25, count_threshold=8)
    holdoff = 128
    enable = latch_enable(enable_array(stream, 16, 1 << 28, 8), holdoff)  # 0.25 in raw units

    # no work at all when the gate never opens
    idle = SignCorrelator(load_coefficients(preamble))
    idle.process(stream, np.zeros(len(stream), dtype=bool))
    assert idle.work_count == 0

    gated = SignCorrelator(load_coefficients(preamble))
    gated.process(stream, enable)
    enabled_ready = int(np.count_nonzero(enable[63:]))
    assert gated.work_count == enabled_ready  # zero work outside the gate
    regs_gated = build_register_map([profile], energy=energy, holdoff=holdoff)
    streaming = DetectorBank([profile], regs_gated, Q1_15)
    codes = zip(stream.i.tolist(), stream.q.tolist())
    pushed = sum(streaming.push(i, q)["pkt"] is not None for i, q in codes)
    assert pushed == gated.work_count  # the streaming gate works where batch does

    free = SignCorrelator(load_coefficients(preamble))
    free.process(stream)
    assert free.work_count == len(stream) - 63
    assert gated.work_count < free.work_count  # the gate actually saved work

    regs_free = build_register_map([profile], energy=None)
    events_gated = run_detector_bank(stream, [profile], regs_gated)
    events_free = run_detector_bank(stream, [profile], regs_free)
    # stage traces differ by design (gate index vs none); detections must not
    assert [(e.standard_id, e.peak_value, e.peak_index) for e in events_gated] == [
        (e.standard_id, e.peak_value, e.peak_index) for e in events_free
    ]
    assert events_gated[0].peak_index == start + 63

    elapsed = time.perf_counter() - t0
    assert report(
        "criterion 5: gating does no hidden work, same detections",
        elapsed < 5.0,
        elapsed,
        f"work {gated.work_count}/{free.work_count} positions",
    )


# ---------------------------------------------------------------------------
# criterion 6: coarse metric value and exact incremental computation
# ---------------------------------------------------------------------------


def test_criterion_6_coarse_stage():
    t0 = time.perf_counter()
    lag = 32
    half = pn_preamble(lag, seed=6)
    stream = quantize(np.concatenate([half.samples, half.samples]), Q1_15)
    metric = schmidl_cox_metric(stream, lag)
    assert abs(metric[0] - 1.0) <= 2.0**-10

    rng = np.random.default_rng(99)
    noisy = quantize(
        0.4 * (rng.normal(size=6 * lag) + 1j * rng.normal(size=6 * lag)), Q1_15
    )
    p_re, p_im, r = schmidl_cox_correlations(noisy, lag)
    for d in range(len(p_re)):
        assert (int(p_re[d]), int(p_im[d]), int(r[d])) == schmidl_point(
            noisy.i, noisy.q, lag, d
        )

    elapsed = time.perf_counter() - t0
    assert report(
        "criterion 6: coarse metric == 1 at repetition, exact increments",
        elapsed < 5.0,
        elapsed,
        f"M(0) = {float(metric[0])!r}",
    )


# ---------------------------------------------------------------------------
# criterion 8: arbitration never lets a 32 beat a 64
# ---------------------------------------------------------------------------


def test_criterion_8_arbitration_priority():
    t0 = time.perf_counter()
    profiles = {
        n: StandardProfile(
            id=f"p{n}",
            preamble=pn_preamble(n, seed=n),
            fine_threshold=10,
        )
        for n in (32, 64)
    }
    rng = np.random.default_rng(8)
    cases = 10_000
    for _ in range(cases):
        size = int(rng.integers(1, 7))
        lengths = rng.choice((32, 64), size=size)
        if 64 not in lengths:
            lengths[rng.integers(0, size)] = 64
        candidates = [
            Candidate(
                profiles[int(n)],
                peak_value=int(rng.integers(10, 2 * int(n) + 1)),
                peak_index=int(rng.integers(0, 1000)),
                order=k,
            )
            for k, n in enumerate(lengths)
        ]
        winner = arbitrate(candidates)
        assert winner.profile.correlator_len == 64
    elapsed = time.perf_counter() - t0
    assert report(
        "criterion 8: a 64-point candidate always outranks 32-point",
        elapsed < 1.0,
        elapsed,
        f"{cases} randomized candidate sets",
    )
