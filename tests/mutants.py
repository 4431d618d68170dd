"""Replayable mutant catalogue: each entry breaks the program in one known
way, and the tests it names must catch it.

Run from the repository root, after the tier-1 tests (pytest does not
collect this file on its own):

    python -m pytest -q tests/mutants.py

The source tree, the tests, ``pyproject.toml`` and ``README.md`` are
copied once to a temporary directory, and the named tests must pass there
unpatched.  Then, per entry, the entry's old text in its file is replaced
by the new text, the named tests run in a fresh pytest process with a
fixed hypothesis seed and no shrinking of a failing example (the
``mutants`` profile in ``conftest.py``), and the file is restored.  An entry fails when its old
text does not occur exactly once (the code it targets changed, so the entry
must follow it), when any named test passes under the mutant (the mutant
survives), or when its tests run longer than ``RUN_TIMEOUT_S`` (a mutant
that hangs is reported by name, not counted as killed).
Standard library and pytest only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 300  # per pytest process; every entry's run takes seconds


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    kills: tuple[str, ...]  # test ids that must each fail under the mutant


STANDARDS = "src/pktdet/standards.py"
STREAM = "tests/test_standards.py::TestStreamingDetectorBank::"
GATE = "tests/test_energy.py::TestEnergyGate::"
PUBLISH = '''        and the bank runs on under the map it has."""
        self._adopt(regs)
'''
RANGE_CHECK = """        if not (self._lo <= i <= self._hi and self._lo <= q <= self._hi):
            raise ValueError(f"sample codes ({i}, {q}) out of range for the bank's format")
"""
SIGN_SHIFT = """        top = self._top
        win_i = self._win_i = (self._win_i >> 1) | (top if i >= 0 else 0)
        win_q = self._win_q = (self._win_q >> 1) | (top if q >= 0 else 0)
"""
ARMED_READ = "        gate_thr, ready = self._gate_thr, self._ready\n"
FILL_COUNT = """        if self._arm_at > 0:  # a window is still filling
            self._seen += 1
            if self._seen == self._arm_at:
                self._arm()
"""
BAD_PUSH = (
    f"{STREAM}test_push_rejects_codes_outside_the_format[q1.15]",
    f"{STREAM}test_push_rejects_codes_outside_the_format[q2.10]",
)
MALFORMED = "tests/test_cli.py::test_malformed_ini_exits_2"
TAP = "(profile.id, bank.length, span - bank.length, *bank._packed)"
P_QI_STORE = "            out.p_qi = n - 2 * (w_q ^ b_i).bit_count()\n"
P_IQ_STORE = "            out.p_iq = n - 2 * (w_i ^ b_q).bit_count()\n"
TAP_READY = "tap[1] <= upcoming"
GATE_READY = "self._count_thr if window_len <= upcoming else window_len"
FILL = f"{STREAM}test_publishes_during_the_fill_match_the_oracle"
ADOPT_ARM = """        self._fill_points = {window_len, span, *(tap[1] for tap in self._taps)}
        self._arm()
"""
RECORD_KILLS = (
    f"{STREAM}test_mixed_lengths_match_the_oracle",
    f"{STREAM}test_each_record_equals_the_one_init_builds",
)
COARSE = "src/pktdet/coarse.py"
METRIC = "tests/test_coarse.py::TestMetric::"
METRIC_SCAN = "tests/test_coarse.py::TestTrigger::test_detect_coarse_matches_the_metric_scan"
BUILD_CALL = "return _build_register_map(entries, energy, coarse, fmt)"
DECODE_MEMO = "tests/test_standards.py::TestDecodeMemo::"
VIEW_LOOKUP = "    view = regs._views.get(lengths)\n"
THRESHOLD_CHECK = """    for profile, threshold in zip(profiles, view.thresholds):
        if threshold < least:
            raise ConfigurationError(f"profile {profile.id!r}: threshold must be positive")
"""
VIEW_STORE = "    regs._views[lengths] = view\n"
SPAN = "tests/test_correlator.py::TestCorrelateStream::"
SCREEN = f"{SPAN}test_threshold_screen_keeps_where_re_can_reach_it"
SCOPE = "tests/test_harness.py::TestScopeScenario::"
SEED_WORDS = (
    "tests/test_harness.py::TestSeedWords::test_words_draw_the_tuple_stream",
    *(
        f"tests/test_harness.py::TestSeedWords::"
        f"test_sweep_point_seeds_each_trial_with_its_tuple_stream[{seed}]"
        for seed in (0, 2**32 - 1, 2**32, 2**64 + 5)
    ),
)
SEED_CHECK = """        if value < 0:
            raise ValueError(f"seed must be non-negative, got {value}")
"""
EVENTS = "tests/test_standards.py::TestEventsFromCandidates::test_matches_the_reference"
REFERENCE = "tests/test_standards.py::TestRunDetectorBank::test_events_equal_the_reference"
STAGE_ROW = "tests/test_standards.py::TestRegisterTable::test_stage_row_takes_its_range"
WORDS = "tests/test_standards.py::TestRegisterWords::test_stages_equal_the_oracles_fed_the_words"
WINDOW = "tests/test_energy.py::TestWindowEnergy::"
BLOCK = "tests/test_signal.py::TestSampleStreamBlock::"
LATCH = "tests/test_correlator.py::TestLatchEnable::"
WINDOW_MAX = (
    "tests/test_standards.py::TestRegisterValidation::"
    "test_energy_window_above_the_maximum_allocates_nothing"
)
EXACT = "tests/test_coarse.py::TestExactTrigger::"
WINDOW_ROW = '"energy/window_len": (1, MAX_ENERGY_WINDOW,'
README_TABLE = "tests/test_standards.py::TestRegisterTable::test_readme_table_is_the_module_table"
TIE = "tests/test_signal.py::TestQuantize::test_rounds_half_away_from_zero_beside_the_tie"
SETTING = "tests/test_settings.py::test_integer_setting_takes_the_one_rule"
SWEEP_INTS = """        _int_field(self, "trials_per_point", 1)
        try:
            lo, hi = self.pad_before_range
        except (TypeError, ValueError):
            raise ValueError("pad_before_range must be a (lo, hi) pair") from None
        lo = _int_in(lo, "pad_before_range[0]", 0)
        hi = _int_in(hi, "pad_before_range[1]", lo)
        object.__setattr__(self, "pad_before_range", (lo, hi))
        _int_field(self, "pad_after", 0)
"""

CATALOGUE = (
    # the streaming bank's datapath
    Mutant(
        "tap-shift-one-past",
        STANDARDS,
        TAP,
        TAP.replace("span - bank.length", "span - bank.length + 1"),
        (f"{STREAM}test_mixed_lengths_match_the_oracle",),
    ),
    Mutant(
        "tap-shift-one-short",
        STANDARDS,
        TAP,
        TAP.replace("span - bank.length", "max(span - bank.length - 1, 0)"),
        (f"{STREAM}test_mixed_lengths_match_the_oracle",),
    ),
    # readiness is armed where a window fills and at each publish
    Mutant(
        "correlator-ready-one-late",
        STANDARDS,
        TAP_READY,
        "tap[1] < upcoming",
        (
            "tests/test_correlator.py::TestCorrelateAt::test_underfilled_window_not_ready",
            f"{STREAM}test_mixed_lengths_match_the_oracle",
            FILL,
        ),
    ),
    Mutant(
        "tap-armed-one-sample-early",
        STANDARDS,
        TAP_READY,
        "tap[1] <= upcoming + 1",
        (f"{STREAM}test_mixed_lengths_match_the_oracle", FILL),
    ),
    Mutant(
        "gate-readiness-dropped",
        STANDARDS,
        GATE_READY,
        "self._count_thr",
        (f"{GATE}test_enable_array_marks_window_ends", f"{GATE}test_matches_naive_recount", FILL),
    ),
    Mutant(
        "gate-armed-before-its-window-is-full",
        STANDARDS,
        GATE_READY,
        GATE_READY.replace("<= upcoming", "<= upcoming + 1"),
        (FILL,),
    ),
    Mutant(
        "publish-does-not-re-arm",
        STANDARDS,
        ADOPT_ARM,
        ADOPT_ARM.replace("self._arm()", 'if not hasattr(self, "_ready"):\n            self._arm()'),
        (f"{STREAM}test_mixed_lengths_match_the_oracle", FILL),
    ),
    Mutant(
        "fill-ends-one-sample-early",
        STANDARDS,
        "n > upcoming]",
        "n > upcoming + 1]",
        (f"{STREAM}test_mixed_lengths_match_the_oracle", FILL),
    ),
    Mutant(
        "exceedance-mask-one-bit-short",
        STANDARDS,
        "self._mask = (1 << window_len) - 1",
        "self._mask = (1 << max(window_len - 1, 0)) - 1",
        (f"{STREAM}test_matches_batch_outputs_when_idle", f"{GATE}test_matches_naive_recount"),
    ),
    Mutant(
        "holdoff-not-reloaded",
        STANDARDS,
        "            self._holdoff_left = self._holdoff\n",
        "            pass\n",
        (f"{STREAM}test_matches_batch_outputs_when_idle",),
    ),
    Mutant(
        "holdoff-never-counts-down",
        STANDARDS,
        "            self._holdoff_left -= 1\n",
        "            pass\n",
        (f"{STREAM}test_matches_batch_outputs_when_idle",),
    ),
    # push fills every slot of a bare record, each with its own partial
    Mutant(
        "push-record-slot-dropped",
        STANDARDS,
        P_IQ_STORE,
        "",
        RECORD_KILLS,
    ),
    Mutant(
        "push-record-partials-swapped",
        STANDARDS,
        P_QI_STORE + P_IQ_STORE,
        P_QI_STORE.replace("w_q ^ b_i", "w_i ^ b_q") + P_IQ_STORE.replace("w_i ^ b_q", "w_q ^ b_i"),
        RECORD_KILLS,
    ),
    # a closed gate answers with a copy of the idle map, and a disabled
    # profile is no tap at all
    Mutant(
        "idle-map-shared",
        STANDARDS,
        "outs = self._idle.copy()",
        "outs = self._idle",
        (f"{STREAM}test_each_push_returns_a_fresh_map",),
    ),
    Mutant(
        "disabled-taps-kept",
        STANDARDS,
        "            if on\n",
        "",
        (
            f"{STREAM}test_each_push_returns_a_fresh_map",
            f"{STREAM}test_profile_enables_adopted_at_the_next_push",
        ),
    ),
    # a publish must swap the configuration only
    *(
        Mutant(
            f"publish-{name}",
            STANDARDS,
            PUBLISH,
            PUBLISH + f"        {reset}\n",
            (f"{STREAM}test_publishing_the_map_in_force_changes_nothing",),
        )
        for name, reset in (
            ("clears-the-windows", "self._win_i = self._win_q = self._exceed = 0"),
            ("clears-the-exceedances", "self._exceed = 0"),
            ("resets-the-holdoff", "self._holdoff_left = 0"),
        )
    ),
    # the count a publish arms from is the fill's, so a publish cannot
    # restart the fill
    Mutant(
        "publish-resets-the-samples-seen",
        STANDARDS,
        ADOPT_ARM,
        ADOPT_ARM.replace("self._arm()", "self._seen = 0\n        self._arm()"),
        (f"{STREAM}test_publishing_the_map_in_force_changes_nothing",),
    ),
    Mutant(
        "push-range-check-dropped",
        STANDARDS,
        RANGE_CHECK,
        "",
        BAD_PUSH,
    ),
    Mutant(
        "push-range-check-after-the-shift",
        STANDARDS,
        RANGE_CHECK + SIGN_SHIFT,
        SIGN_SHIFT + RANGE_CHECK,
        BAD_PUSH,
    ),
    # a push counts its sample after the range check and after reading the
    # state armed for it, and counts until every window is full
    Mutant(
        "bank-counts-a-rejected-code",
        STANDARDS,
        RANGE_CHECK + SIGN_SHIFT + ARMED_READ + FILL_COUNT,
        ARMED_READ + FILL_COUNT + RANGE_CHECK + SIGN_SHIFT,
        BAD_PUSH,
    ),
    Mutant(
        "bank-re-arms-before-reading-its-state",
        STANDARDS,
        ARMED_READ + FILL_COUNT,
        FILL_COUNT + ARMED_READ,
        (f"{STREAM}test_matches_batch_outputs_when_idle",),
    ),
    Mutant(
        "bank-fill-count-stops-after-one-window",
        STANDARDS,
        FILL_COUNT,
        FILL_COUNT + "                self._arm_at = -1\n",
        (f"{STREAM}test_matches_batch_outputs_when_idle",),
    ),
    Mutant(
        "duplicate-id-check-dropped",
        STANDARDS,
        'raise ConfigurationError("profile ids must be unique")',
        "pass",
        (
            "tests/test_standards.py::TestDuplicateIds::test_batch_pipeline_rejects_a_repeated_id",
            "tests/test_standards.py::TestDuplicateIds::test_streaming_bank_rejects_a_repeated_id",
        ),
    ),
    # the decode rejects, by key, a stage word no stage can run under: each
    # row of the register table, its range widened to every 32-bit word
    *(
        Mutant(
            f"decode-{name}-check-dropped",
            STANDARDS,
            f'"{key}": ({least}, {most},',
            f'"{key}": (0, 0xFFFFFFFF,',
            (f"{STAGE_ROW}[{key}]",),
        )
        for name, key, least, most in (
            ("window", "energy/window_len", 1, "MAX_ENERGY_WINDOW"),
            ("lag", "coarse/lag", 1, "0xFFFFFFFF"),
            ("plateau", "coarse/plateau", 1, "0xFFFFFFFF"),
        )
    ),
    # and an energy window wider than the exceedance register, before the
    # streaming bank sizes its register to it
    Mutant(
        "decode-window-maximum-dropped",
        STANDARDS,
        WINDOW_ROW,
        '"energy/window_len": (1, 0xFFFFFFFF,',
        (f"{WINDOW_MAX}[65537]",),
    ),
    # the table is the one declaration README's table is checked against
    Mutant(
        "register-row-widened",
        STANDARDS,
        WINDOW_ROW,
        '"energy/window_len": (1, MAX_ENERGY_WINDOW + 1,',
        (f"{WINDOW_MAX}[65537]", README_TABLE),
    ),
    Mutant(
        "energy-config-window-maximum-dropped",
        "src/pktdet/energy.py",
        '_int_field(self, "window_len", 1, MAX_ENERGY_WINDOW)',
        '_int_field(self, "window_len", 1)',
        (f"{WINDOW_MAX}[65537]",),
    ),
    Mutant(
        "decode-count-check-dropped",
        STANDARDS,
        '"energy/count_thresh": (0, "energy/window_len",',
        '"energy/count_thresh": (0, 0xFFFFFFFF,',
        (f"{STAGE_ROW}[energy/count_thresh]", WORDS),
    ),
    # the batch energy gate
    Mutant(
        "partial-windows-not-cleared",
        "src/pktdet/energy.py",
        "    enable[: window_len - 1] = False",
        "    pass",
        (f"{GATE}test_enable_array_marks_window_ends", f"{GATE}test_matches_naive_recount"),
    ),
    Mutant(
        "sample-threshold-inclusive",
        "src/pktdet/energy.py",
        "stream.energy > thr_raw",
        "stream.energy >= thr_raw",
        (f"{WINDOW}test_zero_stream", f"{WINDOW}test_unit_samples", WORDS),
    ),
    # the int64 code block, the shared int64 prefix sums, the per-sample
    # energy and the latch
    Mutant(
        "code-block-in-int32",
        "src/pktdet/signal.py",
        "codes = np.empty((2, len(i)), dtype=np.int64)",
        "codes = np.empty((2, len(i)), dtype=np.int32)",
        (
            f"{GATE}test_wide_format_stays_exact",
            f"{METRIC}test_full_scale_long_stream_stays_exact",
        ),
    ),
    Mutant(
        # without the dtype numpy still counts (it accumulates a bool input
        # in the default int, or in the out array's type), so the mutant
        # accumulates in the input's type, where a bool accumulate ORs
        "prefix-sums-accumulate-in-bool",
        "src/pktdet/signal.py",
        "dtype=np.int64, out=csum[width:]",
        "dtype=np.asarray(values).dtype, out=csum[width:]",
        (
            "tests/test_signal.py::TestWindowSums::test_counts_booleans",
            f"{GATE}test_matches_naive_recount",
        ),
    ),
    Mutant(
        "prefix-sums-across-columns",
        "src/pktdet/signal.py",
        "np.add.accumulate(values, dtype",
        "np.add.accumulate(values, axis=-1, dtype",
        (
            "tests/test_signal.py::TestWindowSums::test_sums_each_column_of_a_block",
            f"{METRIC}test_incremental_equals_naive",
        ),
    ),
    Mutant(
        "energy-one-row-squared",
        "src/pktdet/signal.py",
        "i2, q2 = np.square(self.codes)",
        "i2, q2 = np.square(self.codes[0]), self.codes[1]",
        (
            f"{BLOCK}test_every_constructor_gives_the_same_block",
            f"{BLOCK}test_copies_integer_codes_into_its_own_block[int32]",
        ),
    ),
    # quantize rounds with the float just below one half, and the embed
    # refuses a pad past its cap before it allocates
    Mutant(
        "quantize-half-constant",
        "src/pktdet/signal.py",
        "rounded += _JUST_BELOW_HALF",
        "rounded += 0.5",
        tuple(f"{TIE}[{fmt}-below]" for fmt in ("q8.0", "q1.15")),
    ),
    Mutant(
        "pad-cap-dropped",
        "src/pktdet/signal.py",
        "if not (0 <= pad_before <= MAX_PAD and 0 <= pad_after <= MAX_PAD):",
        "if not (0 <= pad_before and 0 <= pad_after):",
        (
            "tests/test_cli.py::test_pad_past_the_cap_exits_2[gen-iq]",
            "tests/test_signal.py::TestEmbed::test_pad_past_the_cap_rejected[pads2]",
        ),
    ),
    # a sweep checks its pads before any trial runs
    Mutant(
        "sweep-pad-check-dropped",
        "src/pktdet/harness.py",
        "if max(cfg.pad_before_range[1], cfg.pad_after) > MAX_PAD:",
        "if False:",
        (f"{MALFORMED}[pad-before-past-the-cap]", f"{MALFORMED}[pad-after-past-the-cap]"),
    ),
    Mutant(
        "pad-range-form-unchecked",
        "src/pktdet/config.py",
        "        if len(parts) <= 2:\n",
        "        if True:\n",
        (f"{MALFORMED}[pad-range-three-fields]",),
    ),
    Mutant(
        "latch-compare-inclusive",
        "src/pktdet/correlator.py",
        "return csum[width:] > csum[: len(enable)]",
        "return csum[width:] >= csum[: len(enable)]",
        (f"{LATCH}test_zero_holdoff_is_identity", f"{LATCH}test_matches_window_any"),
    ),
    # a pipe reports size 0: a capture larger than its buffer arrives only
    # if the read goes on to EOF
    Mutant(
        "read-iq-one-bounded-read",
        "src/pktdet/iqfile.py",
        "raw = fh.readall()",
        "raw = fh.read(1 << 16)",
        ("tests/test_iqfile.py::test_pipe_is_read_to_eof",),
    ),
    Mutant(
        "iqpd-version-unchecked",
        "src/pktdet/iqfile.py",
        "if version != VERSION:",
        "if False:",
        ("tests/test_iqfile.py::test_other_version_rejected",),
    ),
    # the coarse stage: P and R from the prefix sums of one (n - L, 3)
    # block of lag products, then the metric
    Mutant(
        "coarse-r-from-the-first-half",
        COARSE,
        "terms[:, 2] = stream.energy[lag:]",
        "terms[:, 2] = stream.energy[:-lag]",
        (f"{METRIC}test_incremental_equals_naive", f"{METRIC}test_white_noise_scores_low"),
    ),
    Mutant(
        "coarse-window-difference-at-lag-minus-one",
        COARSE,
        "return (sums[lag:] - sums[:-lag]).T",
        "return (sums[lag - 1 : -1] - sums[:-lag]).T",
        (
            f"{METRIC}test_incremental_equals_naive",
            f"{METRIC}test_full_scale_long_stream_stays_exact",
        ),
    ),
    Mutant(
        "coarse-terms-block-in-int32",
        COARSE,
        "terms = np.empty((max(n - lag, 0), 3), dtype=np.int64)",
        "terms = np.empty((max(n - lag, 0), 3), dtype=np.int32)",
        (f"{METRIC}test_full_scale_long_stream_stays_exact",),
    ),
    Mutant(
        "coarse-short-stream-unclamped",
        COARSE,
        "terms = np.empty((max(n - lag, 0), 3)",
        "terms = np.empty((n - lag, 3)",
        (
            f"{METRIC}test_short_stream_has_no_positions[1]",
            f"{EXACT}test_matches_the_exact_oracle",
        ),
    ),
    Mutant(
        "coarse-r2-floor-dropped",
        COARSE,
        "r2 = np.maximum(squares[:, 2], 1.0)",
        "r2 = squares[:, 2]",
        (f"{METRIC}test_all_zero_stream_scores_zero",),
    ),
    # the R = 0 rule dropped without numpy's warning: M is NaN there, below
    # even a threshold of 0
    Mutant(
        "coarse-r0-rule-dropped",
        COARSE,
        "    r2 = np.maximum(squares[:, 2], 1.0)\n    return np.divide(p2, r2, out=p2)",
        '    with np.errstate(invalid="ignore"):\n'
        "        return np.divide(p2, squares[:, 2], out=p2)",
        (
            f"{EXACT}test_silent_windows_are_above_only_at_threshold_zero[0-0]",
            f"{EXACT}test_matches_the_exact_oracle",
        ),
    ),
    # the exact compare: the float screen's band settled in Python ints
    Mutant(
        "coarse-threshold-strict",
        COARSE,
        ">= thr_q15 * r * r",
        "> thr_q15 * r * r",
        (f"{EXACT}test_exact_ties_are_above", f"{EXACT}test_matches_the_exact_oracle"),
    ),
    Mutant(
        "coarse-float-compare-restored",
        COARSE,
        "    above = metric >= hi\n    for d in (above != (metric >= lo)).nonzero()[0].tolist():",
        "    above = metric >= t\n    for d in []:",
        (
            f"{EXACT}test_detect_coarse_decides_the_tie_exactly",
            f"{EXACT}test_matches_the_exact_oracle",
        ),
    ),
    Mutant(
        "coarse-band-zero",
        COARSE,
        "lo, hi = t * (1 - 2.0**-48), t * (1 + 2.0**-48)",
        "lo, hi = t, t",
        (
            f"{EXACT}test_detect_coarse_decides_the_tie_exactly",
            f"{EXACT}test_matches_the_exact_oracle",
        ),
    ),
    Mutant(
        "coarse-plateau-one-longer",
        COARSE,
        "_run_starts(above, plateau)",
        "_run_starts(above, plateau + 1)",
        (METRIC_SCAN, f"{EXACT}test_matches_the_exact_oracle"),
    ),
    Mutant(
        "coarse-runs-one-short",
        COARSE,
        "starts[ends - starts >= width]",
        "starts[ends - starts > width]",
        ("tests/test_coarse.py::TestTrigger::test_matches_naive_scan",),
    ),
    # equal register-map builds share one map, and only equal ones do
    *(
        Mutant(
            f"build-call-{field}-replaced",
            STANDARDS,
            BUILD_CALL,
            BUILD_CALL.replace(f", {field}", f", {value}"),
            (
                "tests/test_standards.py::TestMapMemo::test_memo_equals_a_fresh_build",
                "tests/test_standards.py::TestRegisterRoundTrip::test_build_then_decode",
            ),
        )
        for field, value in (("fmt", "Q1_15"), ("energy", "None"), ("coarse", "None"))
    ),
    # a map keeps one decoded view per tuple of lengths, and only valid ones
    Mutant(
        "decode-memo-without-lengths",
        STANDARDS,
        VIEW_LOOKUP,
        "    view = next(iter(regs._views.values()), None)\n",
        (f"{DECODE_MEMO}test_each_length_tuple_decodes_its_own_view",),
    ),
    Mutant(
        "decode-memo-stored-before-checks",
        STANDARDS,
        THRESHOLD_CHECK + VIEW_STORE,
        VIEW_STORE + THRESHOLD_CHECK,
        (f"{DECODE_MEMO}test_failed_decode_is_not_cached",),
    ),
    # the fine stage
    Mutant(
        "gather-skipped-across-gaps",
        "src/pktdet/correlator.py",
        "if hi - lo >= count:",
        "if hi - lo < count:",
        (f"{SPAN}test_process_equals_fresh_push_run", SCREEN),
    ),
    # p_qq <= n, so re can reach t only where p_ii >= t - n
    Mutant(
        "screen-bound-one-step-tight",
        "src/pktdet/correlator.py",
        "keep = re >= self.threshold - n",
        "keep = re >= self.threshold - n + 1",
        (SCREEN, REFERENCE),
    ),
    Mutant(
        "screen-against-the-threshold",
        "src/pktdet/correlator.py",
        "keep = re >= self.threshold - n",
        "keep = re >= self.threshold",
        (SCREEN, REFERENCE, f"{SCOPE}test_traces_hold_re_at_every_position[10.0]"),
    ),
    # a NumPy uint32 word below n would wrap in threshold - n
    Mutant(
        "screen-threshold-taken-unchecked",
        "src/pktdet/correlator.py",
        'self.threshold = _int_in(threshold, "threshold", 0, WORD_MASK)',
        "self.threshold = threshold",
        (f"{SETTING}[threshold]",),
    ),
    # p_ii >= -n, so the default 0 keeps every position; 1 drops p_ii = -n
    Mutant(
        "default-threshold-screens",
        "src/pktdet/correlator.py",
        "threshold: int = 0",
        "threshold: int = 1",
        (
            "tests/test_correlator.py::TestCorrelateAt::test_negated_window_hits_ideal_minimum",
            SCREEN,
        ),
    ),
    # the coefficient bank: the one integer rule, then its tail bits
    Mutant(
        "bank-word-taken-unchecked",
        "src/pktdet/correlator.py",
        '_int_in(w, "coefficient word", 0, WORD_MASK) for w in words',
        "w for w in words",
        (f"{SETTING}[coefficient-word]",),
    ),
    Mutant(
        "bank-length-taken-unchecked",
        "src/pktdet/correlator.py",
        'length = _int_in(self.length, "bank length", 1)',
        "length = self.length",
        (f"{SETTING}[bank-length]",),
    ),
    Mutant(
        "bank-tail-bits-unchecked",
        "src/pktdet/correlator.py",
        "if bits >> length:",
        "if False:",
        (
            "tests/test_correlator.py::TestCoefficientBank::test_word_count_validation",
            "tests/test_standards.py::TestBankCache::test_invalid_words_raise_on_every_call",
        ),
    ),
    # each sweep trial's seed words draw its (seed, snr_index, t) stream
    Mutant(
        "seed-words-high-words-dropped",
        "src/pktdet/signal.py",
        "range(32, value.bit_length(), 32)",
        "range(0)",
        SEED_WORDS[:1] + SEED_WORDS[3:],
    ),
    Mutant(
        "seed-words-zero-gets-no-word",
        "src/pktdet/signal.py",
        "        words.append(value & 0xFFFFFFFF)  # 0 too",
        "        words += [value & 0xFFFFFFFF] if value else []  # 0 too",
        # SeedSequence pads short entropy with zero words, so only rows whose
        # lost zero is not trailing, or that are longer than its 4-word pool,
        # draw another stream
        SEED_WORDS[:2] + SEED_WORDS[4:],
    ),
    # every seed a user gives is checked by the one seed rule
    Mutant(
        "seed-words-negative-unchecked",
        "src/pktdet/signal.py",
        SEED_CHECK,
        "",
        tuple(
            f"tests/test_cli.py::test_negative_seed_exits_2[{command}]"
            for command in ("gen-iq", "scope", "gen-coeff", "ini-preamble")
        ),
    ),
    # every integer setting takes the one rule, its upper bound included
    Mutant(
        "int-rule-upper-bound-dropped",
        "src/pktdet/signal.py",
        "    if hi is not None and not lo <= value <= hi:\n",
        "    if False:\n",
        (
            f"{WINDOW_MAX}[65537]",
            *(f"{SETTING}[{name}]" for name in ("total_bits", "fractional_bits", "window_len")),
            *(f"{SETTING}[{name}]" for name in ("count_threshold", "preamble-length")),
        ),
    ),
    Mutant(
        "sweep-fields-unconverted",
        "src/pktdet/harness.py",
        SWEEP_INTS,
        """        if self.trials_per_point < 1:
            raise ValueError("trials_per_point must be >= 1")
        lo, hi = self.pad_before_range
        if not 0 <= lo <= hi:
            raise ValueError("pad_before_range must satisfy 0 <= lo <= hi")
        if self.pad_after < 0:
            raise ValueError("pad_after must be >= 0")
""",
        tuple(
            f"{SETTING}[{name}]"
            for name in ("trials_per_point", "pad_after", *(f"pad_before_range[{k}]" for k in "01"))
        ),
    ),
    Mutant(
        "seed-words-type-unchecked",
        "src/pktdet/signal.py",
        '        value = _int_in(value, "seed")\n',
        "",
        (f"{SETTING}[seed]", f"{SETTING}[seed_words]"),
    ),
    # a trial another standard wins is no miss
    Mutant(
        "false-standard-reported-as-missed",
        "src/pktdet/harness.py",
        "        return TrialOutcome.CORRECT\n    return TrialOutcome.FALSE_STANDARD\n",
        "        return TrialOutcome.CORRECT\n    return TrialOutcome.MISSED\n",
        (
            "tests/test_harness.py::TestRunTrial::"
            "test_another_standard_winning_is_a_false_standard",
        ),
    ),
    # the batch pipeline's glue: the coarse cut, and gate-run starts from
    # the uncut gate, only for candidates
    Mutant(
        "coarse-cut-one-sample-short",
        STANDARDS,
        "raw_enable[:coarse_index] = False",
        "raw_enable[: max(coarse_index - 1, 0)] = False",
        (REFERENCE,),
    ),
    Mutant(
        "gate-run-starts-from-the-cut-enable",
        STANDARDS,
        "on = raw_energy.nonzero()[0]",
        "on = raw_enable.nonzero()[0]",
        (
            "tests/test_standards.py::TestRunDetectorBank::"
            "test_stage_trace_names_the_energy_gate_run[True]",
            REFERENCE,
        ),
    ),
    Mutant(
        "gate-run-starts-guard-inverted",
        STANDARDS,
        "    if candidates and view.energy is not None:",
        "    if not candidates and view.energy is not None:",
        (
            "tests/test_standards.py::TestRunDetectorBank::test_noiseless_event_at_ground_truth",
            "tests/test_standards.py::TestRunDetectorBank::"
            "test_gate_on_without_candidates_returns_no_events",
            REFERENCE,
        ),
    ),
    # and the arbitration that reads them
    Mutant(
        "cluster-split-at-the-window",
        STANDARDS,
        "if cand.peak_index - clusters[-1][-1].peak_index > arb_window:",
        "if cand.peak_index - clusters[-1][-1].peak_index >= arb_window:",
        (EVENTS,),
    ),
    Mutant(
        "gate-lookup-side-left",
        STANDARDS,
        'side="right").tolist()',
        'side="left").tolist()',
        (EVENTS,),
    ),
    Mutant(
        "gate-lookup-drops-the-first-start",
        STANDARDS,
        "if k > 0 else None",
        "if k > 1 else None",
        (EVENTS,),
    ),
    # a sweep needs at least one SNR point
    Mutant(
        "snr-grid-empty-check-dropped",
        "src/pktdet/harness.py",
        "            if not self.snr_points_db:\n                raise ValueError(",
        "            if False:\n                raise ValueError(",
        (
            "tests/test_harness.py::TestRunSweep::test_config_validation",
            f"{MALFORMED}[snr-range-empty]",
        ),
    ),
    # malformed INI files end in an error line, not a traceback
    Mutant(
        "ini-parser-errors-unconverted",
        "src/pktdet/config.py",
        "    except configparser.Error as exc:",
        "    except ZeroDivisionError as exc:",
        (f"{MALFORMED}[duplicate-section]", f"{MALFORMED}[no-section-header]"),
    ),
    Mutant(
        "ini-missing-keys-unconverted",
        "src/pktdet/config.py",
        "    except KeyError:\n        if default is None:",
        "    except ZeroDivisionError:\n        if default is None:",
        tuple(
            f"{MALFORMED}[no-{key}]" for key in ("preamble", "threshold", "transmitted", "snr_db")
        ),
    ),
    # a value the INI reader rejects names its section and key
    Mutant(
        "ini-value-key-unnamed",
        "src/pktdet/config.py",
        '        raise ValueError(f"[{section.name}] {key}: {exc}") from None\n',
        "        raise\n",
        tuple(
            f"{MALFORMED}[{case}]"
            for case in (
                "float-energy-window",
                "float-seed",
                "not-a-boolean",
                "profile-threshold-not-an-int",
                "pn-negative-seed",
            )
        ),
    ),
    # and so does a preamble file that cannot be read
    Mutant(
        "ini-oserror-unnamed",
        "src/pktdet/config.py",
        "    except (ValueError, OSError) as exc:",
        "    except ValueError as exc:",
        tuple(
            f"tests/test_cli.py::test_unreadable_preamble_names_its_key[{command}-{source}]"
            for command in ("gen-iq", "detect")
            for source in ("missing-file", "coeff-directory")
        ),
    ),
    # a pn: source takes its two fields and no other
    Mutant(
        "pn-unknown-field-accepted",
        "src/pktdet/config.py",
        "if key not in _PN_FIELDS or key in fields:",
        "if key in fields:",
        ("tests/test_config.py::test_bad_preamble_sources", f"{MALFORMED}[pn-unknown-field]"),
    ),
    # and their values are read literally
    Mutant(
        "ini-percent-interpolated",
        "src/pktdet/config.py",
        "ConfigParser(interpolation=None, ",
        "ConfigParser(",
        ("tests/test_cli.py::test_ini_values_are_read_literally",),
    ),
    # argparse's usage errors end in the one error line too
    Mutant(
        "usage-errors-exit-in-argparse",
        "src/pktdet/cli.py",
        'parser = _Parser(prog="pktdet"',
        'parser = argparse.ArgumentParser(prog="pktdet"',
        tuple(
            f"tests/test_cli.py::test_usage_error_exits_2[{case}]"
            for case in ("seed-not-an-int", "no-subcommand")
        ),
    ),
    # detect's coarse tuning flags without the stage's lag are an error
    Mutant(
        "coarse-flags-without-lag-ignored",
        "src/pktdet/cli.py",
        "    if args.coarse_lag is None and tuning:",
        "    if False:",
        tuple(
            f"tests/test_cli.py::test_detect_input_errors_exit_2[{case}-without-lag]"
            for case in ("thresh", "thresh-and-plateau")
        ),
    ),
    # a real-valued setting too large for a float is a bad setting
    Mutant(
        "real-overflow-escapes",
        "src/pktdet/signal.py",
        "except (TypeError, OverflowError):",
        "except TypeError:",
        tuple(
            f"tests/test_settings.py::test_real_setting_rejects_an_int_beyond_a_float[{case}]"
            for case in ("energy", "noise_sigma-snr", "run_sweep")
        ),
    ),
    # and a SweepConfig container field that holds no container
    Mutant(
        "sweep-pad-pair-unchecked",
        "src/pktdet/harness.py",
        'raise ValueError("pad_before_range must be a (lo, hi) pair") from None',
        "raise",
        tuple(
            f"tests/test_settings.py::test_container_field_holds_a_container[{case}]"
            for case in ("pad_before_range", "pad_before_range-triple")
        ),
    ),
    # a sweep point holds one trial's seed at a time
    Mutant(
        "sweep-seeds-listed-up-front",
        "src/pktdet/harness.py",
        """    trials = range(cfg.trials_per_point)
    return tuple(run_trial(cfg, snr_db, seed_words(cfg.seed, snr_index, t)) for t in trials)
""",
        """    seeds = [seed_words(cfg.seed, snr_index, t) for t in range(cfg.trials_per_point)]
    return tuple(run_trial(cfg, snr_db, seed) for seed in seeds)
""",
        ("tests/test_harness.py::TestRunSweep::test_a_point_holds_no_seed_list",),
    ),
    # a record that holds an array compares by identity, not elementwise
    Mutant(
        "array-records-compare-by-value",
        "src/pktdet/signal.py",
        "@dataclass(frozen=True, eq=False)\nclass Preamble:",
        "@dataclass(frozen=True)\nclass Preamble:",
        tuple(
            f"tests/test_harness.py::test_record_compares_and_hashes_without_raising[{name}]"
            for name in ("Preamble", "StandardProfile", "SweepConfig", "Candidate")
        ),
    ),
)


def run_tests(tree: Path, ids) -> subprocess.CompletedProcess:
    """Run ``ids`` in ``tree`` in a fresh process; its own ``src`` first on
    the path, so an installed copy of the package cannot shadow it."""
    shutil.rmtree(tree / ".hypothesis", ignore_errors=True)  # no replayed examples
    # no bytecode: a restored file must not load a mutant's stale .pyc
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider"]
    command += ["--hypothesis-seed=0", "--hypothesis-profile=mutants", *ids]
    return subprocess.run(
        command, cwd=tree, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
    )


def failed_ids(run: subprocess.CompletedProcess) -> set[str]:
    """The ids on the ``FAILED`` lines of pytest's short summary: the text
    after ``FAILED `` up to the `` - `` that starts the message, so an id
    may hold spaces."""
    lines = run.stdout.splitlines()
    return {
        line.removeprefix("FAILED ").partition(" - ")[0]
        for line in lines
        if line.startswith("FAILED ")
    }


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    tree = tmp_path_factory.mktemp("mutants")
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, tree / part, ignore=skip)
    for name in ("pyproject.toml", "README.md"):  # README: its register table is tested
        shutil.copy2(ROOT / name, tree)
    probe = subprocess.run(
        [sys.executable, "-c", "import pktdet; print(pktdet.__file__)"],
        cwd=tree,
        env={**os.environ, "PYTHONPATH": str(tree / "src")},
        capture_output=True,
        text=True,
    )
    assert Path(probe.stdout.strip()).is_relative_to(tree), probe.stdout + probe.stderr
    ids = sorted({test for mutant in CATALOGUE for test in mutant.kills})
    run = run_tests(tree, ids)
    assert run.returncode == 0, "the named tests fail unpatched:\n" + run.stdout[-3000:]
    return tree


@pytest.mark.parametrize("mutant", CATALOGUE, ids=[m.name for m in CATALOGUE])
def test_mutant_is_killed(tree, mutant):
    path = tree / mutant.path
    original = path.read_text()
    assert original.count(mutant.old) == 1, f"old text of {mutant.name} not found once"
    path.write_text(original.replace(mutant.old, mutant.new))
    try:
        run = run_tests(tree, mutant.kills)
    except subprocess.TimeoutExpired:
        pytest.fail(f"{mutant.name} timed out after {RUN_TIMEOUT_S} s")
    finally:
        path.write_text(original)
    survivors = set(mutant.kills) - failed_ids(run)
    assert run.returncode == 1 and not survivors, (
        f"{mutant.name} survives {sorted(survivors)}:\n{run.stdout[-3000:]}"
    )
