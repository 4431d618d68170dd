"""Replayable mutant catalogue: each entry breaks the program in one known
way, and the tests it names must catch it.

Run from the repository root, after the tier-1 tests (pytest does not
collect this file on its own):

    python -m pytest -q tests/mutants.py

The source tree, the tests and ``pyproject.toml`` are copied once to a
temporary directory, and the named tests must pass there unpatched.  Then,
per entry, the entry's old text in its file is replaced by the new text,
the named tests run in a fresh pytest process with a fixed hypothesis seed
and no shrinking of a failing example (the ``mutants`` profile in
``conftest.py``), and the file is restored.  An entry fails when its old
text does not occur exactly once (the code it targets changed, so the entry
must follow it) or when any named test passes under the mutant (the mutant
survives).
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
BAD_PUSH = (
    f"{STREAM}test_push_rejects_codes_outside_the_format[q1.15]",
    f"{STREAM}test_push_rejects_codes_outside_the_format[q2.10]",
)
MALFORMED = "tests/test_cli.py::test_malformed_ini_exits_2"
TAP = "(profile.id, bank.length, span - bank.length, *bank._packed, on)"
COARSE = "src/pktdet/coarse.py"
METRIC = "tests/test_coarse.py::TestMetric::"
METRIC_SCAN = "tests/test_coarse.py::TestTrigger::test_detect_coarse_matches_the_metric_scan"
MAP_KEY = (
    "key = (tuple((p.fine_threshold, p.bank) for p in profiles), energy, coarse, holdoff, fmt)"
)
MAP_MEMO = "tests/test_standards.py::TestMapMemo::"
SPAN = "tests/test_correlator.py::TestCorrelateStream::"
SEED_WORDS = (
    "tests/test_harness.py::TestSeedWords::test_words_draw_the_tuple_stream",
    *(
        f"tests/test_harness.py::TestSeedWords::"
        f"test_sweep_point_seeds_each_trial_with_its_tuple_stream[{seed}]"
        for seed in (0, 2**32 - 1, 2**32, 2**64 + 5)
    ),
)
EVENTS = "tests/test_standards.py::TestEventsFromCandidates::test_matches_the_reference"
BAD_WORD = (
    "tests/test_standards.py::TestRegisterValidation::test_bad_stage_word_is_rejected_by_key"
)
WORDS = "tests/test_standards.py::TestRegisterWords::test_stages_equal_the_oracles_fed_the_words"
WINDOW = "tests/test_energy.py::TestWindowEnergy::"

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
    Mutant(
        "correlator-ready-one-late",
        STANDARDS,
        "if enabled and on and seen >= n:",
        "if enabled and on and seen > n:",
        (
            "tests/test_correlator.py::TestCorrelateAt::test_underfilled_window_not_ready",
            f"{STREAM}test_mixed_lengths_match_the_oracle",
        ),
    ),
    Mutant(
        "gate-readiness-dropped",
        STANDARDS,
        "if seen >= self._window_len and exceed.bit_count() > self._count_thr:",
        "if exceed.bit_count() > self._count_thr:",
        (f"{GATE}test_enable_array_marks_window_ends", f"{GATE}test_matches_naive_recount"),
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
        "            self._holdoff_left = self._holdoff\n            enabled = True\n",
        "            enabled = True\n",
        (f"{STREAM}test_matches_batch_outputs_when_idle",),
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
            ("resets-the-samples-seen", "self._seen = 0"),
        )
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
    # the decode rejects, by key, a stage word no stage can run under
    *(
        Mutant(
            f"decode-{name}-check-dropped",
            STANDARDS,
            f'_positive(regs, "{key}")',
            f'regs.read("{key}")',
            (f"{BAD_WORD}[{name}]",),
        )
        for name, key in (
            ("window", "energy/window_len"),
            ("lag", "coarse/lag"),
            ("plateau", "coarse/plateau"),
        )
    ),
    Mutant(
        "decode-count-check-dropped",
        STANDARDS,
        "        if count > window:\n",
        "        if False:\n",
        (f"{BAD_WORD}[count]", WORDS),
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
        "exceed = stream.energy > thr_raw",
        "exceed = stream.energy >= thr_raw",
        (f"{WINDOW}test_zero_stream", f"{WINDOW}test_unit_samples", WORDS),
    ),
    # the coarse stage: P and R down one (m, 3) prefix block, then the metric
    Mutant(
        "coarse-r-from-the-first-half",
        COARSE,
        "terms[2, 1:] = stream.energy[lag:]",
        "terms[2, 1:] = stream.energy[:-lag]",
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
        "coarse-prefix-block-in-int32",
        COARSE,
        "sums = np.empty((n - lag + 1, 3), dtype=np.int64)",
        "sums = np.empty((n - lag + 1, 3), dtype=np.int32)",
        (f"{METRIC}test_full_scale_long_stream_stays_exact",),
    ),
    Mutant(
        "coarse-r2-floor-dropped",
        COARSE,
        "r2 = np.maximum(squares[:, 2], 1.0)",
        "r2 = squares[:, 2]",
        (f"{METRIC}test_all_zero_stream_scores_zero",),
    ),
    Mutant(
        "coarse-threshold-strict",
        COARSE,
        ">= thr_q15 / (1 << 15)",
        "> thr_q15 / (1 << 15)",
        (METRIC_SCAN,),
    ),
    Mutant(
        "coarse-plateau-one-longer",
        COARSE,
        "_first_run(above, plateau)",
        "_first_run(above, plateau + 1)",
        (METRIC_SCAN,),
    ),
    # equal register-map builds share one map, and only equal ones do
    *(
        Mutant(
            f"map-key-without-{field}",
            STANDARDS,
            MAP_KEY,
            MAP_KEY.replace(f", {field}", ""),
            (f"{MAP_MEMO}test_memo_equals_a_fresh_build",),
        )
        for field in ("holdoff", "fmt", "energy")
    ),
    # the fine stage
    Mutant(
        "candidates-early-exit-inverted",
        STANDARDS,
        "    if not np.count_nonzero(above):",
        "    if np.count_nonzero(above):",
        (
            "tests/test_standards.py::TestExtractCandidates::test_matches_naive_run_scan",
            "tests/test_standards.py::TestRunDetectorBank::test_noiseless_event_at_ground_truth",
        ),
    ),
    Mutant(
        "gather-skipped-across-gaps",
        "src/pktdet/correlator.py",
        "if last - lo >= count:",
        "if last - lo < count:",
        (f"{SPAN}test_process_equals_repeated_push", f"{SPAN}test_process_span_edges"),
    ),
    # each sweep trial's seed words draw its (seed, snr_index, t) stream
    Mutant(
        "seed-words-high-words-dropped",
        "src/pktdet/harness.py",
        "        value >>= 32\n",
        "        value = 0\n",
        SEED_WORDS[:1] + SEED_WORDS[3:],
    ),
    Mutant(
        "seed-words-zero-gets-no-word",
        "src/pktdet/harness.py",
        "    return words or [0]",
        "    return words",
        # SeedSequence pads short entropy with zero words, so only rows whose
        # lost zero is not trailing, or that are longer than its 4-word pool,
        # draw another stream
        SEED_WORDS[:2] + SEED_WORDS[4:],
    ),
    # gate-run starts only for candidates, and the arbitration that reads them
    Mutant(
        "gate-run-starts-guard-inverted",
        STANDARDS,
        "    if candidates and view.energy is not None:",
        "    if not candidates and view.energy is not None:",
        (
            "tests/test_standards.py::TestRunDetectorBank::test_noiseless_event_at_ground_truth",
            "tests/test_standards.py::TestRunDetectorBank::"
            "test_gate_on_without_candidates_returns_no_events",
        ),
    ),
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
        "    except KeyError:\n        raise ValueError(f\"[{section.name}] needs",
        "    except ZeroDivisionError:\n        raise ValueError(f\"[{section.name}] needs",
        tuple(
            f"{MALFORMED}[no-{key}]" for key in ("preamble", "threshold", "transmitted", "snr_db")
        ),
    ),
    # and their values are read literally
    Mutant(
        "ini-percent-interpolated",
        "src/pktdet/config.py",
        "        interpolation=None,\n",
        "",
        ("tests/test_cli.py::test_ini_values_are_read_literally",),
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
    return subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)


def failed_ids(run: subprocess.CompletedProcess) -> set[str]:
    """The ids on the ``FAILED`` lines of pytest's short summary."""
    lines = run.stdout.splitlines()
    return {line.split()[1] for line in lines if line.startswith("FAILED ")}


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    tree = tmp_path_factory.mktemp("mutants")
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, tree / part, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", tree)
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
    finally:
        path.write_text(original)
    survivors = set(mutant.kills) - failed_ids(run)
    assert run.returncode == 1 and not survivors, (
        f"{mutant.name} survives {sorted(survivors)}:\n{run.stdout[-3000:]}"
    )
