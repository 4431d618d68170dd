"""The mutant catalogue (``tests/mutants.py``) reads which named tests
failed off pytest's ``-rf`` short summary."""

import subprocess

from mutants import failed_ids


def test_failed_ids_read_whole_ids_off_the_summary():
    # an id may hold spaces, and a message may hold " - " again
    spaced = "tests/test_cli.py::test_detect_input_errors_exit_2[flags0-not an IQPD file]"
    plain = "tests/test_energy.py::TestEnergyGate::test_matches_naive_recount"
    bare = "tests/test_coarse.py::TestMetric::test_all_zero_stream_scores_zero"
    summary = [
        "=========================== short test summary info ============================",
        f"FAILED {spaced} - AssertionError: assert 0 == 2",
        f"FAILED {plain} - hypothesis.errors.Flaky: a - b",
        f"FAILED {bare}",
        "3 failed, 1 passed in 0.50s",
    ]
    run = subprocess.CompletedProcess([], 1, stdout="\n".join(summary))
    assert failed_ids(run) == {spaced, plain, bare}
