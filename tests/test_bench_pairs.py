"""``tools/bench_pairs.py`` keeps the pairs it finished when a run crashes,
and sums each metric up per side and per pair."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"

# a stand-in for bench/run.py: three lines of output, or a crash on one seed
FAKE_RUN = """
import json, sys
seed = int(sys.argv[sys.argv.index("--seed") + 1])
if seed == {crash_seed}:
    sys.stderr.write("".join(f"trace line {{k}}\\n" for k in range(40)))
    sys.exit(3)
print(json.dumps({{"provenance": {{"seed": seed}}}}))
ops = {ops}.get(seed, 12)
if ops is not None:
    print(f"{{ops}} untraced ops")
value = {table}.get(seed, {speed} + seed)
metrics = {{"samples_per_s": {{"value": value, "unit": "samples/s"}}}}
print(json.dumps({{"correct": True, "attempted": 12, "failed": 0, "metrics": metrics}}))
"""


def fake_tree(root: Path, crash_seed: int, speed: int, table=None, metric=None, ops=None) -> Path:
    """A tree whose run reports ``table[seed]``, or ``speed + seed`` for a
    seed the table does not hold, and ``ops[seed]`` ops (12 by default, no
    op line for None), and whose ``BENCHMARK.json`` declares ``metric``
    (higher is better, no bound, by default)."""
    (root / "bench").mkdir(parents=True)
    run = FAKE_RUN.format(crash_seed=crash_seed, speed=speed, table=table or {}, ops=ops or {})
    (root / "bench" / "run.py").write_text(run)
    spec = {"end_to_end": [{"name": "samples_per_s", "better": "higher", **(metric or {})}]}
    (root / "BENCHMARK.json").write_text(json.dumps(spec))
    return root


def compare(
    tmp_path,
    monkeypatch,
    pairs: int,
    base_crash_seed: int = -1,
    tables=(None, None),
    metric=None,
    ops=(None, None),
):
    """Run the tool from seed 5 on two fake trees, the base one crashing on
    ``base_crash_seed``, each reporting from its entries of ``tables`` and
    ``ops``, with the change tree declaring ``metric``; its exit code and
    the report it wrote."""
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)

    def export(revision, into):
        fake_tree(into, base_crash_seed, 900, tables[0], ops=ops[0])
        return "base0"

    monkeypatch.setattr(tool, "export", export)
    monkeypatch.setattr(tool, "git", lambda *args: b"head0" if args[0] == "rev-parse" else b"")
    change = fake_tree(tmp_path / "change", -1, 1000, tables[1], metric, ops[1])
    monkeypatch.setattr(tool, "ROOT", change)
    out = tmp_path / "pairs.json"
    argv = ["--workload", "w", "--base", "B", "--pairs", str(pairs), "--seed", "5"]
    code = tool.main(argv + ["--seconds", "1", "--out", str(out)])
    return code, json.loads(out.read_text()), tool


def test_a_crash_keeps_the_finished_pairs(tmp_path, monkeypatch):
    # pair 2 (seed 7) runs the base first, and the base crashes on it
    code, report, tool = compare(tmp_path, monkeypatch, pairs=4, base_crash_seed=7)
    assert code == 1
    assert [(p["pair"], p["seed"]) for p in report["pairs"]] == [(0, 5), (1, 6)]
    assert [p["change"]["metrics"]["samples_per_s"] for p in report["pairs"]] == [1005, 1006]
    assert report["summary"]["samples_per_s"]["wins"] == 2
    crashed = report["crashed"]
    assert {k: crashed[k] for k in ("pair", "side", "seed", "exit")} == {
        "pair": 2,
        "side": "base",
        "seed": 7,
        "exit": 3,
    }
    tail = [f"trace line {k}" for k in range(40 - tool._STDERR_TAIL_LINES, 40)]
    assert crashed["stderr_tail"] == tail


def test_a_crash_in_the_first_run_writes_no_summary(tmp_path, monkeypatch):
    code, report, _ = compare(tmp_path, monkeypatch, pairs=2, base_crash_seed=5)
    assert code == 1
    assert report["pairs"] == [] and report["summary"] == {}
    assert (report["crashed"]["pair"], report["crashed"]["side"]) == (0, "base")


def test_finished_runs_exit_0(tmp_path, monkeypatch):
    code, report, _ = compare(tmp_path, monkeypatch, pairs=2)
    assert code == 0
    assert len(report["pairs"]) == 2 and report["crashed"] is None


def test_pair_ratio_median_cancels_shared_drift(tmp_path, monkeypatch):
    # the sides' medians fall in different pairs (seeds 7 and 5), so the
    # ratio of the medians reads no change; the pairs' own ratios do not
    base = {5: 900, 6: 1300, 7: 1000}
    change = {5: 1000, 6: 1400, 7: 950}
    code, report, _ = compare(tmp_path, monkeypatch, pairs=3, tables=(base, change))
    assert code == 0
    summary = report["summary"]["samples_per_s"]
    assert summary["median_change"] == 0
    assert summary["pair_ratio_median"] == 1400 / 1300 - 1
    assert summary["wins"] == 2


def test_pair_ratio_median_skips_a_zero_base(tmp_path, monkeypatch):
    base = {5: 0, 6: 800}
    code, report, _ = compare(tmp_path, monkeypatch, pairs=2, tables=(base, {5: 1, 6: 1000}))
    assert code == 0
    assert report["summary"]["samples_per_s"]["pair_ratio_median"] == 1000 / 800 - 1


@pytest.mark.parametrize(
    "metric, change, over",
    [
        ({"bound": 0.2}, {5: 700, 6: 850}, True),  # median 775: 22.5% worse
        ({"bound": 0.2}, {5: 800, 6: 850}, False),  # median 825: 17.5% worse
        ({}, {5: 100, 6: 100}, False),  # no bound
        ({"better": "lower", "bound": 0.2}, {5: 1300, 6: 1200}, True),
        ({"better": "lower", "bound": 0.2}, {5: 700, 6: 850}, False),
    ],
    ids=["higher-past", "higher-within", "no-bound", "lower-past", "lower-better"],
)
def test_a_median_past_its_bound_is_flagged(tmp_path, monkeypatch, capsys, metric, change, over):
    base = {5: 1000, 6: 1000}
    code, report, _ = compare(tmp_path, monkeypatch, 2, tables=(base, change), metric=metric)
    assert code == 0
    assert report["summary"]["samples_per_s"]["over_bound"] is over
    assert ("worse than its bound" in capsys.readouterr().err) is over


# base values 100 apart, whose IQR of 450 a gain of 50 in every pair is within
WIDE = {5 + k: 1000 + 100 * k for k in range(10)}


@pytest.mark.parametrize(
    "base, change, met",
    [
        (None, None, True),  # 100 better in every pair, base IQR 4.5
        (None, {5: 904, 9: 908}, False),  # 100 better in 8 pairs only
        (WIDE, {seed: value + 50 for seed, value in WIDE.items()}, False),
    ],
    ids=["met", "too-few-wins", "within-the-spread"],
)
def test_claim_met_needs_nine_wins_in_ten_beyond_the_base_spread(
    tmp_path, monkeypatch, base, change, met
):
    code, report, _ = compare(tmp_path, monkeypatch, pairs=10, tables=(base, change))
    assert code == 0
    assert report["summary"]["samples_per_s"]["claim_met"] is met


def test_stdout_ends_with_one_verdict_line_per_metric(tmp_path, monkeypatch, capsys):
    base = {5: 1000, 6: 1000}
    metric = {"bound": 0.2}
    code, _, _ = compare(tmp_path, monkeypatch, 2, tables=(base, {5: 700, 6: 850}), metric=metric)
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-3].startswith("wrote ")
    assert lines[-2] == "samples_per_s: median -22.5%, won 0/2, claim_met false, over_bound true"


@pytest.mark.parametrize(
    "ops, line",
    [
        (({}, {5: 15, 6: 16}), "ops: base median 12, change median 15.5, change +29.2%"),
        (({5: None}, {}), "ops: base median 12, change median 12, change +0.0%"),
        (({5: None, 6: None}, {}), "ops: base median n/a, change median 12, change n/a"),
        (({}, {5: None, 6: None}), "ops: base median 12, change median n/a, change n/a"),
    ],
    ids=["both", "one-base-run-without", "base-without", "change-without"],
)
def test_stdout_ends_with_the_op_counts(tmp_path, monkeypatch, capsys, ops, line):
    code, report, _ = compare(tmp_path, monkeypatch, 2, ops=ops)
    assert code == 0
    assert capsys.readouterr().out.splitlines()[-1] == line
    side = report["summary"]["ops"]["base"]
    assert side is None or side["median"] == 12
