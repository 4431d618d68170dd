"""Compare a base revision with this checkout on one benchmark workload.

Run from anywhere inside the repository:

    python3 tools/bench_pairs.py --workload sweep_curves --base HEAD~1 \\
        --pairs 10 --seconds 20 --seed 1511

The base revision is exported with ``git archive`` into a temporary
directory; the change side is this checkout's files as they stand,
committed or not.  Pair k runs ``bench/run.py --seed <seed + k>`` untraced
on both trees, the base first on even pairs and the change first on odd
ones.  The script writes every run's metrics and op count, each side's
median and quartiles per metric, the median of the per-pair change/base
ratios (``pair_ratio_median``, a fraction like ``median_change``, in which
drift that both runs of a pair share cancels), and the pairs the change won
(ties count for neither side) to ``BENCH_<workload>.json`` at the
repository root, or to ``--out``.  Whether higher or lower is better, and
each metric's bound, come from the ``end_to_end`` list of
``BENCHMARK.json``; a metric whose ``median_change`` is worse than its
bound is marked ``"over_bound": true`` and named on standard error.  A
metric's ``claim_met`` holds when the change won at least 9 in 10 of the
pairs and its median beats the base median, in the better direction, by
more than the base's interquartile range (q3 - q1).  A run
that crashes (no result line, or an exit code other than 0 or 1) ends the
comparison without a retry: the file then holds the pairs finished before
it and, under ``crashed``, that run's pair, side, seed, exit code and the
tail of its standard error.  Standard output then holds one verdict line
per metric (its median change, the pairs it won, ``claim_met`` and
``over_bound``) and ends with an ``ops:`` line: each side's median op
count and the change between them.  The script exits 1 if any run crashed
or failed its checks, after writing the file.  Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_STDERR_TAIL_LINES = 20


class _RunCrashed(RuntimeError):
    """A ``bench/run.py`` run that gave no result: its exit code (None when
    it timed out) and the last lines of its standard error."""

    def __init__(self, exit_code: int | None, stderr: str) -> None:
        self.exit_code = exit_code
        self.stderr_tail = stderr.splitlines()[-_STDERR_TAIL_LINES:]
        super().__init__(f"bench/run.py exited {exit_code}:\n" + "\n".join(self.stderr_tail))


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True).stdout


def export(revision: str, into: Path) -> str:
    """Unpack ``revision``'s tree into ``into``; return its commit id."""
    commit = git("rev-parse", "--verify", f"{revision}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", commit))) as tar:
        tar.extractall(into, filter="data")
    return commit


def bench_run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced ``bench/run.py`` run on ``tree``: its provenance,
    metrics, op count, check counts and exit code."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", "0"]
    try:
        done = subprocess.run(
            cmd, cwd=tree, capture_output=True, text=True, timeout=600 + 5 * seconds
        )
    except subprocess.TimeoutExpired as exc:
        stderr = exc.stderr or ""  # bytes, even with text=True
        if isinstance(stderr, bytes):
            stderr = stderr.decode(errors="replace")
        raise _RunCrashed(None, stderr) from None
    lines = done.stdout.splitlines()
    if done.returncode not in (0, 1) or len(lines) < 2:
        raise _RunCrashed(done.returncode, done.stderr)
    result = json.loads(lines[-1])
    ops = re.search(r"(\d+) untraced ops", done.stdout)
    return {
        "seed": seed,
        "exit": done.returncode,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "ops": int(ops.group(1)) if ops else None,
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "notes": lines[1:-1],
        "provenance": json.loads(lines[0])["provenance"],
    }


def spread(values: list[float]) -> dict:
    """Median and quartiles; a single value is all three."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], spec: dict[str, dict]) -> dict:
    """Per metric: each side's spread, the changes, the wins, whether the
    median change is worse than the metric's bound in ``spec``, and whether
    the change meets the claim rule."""
    summary = {}
    for name in pairs[0]["base"]["metrics"]:
        base = [p["base"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        declared = spec.get(name, {})
        sign = -1 if declared.get("better") == "lower" else 1
        ratios = [c / b for b, c in zip(base, change) if b]
        median_change = statistics.median(change) / statistics.median(base) - 1
        bound = declared.get("bound")
        base_spread, change_spread = spread(base), spread(change)
        wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
        gain = sign * (change_spread["median"] - base_spread["median"])
        summary[name] = {
            "better": declared.get("better", "higher"),
            "base": base_spread,
            "change": change_spread,
            "median_change": median_change,
            "pair_ratio_median": statistics.median(ratios) - 1 if ratios else None,
            "wins": wins,
            "pairs": len(pairs),
            "over_bound": bound is not None and -sign * median_change > bound,
            "claim_met": 10 * wins >= 9 * len(pairs)
            and gain > base_spread["q3"] - base_spread["q1"],
        }
    summary["ops"] = {}
    for side in ("base", "change"):
        # a run whose output gave no op count is left out; a side with none is None
        counts = [p[side]["ops"] for p in pairs if p[side]["ops"] is not None]
        summary["ops"][side] = spread(counts) if counts else None
    return summary


def ops_line(ops: dict) -> str:
    """Each side's median op count and the change's median against the
    base's, ``n/a`` where a side has none: ``peak_rss_mb`` grows with the
    ops a run keeps, so it is read beside these."""
    base, change = (ops[side] and ops[side]["median"] for side in ("base", "change"))
    delta = f"{change / base - 1:+.1%}" if base and change is not None else "n/a"
    base, change = ("n/a" if n is None else f"{n:g}" for n in (base, change))
    return f"ops: base median {base}, change median {change}, change {delta}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--out", default=None, help="default BENCH_<workload>.json at the root")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0 or args.seed < 0:
        parser.error("--pairs must be >= 1, --seconds > 0 and --seed >= 0")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    out = Path(args.out) if args.out else ROOT / f"BENCH_{args.workload}.json"

    pairs = []
    crashed = None
    with tempfile.TemporaryDirectory(prefix="bench-base-") as tmp:
        base_commit = export(args.base, Path(tmp))
        try:
            for k in range(args.pairs):
                seed = args.seed + k
                order = ("base", "change") if k % 2 == 0 else ("change", "base")
                pair = {"pair": k, "seed": seed, "first": order[0]}
                for side in order:
                    tree = Path(tmp) if side == "base" else ROOT
                    pair[side] = bench_run(tree, args.workload, seed, args.seconds)
                    print(f"pair {k} {side}: " + json.dumps(pair[side]["metrics"]), flush=True)
                pairs.append(pair)
        except _RunCrashed as exc:
            print(f"pair {k} {side}: {exc}", file=sys.stderr, flush=True)
            crashed = {
                "pair": k,
                "side": side,
                "seed": seed,
                "exit": exc.exit_code,
                "stderr_tail": exc.stderr_tail,
            }

    head = git("rev-parse", "HEAD").decode().strip()
    dirty = bool(git("status", "--porcelain", "--untracked-files=no").strip())
    report = {
        "workload": args.workload,
        "base": base_commit,
        "change": head + ("+uncommitted" if dirty else ""),
        "seconds": args.seconds,
        "seeds": [args.seed, args.seed + args.pairs - 1],
        "summary": summarize(pairs, metrics) if pairs else {},
        "pairs": pairs,
        "crashed": crashed,
    }
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}")
    for name, m in report["summary"].items():
        if name != "ops":
            print(
                f"{name}: median {m['median_change']:+.1%}, won {m['wins']}/{m['pairs']}, "
                f"claim_met {json.dumps(m['claim_met'])}, over_bound {json.dumps(m['over_bound'])}"
            )
    if pairs:
        print(ops_line(report["summary"]["ops"]))
    over = [name for name, m in report["summary"].items() if m.get("over_bound")]
    if over:
        print(f"median change worse than its bound: {over}", file=sys.stderr)
    failed = [(p["pair"], side) for p in pairs for side in ("base", "change") if p[side]["exit"]]
    if failed:
        print(f"runs that failed their checks (pair, side): {failed}", file=sys.stderr)
    return 1 if failed or crashed else 0


if __name__ == "__main__":
    sys.exit(main())
