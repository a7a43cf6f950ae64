"""Run the benchmark in two checkouts, in alternated pairs, and compare them.

For each seed, ``perfbench/run.py`` runs once in a parent checkout and
once in a change checkout, one after the other; the parent goes first
on odd seeds and the change on even ones, so neither side always meets
the host warm.  Each run's figures are read back from the record it
writes to ``perfbench/results/`` in its own checkout.  ``run.py``
writes that record only when it finishes, so a run that exits with a
code other than 0 or 1 (1: a task failed its check), or leaves the
record it found in place, stops the tool with a message naming the
checkout and the seed, instead of reporting an earlier run's figures.
For every end-to-end metric that ``BENCHMARK.json`` lists, the report gives each
pair's values (parent -> change), each side's median, the parent's
quartiles and how many pairs the change won:

    python3 tools/bench_pairs.py PARENT CHANGE --workload campaigns --seeds 601-610
    python3 tools/bench_pairs.py PARENT CHANGE --workload fields --seeds 611,612 --seconds 20
    python3 tools/bench_pairs.py PARENT CHANGE --workload campaigns --seeds 601-610 --report-only

With --report-only nothing runs, and the records already in both
checkouts are read.  This tool writes no file; the runs it starts write
only what ``perfbench/run.py`` writes.  It needs only the standard
library and sits outside tests/, so the suite never collects it.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    """'601-610' or '3,7,11' (or a mix) as a list of ints, in order."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def record_path(checkout, workload, seed):
    return Path(checkout) / "perfbench" / "results" / f"{workload}-seed{seed}-trace0.json"


def run_once(checkout, workload, seed, seconds):
    """One benchmark run in checkout; its exit code (1 when a task failed its check)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    return subprocess.run(cmd, cwd=checkout, stdout=subprocess.DEVNULL).returncode


def _mtime_ns(path):
    return path.stat().st_mtime_ns if path.exists() else None


def fresh_run(checkout, workload, seed, seconds):
    """run_once, refused unless it exits 0 or 1 and rewrites its record."""
    path = record_path(checkout, workload, seed)
    before = _mtime_ns(path)
    rc = run_once(checkout, workload, seed, seconds)
    print(f"seed {seed} {checkout}: exit {rc}", file=sys.stderr, flush=True)
    if rc not in (0, 1):
        raise SystemExit(f"{checkout}: the run of seed {seed} exited {rc}; its record is not this run's")
    after = _mtime_ns(path)
    if after is None or after == before:
        raise SystemExit(f"{checkout}: the run of seed {seed} wrote no record; {path} is not this run's")


def read_record(checkout, workload, seed, seconds):
    path = record_path(checkout, workload, seed)
    record = json.loads(path.read_text())
    if record["seconds"] != seconds:
        raise SystemExit(f"{path} holds a {record['seconds']} s run, not {seconds} s")
    return record


def fmt(value):
    return f"{value:.0f}" if abs(value) >= 100 else f"{value:.3f}"


def summary(workload, name, better, pairs):
    """One line: medians, change, parent quartiles, wins, then every pair."""
    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]
    mp, mc = median(parent), median(change)
    wins = sum((c < p) if better == "lower" else (c > p) for p, c in pairs)
    q1, _, q3 = quantiles(parent, n=4, method="inclusive") if len(parent) > 1 else (parent * 3)
    shift = f"{100 * (mc - mp) / mp:+.1f}%" if mp else "n/a"
    listed = ", ".join(f"{fmt(p)} -> {fmt(c)}" for p, c in pairs)
    return (
        f"`{workload}` `{name}` {fmt(mp)} -> {fmt(mc)} ({shift}; parent quartiles "
        f"{fmt(q1)}-{fmt(q3)}; {wins}/{len(pairs)} wins). Pairs: {listed}."
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 601-610 or 3,7,11")
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--report-only", action="store_true", help="read the records already written")
    args = parser.parse_args(argv)

    bench = json.loads((Path(args.change) / "BENCHMARK.json").read_text())
    metrics = [(m["name"], m["better"]) for m in bench["end_to_end"]]
    sides = {"parent": args.parent, "change": args.change}
    records = []
    for seed in args.seeds:
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        if not args.report_only:
            for side in order:
                fresh_run(sides[side], args.workload, seed, args.seconds)
        records.append({side: read_record(path, args.workload, seed, args.seconds) for side, path in sides.items()})

    failed = {side: sum(r[side]["failed"] for r in records) for side in sides}
    digests = sum(r["parent"]["digest"] == r["change"]["digest"] for r in records)
    print(
        f"{len(records)} pairs of {args.seconds} s runs on `{args.workload}`, seeds "
        f"{', '.join(map(str, args.seeds))}; parent first on odd seeds. Failed operations: "
        f"parent {failed['parent']}, change {failed['change']}. Equal first-pass digests: "
        f"{digests}/{len(records)}."
    )
    for name, better in metrics:
        pairs = [(r["parent"]["metrics"][name]["value"], r["change"]["metrics"][name]["value"]) for r in records]
        print(summary(args.workload, name, better, pairs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
