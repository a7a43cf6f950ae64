"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload campaigns --seed 1 --seconds 55 --trace 0

Run from the root of a qgrass checkout.  Set-up time is sampled in
several fresh interpreters (``workload.py --setup-only``); then one more
fresh interpreter runs the workload for the time asked for.  The last
line of stdout is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  A fuller record of the run
goes to ``perfbench/results/``.  The exit code is 0 only when every
task's output passed its check.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from calibrate import REFERENCE_CHUNK_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("campaigns", "census", "fields")
SETUP_PROBES = 4
RUN_TIMEOUT_S = 170


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=20
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_sha256():
    """Digest of the package sources, which identifies the code in a checkout without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qgrass").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def spawn(args, workdir, deadline, setup_only=False):
    """Run workload.py in a fresh interpreter; returns its JSON and launch time."""
    cmd = [
        sys.executable,
        str(HERE / "workload.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", str(workdir),
    ]
    if setup_only:
        cmd.append("--setup-only")
    launched = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=max(deadline - launched, 1)
        )
    except subprocess.TimeoutExpired:
        raise SystemExit("workload process ran out of time") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"workload process exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), launched


def parse_args(argv):
    parser = argparse.ArgumentParser(description="qgrass benchmark run")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    if not (ROOT / "src" / "qgrass" / "__init__.py").is_file():
        sys.stderr.write(f"no qgrass sources under {ROOT / 'src'}; run from a qgrass checkout\n")
        return 2
    environment = {
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
    }
    workdir = HERE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        probes = [spawn(args, workdir, deadline, setup_only=True) for _ in range(SETUP_PROBES)]
        run, launched = spawn(args, workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    samples = probes + [(run, launched)]
    setups = [doc["setup"] for doc, _ in samples]
    setup_s = [doc["setup"]["ready"] - t for doc, t in samples]
    # set-up time at the reference host speed (see calibrate.py)
    setup_scaled_s = [
        wall * REFERENCE_CHUNK_S / doc["setup"]["reference_chunk_s"] for wall, (doc, _) in zip(setup_s, samples)
    ]
    environment["versions"] = run["versions"]
    correct = run["failed"] == 0
    if args.trace:
        from tracing import LAYER_METRICS, median_metrics

        values = median_metrics(run["layers"])
        values["setup.import_s"] = median(s["import_s"] for s in setups)
        values["setup.fields_s"] = median(s["fields_s"] for s in setups)
        values["setup.inputs_s"] = median(s["inputs_s"] for s in setups)
        values["trace.overhead"] = run["trace_overhead"]
        units = {name: unit for name, unit, _, _ in LAYER_METRICS}
        moves = {name: why for name, _, _, why in LAYER_METRICS}
    else:
        values = {
            "setup_s": median(setup_scaled_s),
            "items_per_s": run["items_per_s"],
            "task_p50_ms": run["task_p50_ms"],
            "task_tail_ms": run["task_tail_ms"],
            "peak_rss_mb": run["peak_rss_mb"],
        }
        units = {"setup_s": "s", "items_per_s": "1/s", "task_p50_ms": "ms", "task_tail_ms": "ms", "peak_rss_mb": "MB"}
        moves = None
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment,
        "task_count": run["task_count"],
        "passes": run["passes"],
        "tail_percentile": run["tail_percentile"],
        "digest": run["digest"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "failed_frac": run["failed"] / run["attempted"],
        "problems": run["problems"],
        "setup_samples_s": setup_s,
        "setup_scaled_samples_s": setup_scaled_s,
        "pass_seconds": run["pass_seconds"],
        "host_slowdown": run["host_slowdown"],
        "reference_chunk_s": run["reference_chunk_s"],
        "unscaled": run["unscaled"],
        "metrics": metrics,
        "task_ms": run["task_ms"],
    }
    if moves:
        record["should_move"] = moves
        record["traced_pass_seconds"] = run["traced_pass_seconds"]
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    for problem in run["problems"]:
        sys.stderr.write(json.dumps(problem) + "\n")

    print(json.dumps({"correct": correct, "attempted": run["attempted"], "failed": run["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
