"""One workload in one fresh Python process.

Set-up is the import of qgrass, construction of the workload's fields and
generation of its task list from the seed.  Then a single client runs
the list in passes, closed loop: each task is one in-process
``qgrass.cli.main(argv)`` call with stdout captured and checked, and the
next starts when it returns.  Passes repeat while another one fits in
the time asked for; every pass after the first must print the same bytes
as the first.  After every task, outside its timing, the client runs one
chunk of ``calibrate``'s reference computation; its mean time over the
run rescales task times to the reference host speed.

With ``--trace 1`` passes alternate between untraced and traced, so the
tracing overhead is measured in the same process.  ``--setup-only``
stops after set-up and a burst of reference chunks; run.py uses it to
sample set-up time.

The last line of stdout is one JSON object for run.py.
"""

import argparse
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from statistics import fmean, median

import calibrate
import checks
from tracing import Tracer, layer_metrics, traced

ROOT = Path(__file__).resolve().parent.parent
MAX_REPORTED_PROBLEMS = 20
SETUP_CHUNKS = 100


class Runner:
    """Runs a task list in passes and keeps per-task latencies and checks."""

    def __init__(self, cli, tasks):
        self.cli = cli
        self.tasks = tasks
        self.first_stdout = [None] * len(tasks)
        self.latencies = [[] for _ in tasks]
        self.reference = []
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run_pass(self):
        """Run every task once; returns its wall time and the items completed."""
        begin = time.perf_counter()
        items = 0
        for i, task in enumerate(self.tasks):
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    # looked up per call, so a traced pass runs the wrapped main
                    rc = self.cli.main(list(task.argv))
            except Exception:  # a crashing task is a failed task; keep going
                rc = None
                err.write(traceback.format_exc())
            elapsed = time.perf_counter() - start
            stdout = out.getvalue()
            problems = checks.check(task, rc, stdout) if rc is not None else ["raised an exception"]
            if self.first_stdout[i] is None:
                self.first_stdout[i] = stdout
            elif stdout != self.first_stdout[i]:
                problems.append("stdout differs from the first pass")
            self.attempted += 1
            self.latencies[i].append(elapsed)
            if problems:
                self.failed += 1
                if len(self.problems) < MAX_REPORTED_PROBLEMS:
                    self.problems.append(
                        {"task": task.label, "argv": list(task.argv), "problems": problems, "stderr": err.getvalue()[-2000:]}
                    )
            else:
                items += checks.items(task, stdout)
            self.reference.append(calibrate.chunk_seconds())
        return {"wall_s": time.perf_counter() - begin, "items": items}

    def digest(self):
        """SHA-256 of the first pass's stdout, task by task in list order."""
        h = hashlib.sha256()
        for stdout in self.first_stdout:
            h.update((stdout or "").encode())
        return h.hexdigest()


def tail_rank(n):
    """Index into n sorted values of the highest one with ten values above it."""
    return max(n - 11, 0)


def latency_metrics(latencies, items_per_pass, scale=1.0):
    """Throughput, p50 and tail over tasks.

    A task's latency is its mean over the passes after the first, which
    warms caches up, times ``scale``.  Host slowness comes in spells of
    milliseconds, so a mean sees the same mix of fast and slow spells as
    the reference chunks that ``scale`` comes from; a fastest run would
    instead depend on how often a whole task fit in a fast spell.
    """
    per_task = [scale * fmean(samples[1:] or samples) for samples in latencies]
    ranked = sorted(per_task)
    k = tail_rank(len(ranked))
    return {
        "items_per_s": items_per_pass / sum(per_task),
        "task_p50_ms": 1e3 * median(ranked),
        "task_tail_ms": 1e3 * ranked[k],
        "tail_percentile": 100.0 * (k + 1) / len(ranked),
    }


def measure(runner, seconds, trace):
    """Passes (or untraced/traced pairs) while another one fits in the time.

    Successive rounds run on successive CPUs of the process's affinity
    set.  On a shared machine one vCPU can spend far more of its time
    slowed than another, and a process left alone stays where it is;
    rotating spreads every task's runs over all of them.  The client is
    still one thread, one task at a time.
    """
    cpus = sorted(os.sched_getaffinity(0))
    begin = time.perf_counter()
    rounds, plain, with_trace, layers = [], [], [], []
    try:
        while True:
            os.sched_setaffinity(0, {cpus[len(rounds) % len(cpus)]})
            started = time.perf_counter()
            plain.append(runner.run_pass())
            if trace:
                tracer = Tracer()
                with traced(tracer):
                    with_trace.append(runner.run_pass())
                layers.append(layer_metrics(tracer))
            rounds.append(time.perf_counter() - started)
            if time.perf_counter() - begin + median(rounds) > seconds:
                return plain, with_trace, layers
    finally:
        os.sched_setaffinity(0, cpus)



def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    t0 = time.monotonic()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy

    import qgrass
    from qgrass import cli

    import tasks

    t1 = time.monotonic()
    fields = tasks.build_fields(args.workload)
    t2 = time.monotonic()
    task_list = tasks.build_tasks(args.workload, args.seed, args.workdir, fields)
    t3 = time.monotonic()
    setup = {"ready": t3, "import_s": t1 - t0, "fields_s": t2 - t1, "inputs_s": t3 - t2}
    # the host's speed just after set-up, to rescale set-up time with
    chunks = [calibrate.chunk_seconds() for _ in range(SETUP_CHUNKS)]
    setup["reference_chunk_s"] = fmean(chunks[SETUP_CHUNKS // 10:])
    if args.setup_only:
        print(json.dumps({"setup": setup}))
        return 0

    runner = Runner(cli, task_list)
    plain, with_trace, layers = measure(runner, args.seconds, args.trace)
    # the chunks of the first pass are left out, as its task times are
    reference_s = fmean(runner.reference[len(task_list):] or runner.reference)
    unscaled = latency_metrics(runner.latencies, plain[0]["items"])
    result = {
        "setup": setup,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems,
        "digest": runner.digest(),
        "task_count": len(task_list),
        "passes": len(plain) + len(with_trace),
        "pass_seconds": [p["wall_s"] for p in plain],
        "task_ms": [[t.label, 1e3 * fmean(lat[1:] or lat)] for t, lat in zip(task_list, runner.latencies)],
        "reference_chunk_s": reference_s,
        "host_slowdown": reference_s / calibrate.REFERENCE_CHUNK_S,
        "unscaled": {name: unscaled[name] for name in ("items_per_s", "task_p50_ms", "task_tail_ms")},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__, "qgrass": qgrass.__version__},
        **latency_metrics(runner.latencies, plain[0]["items"], calibrate.REFERENCE_CHUNK_S / reference_s),
    }
    if args.trace:
        result["traced_pass_seconds"] = [p["wall_s"] for p in with_trace]
        result["layers"] = layers
        result["trace_overhead"] = min(p["wall_s"] for p in with_trace) / min(p["wall_s"] for p in plain)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
