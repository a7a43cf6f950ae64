"""Median, quartiles and spread of the recorded runs, per workload and metric.

    python3 perfbench/summarize.py [results-dir]

Reads the untraced result records that run.py leaves in
``perfbench/results/`` and prints one JSON document: for each workload
and end-to-end metric the median, the quartiles and the spread (the
distance between the quartiles over the median), plus each seed's
output digest.  ``perfbench/baseline.json`` was written this way.
"""

import json
import sys
from collections import defaultdict
from pathlib import Path
from statistics import median, quantiles


def summarize(records):
    by_workload = defaultdict(list)
    for rec in records:
        by_workload[rec["workload"]].append(rec)
    out = {}
    for workload, recs in sorted(by_workload.items()):
        recs.sort(key=lambda r: r["seed"])
        metrics = {}
        for name, first in recs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in recs]
            q1, _, q3 = quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
            mid = median(values)
            metrics[name] = {
                "unit": first["unit"],
                "median": mid,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / mid,
                "values": values,
            }
        out[workload] = {
            "runs": len(recs),
            "task_count": recs[0]["task_count"],
            "tail_percentile": recs[0]["tail_percentile"],
            "failed": sum(r["failed"] for r in recs),
            "digests": {str(r["seed"]): r["digest"] for r in recs},
            "environment": recs[0]["environment"],
            "metrics": metrics,
        }
    return out


def main(argv):
    results = Path(argv[0]) if argv else Path(__file__).resolve().parent / "results"
    records = [json.loads(p.read_text()) for p in sorted(results.glob("*-trace0.json"))]
    print(json.dumps(summarize(records), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
