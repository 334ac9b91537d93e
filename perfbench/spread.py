"""Record the benchmark's baseline: two separate sets of ten untraced runs of every workload.

    python3 perfbench/spread.py > perfbench/baseline.json

Runs the command, workloads and run_seconds of BENCHMARK.json from the
checkout root, one run at a time: every workload on seeds 1-10, then every
workload on seeds 11-20.  For each set, workload and end-to-end metric it
writes the ten values, their median and the spread (Q3 - Q1) / median with
Q1, Q3 from statistics.quantiles(values, n=4).  Progress goes to stderr.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = (range(1, 11), range(11, 21))
WHAT = ("Baseline: two separate sets of ten untraced runs of every workload (seeds 1-10, then 11-20), "
        "one run at a time, written by python3 perfbench/spread.py")


def _run(command, workload, seed, seconds) -> tuple[dict, dict]:
    """One untraced run: its report line and its result line."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True).stdout.splitlines()
    return json.loads(out[-2])["report"], json.loads(out[-1])


def _summary(seeds, runs) -> dict:
    metrics = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        metrics[name] = {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}
    return {
        "seeds": f"{seeds[0]}-{seeds[-1]}",
        "attempted": sum(r["attempted"] for r in runs),
        "failed_items": sum(r["failed"] for r in runs),
        "runs_not_correct": [s for s, r in zip(seeds, runs) if not r["correct"]],
        "metrics": metrics,
    }


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    baseline = {"what": WHAT, "run_seconds": seconds, "provenance": None, "sets": []}
    for seeds in SETS:
        summaries = {}
        for workload in (w["name"] for w in bench["workloads"]):
            runs = []
            for seed in seeds:
                report, result = _run(bench["command"], workload, seed, seconds)
                if baseline["provenance"] is None:
                    baseline["provenance"] = {k: v for k, v in report["provenance"].items()
                                              if k not in ("seed", "inputs", "workers")}
                runs.append(result)
                print(f"{workload} seed={seed} correct={result['correct']} failed={result['failed']}",
                      file=sys.stderr, flush=True)
            summaries[workload] = _summary(list(seeds), runs)
            for name, m in summaries[workload]["metrics"].items():
                print(f"  {name:16s} median={m['median']:<12.6g} spread={m['spread']:.4f}",
                      file=sys.stderr, flush=True)
        baseline["sets"].append(summaries)
    print(json.dumps(baseline, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
