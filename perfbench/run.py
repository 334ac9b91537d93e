"""lpindex benchmark: runs one workload and prints its metrics as the last line of stdout.

    python3 perfbench/run.py --workload radius_corpus --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; lpindex is imported from ./src.

--trace 0 repeats whole rounds of the workload until --seconds have passed,
checks every item, and reports the end-to-end metrics (setup_s from fresh
interpreters started between items, off the clock).  --trace 1 runs a fixed number of rounds,
so that counts compare across commits: untraced first (for verify_battery
once through cli's process pool and once serially), then the same rounds with
every layer function wrapped, and reports the per-layer metrics.  The line
before the result holds the provenance, failure details, tail latency and an
output digest.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
POOL_WORKERS_MAX = 2


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _tail(times_ms):
    """The highest percentile with at least ten items beyond it, or None when there is none."""
    n = len(times_ms)
    if n < 11:
        return None
    k = n - 11
    return {"value": sorted(times_ms)[k], "percentile": 100.0 * (k + 1) / n, "samples": n}


def _setup_probe(workload, seed) -> float:
    """Wall time of a fresh interpreter importing lpindex and building the workload's inputs."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def _import_s() -> dict[str, float]:
    """Cumulative import time of lpindex, numpy and scipy from ``python -X importtime``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import lpindex"],
        cwd=ROOT, env=env, check=True, capture_output=True, text=True,
    )
    entries = []  # (depth, module, cumulative us), children before their parent
    for line in proc.stderr.splitlines():
        fields = line.split("|")
        if not line.startswith("import time:") or len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        depth = len(fields[2]) - len(fields[2].lstrip())
        entries.append((depth, fields[2].strip(), int(fields[1])))
    parent = [-1] * len(entries)
    pending = []
    for i, (depth, _, _) in enumerate(entries):
        while pending and entries[pending[-1]][0] > depth:
            parent[pending.pop()] = i
        pending.append(i)

    def in_package(i, pkg):
        return entries[i][1] == pkg or entries[i][1].startswith(pkg + ".")

    def top_level_s(pkg):
        total = 0
        for i in range(len(entries)):
            if not in_package(i, pkg):
                continue
            j = parent[i]
            while j >= 0 and not in_package(j, pkg):
                j = parent[j]
            if j < 0:
                total += entries[i][2]
        return total / 1e6

    return {f"setup.import_s.{pkg}": top_level_s(pkg) for pkg in ("lpindex", "numpy", "scipy")}


def _untraced(wl, workload, seed, seconds, workers):
    """Whole rounds until `seconds` of timed work have passed.

    The set-up probes are spread over the run, between items and off the
    clock, so that setup_s samples the machine's speed over the whole run
    rather than during a few seconds of it.
    """
    interval = seconds / SETUP_PROBES
    probes = []
    paused_wall = paused_cpu = 0.0
    done = []
    t0, cpu0 = time.perf_counter(), _cpu_s()

    def timed():
        return time.perf_counter() - t0 - paused_wall

    while not done or timed() < seconds:
        round_items = []
        for item in wl.run_round(len(done), workers):
            round_items.append(item)
            if len(probes) < SETUP_PROBES and timed() >= len(probes) * interval:
                p0, c0 = time.perf_counter(), _cpu_s()
                probes.append(_setup_probe(workload, seed))
                paused_wall += time.perf_counter() - p0
                paused_cpu += _cpu_s() - c0
        done.append(round_items)
    elapsed = timed()
    cpu = _cpu_s() - cpu0 - paused_cpu
    while len(probes) < SETUP_PROBES:
        probes.append(_setup_probe(workload, seed))
    # The largest single-process peak.  A forked worker's peak already counts
    # the memory it shares with this process, so the two are not added.
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, wl.row_rss_kb if wl.uses_pool else 0)

    times_ms = [it.seconds * 1e3 for items in done for it in items if it.seconds is not None]
    if not times_ms:
        raise SystemExit(f"error: no item of {workload} completed: {done[0][0].failures}")
    metrics = {
        "setup_s": (statistics.median(probes), "s"),
        "items_per_s": (len(times_ms) / elapsed, "items/s"),
        "item_p50_ms": (statistics.median(times_ms), "ms"),
        "cpu_ms_per_item": (cpu * 1e3 / len(times_ms), "ms"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    extra = {
        "rounds": len(done),
        "items": len(times_ms),
        "elapsed_s": elapsed,
        "cpu_s": cpu,
        "item_tail_ms": _tail(times_ms),
        "setup_probe_s": probes,
    }
    return done, done[: wl.trace_rounds], metrics, extra


def _traced(wl, workers):
    from tracing import Tracer

    rounds = range(wl.trace_rounds)
    tracer = Tracer()
    pool_done, plain_done, traced_done = [], [], []
    pool_wall = plain_wall = traced_wall = 0.0
    # The passes alternate round by round, and which of the plain and traced
    # passes goes first alternates too, so that drift in machine speed and
    # after-effects of the previous pass hit both alike.
    for r in rounds:
        if wl.uses_pool:
            before = wl.pmap_wall_s
            pool_done.append(list(wl.run_round(r, workers)))
            pool_wall += wl.pmap_wall_s - before
        for traced in (False, True) if r % 2 == 0 else (True, False):
            with tracer.installed() if traced else contextlib.nullcontext():
                t0 = time.perf_counter()
                items = list(wl.run_round(r, 1))
                wall = time.perf_counter() - t0
            if traced:
                traced_done.append(items)
                traced_wall += wall
            else:
                plain_done.append(items)
                plain_wall += wall

    stats = tracer.layer_stats()
    row_span = stats["cli.verify_row.total_s"] if wl.uses_pool else 0.0
    stats["cli.pool.workers"] = workers if wl.uses_pool else 0
    stats["cli.pool.row_span_s"] = row_span
    stats["cli.pool.wall_s"] = pool_wall
    stats["cli.pool.efficiency"] = row_span / (workers * pool_wall) if pool_wall > 0 else 0.0
    stats.update(_import_s())
    stats["trace.overhead_frac"] = traced_wall / plain_wall - 1.0

    def unit(name):
        if name.endswith((".calls", ".errors", ".evals", ".workers")):
            return "count"
        if name.endswith(("efficiency", "overhead_frac")):
            return "fraction"
        return "s"

    metrics = {k: (v, unit(k)) for k, v in stats.items()}
    extra = {
        "rounds": len(rounds),
        "passes": 3 if wl.uses_pool else 2,
        "untraced_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "pool_wall_s": pool_wall,
        "spans": len(tracer.spans),
    }
    return pool_done + plain_done + traced_done, traced_done, metrics, extra


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "lpindex" / "__init__.py").is_file():
        print(f"error: no lpindex source under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import lpindex
    import numpy
    import workloads

    if Path(lpindex.__file__).resolve().parent != (SRC / "lpindex").resolve():
        print(f"error: lpindex imported from {lpindex.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        known = sorted(workloads.WORKLOADS)
        print(f"error: unknown workload {args.workload!r}; one of {known}", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print(f"error: --seconds must be > 0, got {args.seconds}", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload](args.seed)
    nproc = len(os.sched_getaffinity(0))
    workers = min(POOL_WORKERS_MAX, nproc)
    if args.trace:
        done, digested, metrics, extra = _traced(wl, workers)
    else:
        done, digested, metrics, extra = _untraced(wl, args.workload, args.seed, args.seconds, workers)

    items = [it for round_items in done for it in round_items]
    failed = sum(1 for it in items if it.failures)
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        **extra,
        "attempted": len(items),
        "failed": failed,
        "failed_frac": failed / len(items),
        "failures": [m for it in items for m in it.failures][:10],
        "digest": {
            "rounds": len(digested),
            "sha256": workloads.digest([it for round_items in digested for it in round_items]),
        },
        "provenance": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": getattr(sys.modules.get("scipy"), "__version__", "not imported"),
            "lpindex": lpindex.__version__,
            "machine": platform.machine(),
            "nproc": nproc,
            "start_method": multiprocessing.get_start_method(),
            "workers": workers if wl.uses_pool else 1,
            "seed": args.seed,
            "inputs": wl.sizes(),
        },
    }
    print(json.dumps({"report": report}))
    result = {
        "correct": failed == 0,
        "attempted": len(items),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
