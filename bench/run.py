"""pcqi benchmark: one workload, measured for a fixed time.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs cold batches of the workload back to back, each in a fresh
single-threaded worker process (``worker.py``), one at a time, until the next
batch would overrun ``--seconds``; at least one batch always runs.  Every
metric is the median over the batches.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced and
traced batches and reports the per-layer metrics of the traced ones, plus
``trace_overhead_ratio`` (traced over untraced wall time); it also writes the
spans and cache snapshots of the first traced batch to
``bench/out/trace-<workload>-seed<N>.json``.

Batch i of a run relabels the base graphs by a permutation drawn from the
seed and i, so the medians average over several labellings, and the same
seed gives the same sequence of inputs.  The default seed is 0: it keeps the
vertex names of the acceptance-test fixtures in every batch, so the default
run matches the acceptance criteria name for name.
Exit status: 0 when every check passed, 1 when a check failed, 2 when the
benchmark could not run (no result line is printed then).
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("doubling_girth", "embed_search", "rigidity", "invariants")
RUN_LIMIT_S = 170          # a run must end within 180 s
# PCQI_BUDGET_VERTICES is pinned: embeddings._doubling_level caches levels
# without the budget in its key, so it must not vary between runs.
WORKER_ENV = {"PCQI_BUDGET_VERTICES": "5000"}


class BenchError(Exception):
    pass


def tail_percentile(n):
    """Highest whole percentile with at least ten items beyond it.  With
    fewer than 21 items that percentile would not lie above the median, and
    the tail is the slowest item (100) instead."""
    q = 100 * (n - 10) // n if n else 0
    return q if q > 50 else 100


def percentile(sorted_values, q):
    """Nearest-rank percentile."""
    rank = max(1, -(-q * len(sorted_values) // 100))
    return sorted_values[rank - 1]


def run_worker(job, timeout):
    env = dict(os.environ, **WORKER_ENV, PYTHONHASHSEED=str(job["seed"] % 2**32))
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(job)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"run exceeded {RUN_LIMIT_S} s")
    if proc.returncode != 0:
        last = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        raise BenchError(f"worker exited {proc.returncode}: {last}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["ready"] - started
    out["elapsed"] = time.monotonic() - started
    return out


def end_to_end(batches):
    """Median over batches of each end-to-end metric, and the percentile
    used for the tail."""
    n = len(batches[0]["latencies"])
    q = tail_percentile(n)
    per_batch = {"wall_s": [], "cpu_s": [], "setup_s": [], "peak_rss_mb": [],
                 "item_p50_ms": [], "item_tail_ms": []}
    for b in batches:
        lat = sorted(b["latencies"])
        for key in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb"):
            per_batch[key].append(b[key])
        per_batch["item_p50_ms"].append(percentile(lat, 50) * 1000)
        per_batch["item_tail_ms"].append(percentile(lat, q) * 1000)
    units = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
             "item_p50_ms": "ms", "item_tail_ms": "ms"}
    metrics = {k: {"value": statistics.median(v), "unit": units[k]}
               for k, v in per_batch.items()}
    return metrics, q, n


def per_layer(traced, untraced):
    metrics = {}
    for name in traced[0]["trace"]["metrics"]:
        unit = traced[0]["trace"]["metrics"][name][1]
        value = statistics.median(b["trace"]["metrics"][name][0] for b in traced)
        metrics[name] = {"value": value, "unit": unit}
    metrics["trace_overhead_ratio"] = {
        "value": statistics.median(b["wall_s"] for b in traced)
        / statistics.median(b["wall_s"] for b in untraced),
        "unit": "ratio"}
    return metrics


def meta():
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "commit": commit}


def measure(args):
    job = {"workload": args.workload, "seed": args.seed,
           "corrupt": args.corrupt_check}
    untraced, traced = [], []
    t0 = time.monotonic()
    longest = 0.0
    while True:
        start = time.monotonic()
        batch = dict(job, batch=len(untraced))
        untraced.append(run_worker(dict(batch, trace=False),
                                   RUN_LIMIT_S - (time.monotonic() - t0)))
        if args.trace:
            traced.append(run_worker(dict(batch, trace=True),
                                     RUN_LIMIT_S - (time.monotonic() - t0)))
        longest = max(longest, time.monotonic() - start)
        if time.monotonic() - t0 + longest > args.seconds:
            break
    return untraced, traced


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt-check", action="store_true",
                    help="make one expected value wrong, for the benchmark's "
                         "own tests")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(ROOT, "src", "pcqi", "words.py")):
        print(f"bench: no pcqi sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        untraced, traced = measure(args)
    except BenchError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2

    batches = untraced + traced
    failures = [f for b in batches for f in b["failures"]]
    attempted = sum(b["attempted"] for b in batches)
    e2e, q, n = end_to_end(untraced)
    info = dict(meta(), workload=args.workload, seed=args.seed,
                batches=len(untraced), traced_batches=len(traced),
                items_per_batch=n, tail_percentile=q)
    print("# meta " + json.dumps(info))
    for f in failures[:20]:
        print(f"# failed: {f}")
    if args.trace:
        metrics = per_layer(traced, untraced)
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        path = os.path.join(HERE, "out", f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as f:
            json.dump({**info, **traced[0]["trace"], "metrics": metrics}, f)
    else:
        metrics = e2e
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
