"""Run one cold batch of one workload and print its measurements as JSON.

Started by ``run.py`` as a fresh interpreter, so every lru_cache in pcqi
starts empty, as it does for each ``pcqi`` CLI call.  The argument is a JSON
job: {"workload", "seed", "batch", "trace", "corrupt"}.
"""

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(job):
    sys.path[:0] = [SRC, HERE]
    from pcqi import words
    if not os.path.abspath(words.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"pcqi imported from {words.__file__}, not from {SRC}")
    import workloads
    from tracer import Tracer

    wl = workloads.WORKLOADS[job["workload"]](job["seed"], job["batch"])
    if job["corrupt"]:
        wl.corrupt()
    ready = time.monotonic()

    tracer = Tracer() if job["trace"] else None
    if tracer:
        tracer.install()
    latencies, failures = [], []
    cpu0, t0 = time.process_time(), time.perf_counter()
    items = wl.items()
    while True:
        try:
            item_id, fn = next(items)
        except StopIteration:
            break
        except Exception as e:      # a workload bug ends the batch as failed
            failures.append(f"workload: {e!r}")
            break
        if tracer:
            tracer.begin_item(item_id)
        start = time.perf_counter()
        try:
            ok = fn()
        except Exception as e:      # a pcqi error is a failed item
            ok, item_id = False, f"{item_id}: {e!r}"
        latencies.append(time.perf_counter() - start)
        if tracer:
            tracer.end_item()
        if not ok:
            failures.append(item_id)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    failures += wl.problems
    return {
        "ready": ready,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(latencies) + wl.checks,
        "latencies": latencies,
        "failures": failures,
        "trace": tracer.report() if tracer else None,
    }


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
