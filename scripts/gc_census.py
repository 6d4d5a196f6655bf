#!/usr/bin/env python
"""Cyclic-garbage-collector census of one benchmark workload.

Runs a workload of ``perfbench/workloads.py`` in this process with a
``gc.callbacks`` hook and prints one JSON line: collections per
generation, seconds spent inside collections, objects the collector
freed, requests simulated and peak RSS.  A request lifecycle that frees
its objects by reference count shows up as few collections and almost
nothing collected (docs/PERF.md, "Memory and the garbage collector").

Usage::

    python scripts/gc_census.py --workload graph_mix [--seed 1]
"""

import argparse
import gc
import json
import os
import resource
import sys
import time

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_REPO_ROOT, "src"))
sys.path.insert(0, os.path.join(_REPO_ROOT, "perfbench"))


def census(workload, seed):
    import workloads

    run = workloads.WORKLOADS[workload]
    collections = [0, 0, 0]
    totals = {"gc_s": 0.0, "collected": 0}
    started = {}

    def hook(phase, info):
        if phase == "start":
            started["t"] = time.perf_counter()
            return
        collections[info["generation"]] += 1
        totals["gc_s"] += time.perf_counter() - started["t"]
        totals["collected"] += info["collected"]

    gc.collect()
    gc.callbacks.append(hook)
    try:
        outputs = run(seed, {})
    finally:
        gc.callbacks.remove(hook)
    return {
        "workload": workload,
        "seed": seed,
        "requests": outputs["requests"],
        "collections": collections,
        "gc_s": round(totals["gc_s"], 4),
        "collected": totals["collected"],
        "peak_rss_mb": round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("rpc_ctqo", "async_stream", "graph_mix"))
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    print(json.dumps(census(args.workload, args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
