"""The repository benchmark: host cost of simulating three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload rpc_ctqo --seed 1 --seconds 30 --trace 0

Every measurement runs in a fresh interpreter (``perfbench/child.py``),
one at a time and single-threaded, so ``setup_s`` and ``peak_rss_mb``
belong to one run and the numbers measure the simulator, not the
scheduler.  A run first simulates the workload at its default seed and
compares the outputs with the pins in ``perfbench/spec.json``, then
measures the workload at ``--seed`` until ``--seconds`` have passed,
requiring every repeat to produce identical simulated outputs.

``--trace 0`` reports the end-to-end metrics (medians over the
repeats), host times in seconds of a reference host (``probe.py``).  ``--trace 1`` alternates untraced and ``cProfile``-traced
repeats of the same seed, requires both to produce identical outputs,
and reports the per-layer metrics.  The last line of standard output is
one JSON object; the exit code is 0 only when every check passed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import probe
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(HERE, "spec.json")
CHILD = os.path.join(HERE, "child.py")

#: measured repeats per run when ``--seconds`` is too short for more
MIN_REPEATS = 3
MIN_TRACED_PAIRS = 1
#: a run, children included, must end within this many seconds
RUN_LIMIT_S = 170
#: native thread pools pinned to one thread: a 2-core box must not
#: run a BLAS pool beside the simulator
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END_UNITS = {
    "req_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "events_per_req": "count",
}
#: layers whose callbacks the kernel dispatches on some workload
DISPATCH_LAYERS = ("sim", "cpu", "net", "workload", "injectors")
#: ``other`` is self time outside ``src/repro`` whose caller is too
SELF_TIME_LAYERS = ("sim", "cpu", "net", "servers", "apps", "workload",
                    "metrics", "topology", "injectors", "core", "other")
PER_LAYER_UNITS = {
    **{f"{layer}.dispatch_per_req": "count" for layer in DISPATCH_LAYERS},
    **{f"{layer}.self_s": "s" for layer in SELF_TIME_LAYERS},
    "cpu.stale_timer_ratio": "ratio",
    "net.drops_per_kreq": "1/kreq",
    "net.retransmits_per_kreq": "1/kreq",
    "servers.steps_per_req": "count",
    "servers.gather_useful_ratio": "ratio",
    "servers.cache_hit_ratio": "ratio",
    "servers.storage_stall_ratio": "ratio",
    "metrics.analysis_s": "s",
    "topology.build_s": "s",
    "trace.overhead_x": "x",
}


class CheckFailed(Exception):
    """A child failed, or its simulated outputs are wrong."""


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = "src"
    for name in THREAD_VARS:
        env[name] = "1"
    return env


def measure(workload, seed, trace, tally):
    """Run one child; returns its parsed JSON report."""
    tally["attempted"] += 1
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, workload, str(seed), "1" if trace else "0",
             repr(spawned_at)],
            capture_output=True, text=True, env=child_env(),
            timeout=max(1.0, tally["started"] + RUN_LIMIT_S - spawned_at),
        )
    except subprocess.TimeoutExpired:
        raise CheckFailed(f"{workload} seed {seed}: child timed out") from None
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
        raise CheckFailed(
            f"{workload} seed {seed} trace {int(trace)}: child exited "
            f"{proc.returncode}: {tail[0]}"
        )
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = invariant_problems(workload, report["outputs"])
    if trace:
        dispatched = sum(report["profile"]["dispatch"].values())
        if dispatched != report["outputs"]["events"]:
            problems.append(
                f"layer dispatch counts sum to {dispatched}, kernel "
                f"executed {report['outputs']['events']}"
            )
    if problems:
        raise CheckFailed(f"{workload} seed {seed}: " + "; ".join(problems))
    return report


def invariant_problems(workload, out):
    """Checks that hold on every seed."""
    problems = []

    def need(condition, what):
        if not condition:
            problems.append(what)

    need(out["requests"] > 0 and out["events"] > 0, "no simulated work")
    need(out["completed"] + out["failed"] == out["requests"],
         "completed + failed != requests")
    need(out["vlrt"] <= out["requests"], "more VLRT than requests")
    need(out["dropped_packets"] == out["fabric_drops"],
         "listener drops disagree with fabric drops")
    need(0.0 < out["p50_ms"] <= out["p99_ms"], "p50 <= p99 violated")
    need(out["gather_cancelled"] + out["gather_wasted"]
         + out["gather_failures"] <= out["gather_legs"],
         "more unused gather legs than legs")
    need(out["storage_stalls"] <= out["storage_writes"],
         "more write stalls than writes")
    if workload == "rpc_ctqo":
        need(out["dropped_packets"] > 0 and out["vlrt"] > 0,
             "consolidation produced no CTQO drops or VLRT requests")
    elif workload == "async_stream":
        need(out["dropped_packets"] == 0 and out["vlrt"] == 0,
             "the async stack dropped packets without an injector")
    elif workload == "graph_mix":
        need(out["gather_legs"] > 0
             and out["gather_legs"] % workloads.GRAPH_FANOUT == 0,
             "gather legs are not a multiple of the fan-out")
        need(out["cache_hits"] > 0 and out["cache_misses"] > 0,
             "the cache leg saw no hits or no misses")
        need(out["gather_wasted"] + out["gather_cancelled"] > 0,
             "the quorum never left a leg unused")
    return problems


def check_pinned(workload, pinned, tally):
    report = measure(workload, workloads.DEFAULT_SEED, False, tally)
    got = report["outputs"]
    wrong = sorted(k for k in set(pinned) | set(got)
                   if pinned.get(k) != got.get(k))
    if wrong:
        detail = ", ".join(f"{k}: {got.get(k)!r} != {pinned.get(k)!r}"
                           for k in wrong)
        raise CheckFailed(
            f"{workload} seed {workloads.DEFAULT_SEED} outputs differ "
            f"from spec.json: {detail}"
        )


def same_outputs(reports, what):
    first = reports[0]["outputs"]
    for report in reports[1:]:
        if report["outputs"] != first:
            raise CheckFailed(f"{what} produced different simulated outputs")


def end_to_end(reports):
    """Medians over the repeats; host times are converted to seconds
    of the reference host by each child's probe (see probe.py)."""
    out = reports[0]["outputs"]

    def speed(report):
        return ((report["probe_s"] / probe.REFERENCE_PROBE_S)
                ** probe.SENSITIVITY)

    return {
        "req_per_s": statistics.median(
            out["requests"] / r["sim_s"] * speed(r) for r in reports),
        "setup_s": statistics.median(
            r["setup_s"] / speed(r) for r in reports),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
        "events_per_req": out["events"] / out["requests"],
        "raw_req_per_s": statistics.median(
            out["requests"] / r["sim_s"] for r in reports),
        "raw_setup_s": statistics.median(r["setup_s"] for r in reports),
        "host_slowdown": statistics.median(
            r["probe_s"] / probe.REFERENCE_PROBE_S for r in reports),
    }


def per_layer(pairs):
    plain = [p[0] for p in pairs]
    traced = [p[1] for p in pairs]
    out = traced[0]["outputs"]
    requests = out["requests"]

    def ratio(part, whole):
        # 0 marks a mechanism the workload does not exercise
        return part / whole if whole else 0.0

    def median_of(get):
        return statistics.median(get(r) for r in traced)

    profile = traced[0]["profile"]
    metrics = {
        f"{layer}.dispatch_per_req":
            profile["dispatch"].get(layer, 0) / requests
        for layer in DISPATCH_LAYERS
    }
    for layer in SELF_TIME_LAYERS:
        metrics[f"{layer}.self_s"] = median_of(
            lambda r: r["profile"]["self_s"].get(layer, 0.0))
    used_legs = (out["gather_legs"] - out["gather_cancelled"]
                 - out["gather_wasted"] - out["gather_failures"])
    metrics.update({
        "cpu.stale_timer_ratio": ratio(profile["stale_timers"],
                                       profile["completion_timers"]),
        "net.drops_per_kreq": 1000.0 * out["dropped_packets"] / requests,
        "net.retransmits_per_kreq": 1000.0 * out["retransmits"] / requests,
        "servers.steps_per_req": profile["servlet_steps"] / requests,
        "servers.gather_useful_ratio": ratio(used_legs, out["gather_legs"]),
        "servers.cache_hit_ratio": ratio(
            out["cache_hits"], out["cache_hits"] + out["cache_misses"]),
        "servers.storage_stall_ratio": ratio(out["storage_stalls"],
                                             out["storage_writes"]),
        "metrics.analysis_s": statistics.median(
            r["analysis_s"] for r in plain),
        "topology.build_s": statistics.median(r["build_s"] for r in plain),
        "trace.overhead_x": statistics.median(
            t["workload_s"] / p["workload_s"] for p, t in pairs),
    })
    return metrics


def run(workload, seed, seconds, trace, pinned, tally):
    """Returns the metrics; raises CheckFailed."""
    check_pinned(workload, pinned, tally)
    deadline = time.monotonic() + seconds
    if not trace:
        reports = []
        while len(reports) < MIN_REPEATS or time.monotonic() < deadline:
            reports.append(measure(workload, seed, False, tally))
            same_outputs(reports, f"{workload} seed {seed} repeats")
        return end_to_end(reports)
    pairs = []
    while len(pairs) < MIN_TRACED_PAIRS or time.monotonic() < deadline:
        pairs.append((measure(workload, seed, False, tally),
                      measure(workload, seed, True, tally)))
        same_outputs([r for pair in pairs for r in pair],
                     f"{workload} seed {seed} traced and untraced repeats")
        counts = [{k: v for k, v in r["profile"].items() if k != "self_s"}
                  for _p, r in pairs]
        if any(c != counts[0] for c in counts):
            raise CheckFailed("per-layer counts differ across repeats")
    return per_layer(pairs)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        sys.exit("perfbench: run from the repository root (src/repro "
                 "not found)")
    with open(SPEC) as fh:
        pinned = json.load(fh)["workloads"][args.workload]["pinned"]

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    tally = {"attempted": 0, "started": time.monotonic()}
    try:
        values = run(args.workload, args.seed, args.seconds,
                     bool(args.trace), pinned, tally)
    except CheckFailed as exc:
        print(f"output check: FAIL ({exc})")
        print(json.dumps({"correct": False, "attempted": tally["attempted"],
                          "failed": 1, "metrics": {}}))
        return 1
    for name, unit in units.items():
        print(f"{name:32s} {values[name]:14.6g} {unit}")
    if not args.trace:
        print(f"unnormalised: {values['raw_req_per_s']:.6g} req/s, set-up "
              f"{values['raw_setup_s']:.6g} s; host ran "
              f"{values['host_slowdown']:.3f}x the reference probe time")
    print(f"output check: pass ({tally['attempted']} runs of "
          f"{args.workload})")
    print(json.dumps({
        "correct": True,
        "attempted": tally["attempted"],
        "failed": 0,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
