"""One measurement of one workload in a fresh interpreter.

Usage (from the repository root, with ``PYTHONPATH=src``)::

    python3 perfbench/child.py <workload> <seed> <trace 0|1> <spawned_at>

``spawned_at`` is the parent's ``time.monotonic()`` just before it
started this interpreter (CLOCK_MONOTONIC is shared by every process on
the host), so ``setup_s`` covers interpreter start, importing
``repro``, topology construction, RNG forks and generator start-up, up
to the first dispatched kernel event.  Prints one JSON object.

Untraced, the simulation runs in segments of ``probe.SEGMENT_S``
simulated seconds with the host-speed probe timed between them;
``sim_s`` is the wall time of the segments alone and ``probe_s`` the
probe's median.  Splitting ``Simulator.run(until)`` at segment ends
changes no simulated output, which the untraced/traced comparison in
``run.py`` checks on every traced run.

With trace 1 the workload runs under ``cProfile``; the profile is
folded by package directory of ``src/repro`` into per-layer self time,
and the caller edges out of ``Simulator.run`` give exact per-layer
dispatch counts.  Nothing in ``src/`` is changed: the only hook is a
wrapper around ``Simulator.run`` installed from this file.
"""

import json
import math
import os
import resource
import statistics
import sys
import time

import probe
import workloads

#: the kernel's own helper called from ``Simulator.run``; builtins
#: (``heappop``, ``max``) are skipped too.  A builtin used as a callback
#: would be skipped as well, which the caller's check that the layer
#: counts sum to ``executed_events`` turns into a loud failure.
KERNEL_HELPER = "_activate"
GENERATOR_RESUMES = ("<method 'send' of 'generator' objects>",
                     "<method 'throw' of 'generator' objects>")


class LayerAccountingError(RuntimeError):
    """A dispatched callback or a counted function is not where the
    accounting expects it."""


def main(argv):
    name, seed, trace, spawned_at = argv
    trace = trace == "1"
    run_workload = workloads.WORKLOADS[name]

    from repro.sim import kernel

    marks = {"sim_s": 0.0}
    probes = []
    original_run = kernel.Simulator.run

    def timed_run(sim, until=None, **kwargs):
        marks.setdefault("first_event", time.monotonic())
        if trace or until is None:
            segments = [until]
        else:
            count = max(1, math.ceil((until - sim.now) / probe.SEGMENT_S))
            segments = [min(until, sim.now + probe.SEGMENT_S * (i + 1))
                        for i in range(count)]
        for index, segment_end in enumerate(segments):
            if index:
                probes.append(probe.probe())
            start = time.monotonic()
            original_run(sim, segment_end, **kwargs)
            marks["sim_s"] += time.monotonic() - start

    kernel.Simulator.run = timed_run
    clock = {}
    profiler = None
    if trace:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    outputs = run_workload(int(seed), clock)
    if profiler is not None:
        profiler.disable()
    done = time.monotonic()
    if "first_event" not in marks:
        raise RuntimeError("the workload never entered Simulator.run")

    result = {
        "workload": name,
        "seed": int(seed),
        "outputs": outputs,
        "setup_s": marks["first_event"] - float(spawned_at),
        "build_s": marks["first_event"] - clock["build"],
        "sim_s": marks["sim_s"],
        "probe_s": statistics.median(probes) if probes else None,
        "analysis_s": clock["analysis_s"],
        "workload_s": done - clock["build"] - sum(probes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if profiler is not None:
        import repro

        result["profile"] = fold_profile(
            profiler, os.path.dirname(repro.__file__) + os.sep,
            kernel.__file__,
        )
    print(json.dumps(result))


def fold_profile(profiler, package_root, kernel_file):
    """Per-layer self time, dispatch counts and the counted edges.

    A layer is a top-level entry of ``src/repro`` (``sim``, ``cpu``,
    ``net``, ...).  Self time of code outside the package (builtins,
    the standard library, NumPy) is charged to the layer of its direct
    caller, or to ``other`` when that caller is outside too.
    """
    import pstats

    stats = pstats.Stats(profiler).stats

    def layer_of(func):
        filename = func[0]
        if not filename.startswith(package_root):
            return None
        head = filename[len(package_root):].split(os.sep)[0]
        return head[:-3] if head.endswith(".py") else head

    def find(module, funcname):
        path = os.path.join(package_root, *module.split("/"))
        found = [f for f in stats if f[0] == path and f[2] == funcname]
        if len(found) != 1:
            raise LayerAccountingError(
                f"expected one {module}:{funcname} in the profile, "
                f"found {len(found)}"
            )
        return found[0]

    self_s = {}
    dispatch = {}
    run_key = next(
        (f for f in stats if f[0] == kernel_file and f[2] == "run"), None
    )
    if run_key is None:
        raise LayerAccountingError("Simulator.run is not in the profile")
    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        layer = layer_of(func)
        if layer is not None:
            self_s[layer] = self_s.get(layer, 0.0) + tt
        else:
            for caller, edge in callers.items():
                owner = layer_of(caller) or "other"
                self_s[owner] = self_s.get(owner, 0.0) + edge[2]
        edge = callers.get(run_key)
        if edge is None or func[0] == "~" or func[2] == KERNEL_HELPER:
            continue
        if layer is None:
            raise LayerAccountingError(
                f"dispatched callback {func} maps to no layer of "
                f"{package_root}"
            )
        dispatch[layer] = dispatch.get(layer, 0) + edge[0]

    timer = find("cpu/host.py", "_on_completion_timer")
    update = find("cpu/host.py", "_update")
    live_timers = stats[update][4].get(timer, (0,))[0]
    completion_timers = stats[timer][1]
    # servlet continuations are advanced only by the servers' drivers,
    # so their generator send/throw calls are the servlet steps
    servlet_steps = sum(
        edge[0]
        for func, entry in stats.items()
        if func[0] == "~" and func[2] in GENERATOR_RESUMES
        for caller, edge in entry[4].items()
        if layer_of(caller) == "servers"
    )
    return {
        "self_s": self_s,
        "dispatch": dispatch,
        "completion_timers": completion_timers,
        "stale_timers": completion_timers - live_timers,
        "servlet_steps": servlet_steps,
    }


if __name__ == "__main__":
    main(sys.argv[1:])
