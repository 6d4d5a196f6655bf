"""The benchmark's three workloads, driven through repro's public API.

Each workload builds one system from a seed, runs it for a fixed
simulated length and returns its simulated outputs.  The shapes are
chosen so that every layer of ``src/repro`` carries load on at least
one workload and is bypassed on another (see ``perfbench/README.md``):

``rpc_ctqo``
    the paper's Fig 1/3 system: all tiers synchronous (thread-per-request
    drivers), 7000 closed-loop clients, periodic VM consolidation on the
    app tier, exact request log.  Drops, RTO retransmissions and
    multi-VM CPU water-filling carry load only here.
``async_stream``
    the same tiers with the event-loop drivers (``nx=3``), an
    array-backed Poisson open loop, the streaming sketch log, one VM per
    host and no injector: zero drops and retransmissions by design.
``graph_mix``
    a service graph built here: a synchronous root gathering with
    quorum N-1 over N-1 leaves plus one cache-aside leg (single-flight
    cache node over a write-back storage node), with a periodic stall
    of the storage VM.  The only workload on the ``build_graph`` path,
    the only one running ``Gather`` and the five cache/storage servlet
    instructions.

Only the ``run_*`` functions import ``repro``, so importing this module
is cheap and the import cost is part of each child's measured set-up.
"""

import time

#: the seed whose exact simulated outputs are pinned in ``spec.json``
DEFAULT_SEED = 42

RPC_CLIENTS = 7000
RPC_DURATION = 20.0
#: fig01's consolidation period: a 3/6/9 s VLRT ladder inside 20 s
RPC_CONSOLIDATION_PERIOD = 7.0

ASYNC_RATE = 1000.0
ASYNC_DURATION = 20.0

GRAPH_FANOUT = 8
GRAPH_RATE = 700.0
GRAPH_DURATION = 10.0
#: storage stall: long enough to overflow the storage node's accept
#: queue at the cache's miss rate, so drops and retransmissions run
GRAPH_STALL_PERIOD = 2.0
GRAPH_STALL_DURATION = 0.4
GRAPH_CACHE_POOL = 48


def run_rpc_ctqo(seed, clock):
    from repro.core import Scenario
    from repro.topology import SystemConfig

    scenario = Scenario(
        SystemConfig(nx=0, seed=seed), clients=RPC_CLIENTS,
        duration=RPC_DURATION, warmup=0.0,
    ).with_consolidation("app", period=RPC_CONSOLIDATION_PERIOD)
    clock["build"] = time.monotonic()
    result = scenario.run()
    return _outputs(result, clock)


def run_async_stream(seed, clock):
    from repro.core import Scenario
    from repro.topology import SystemConfig

    scenario = Scenario(
        SystemConfig(nx=3, seed=seed, streaming=True),
        duration=ASYNC_DURATION, warmup=0.0,
    ).with_open_loop(ASYNC_RATE)
    clock["build"] = time.monotonic()
    result = scenario.run()
    return _outputs(result, clock)


def graph_mix_graph():
    """Root -> (N-1 leaves + cache -> storage), quorum N-1 at the root."""
    from repro.servers.policies import RemediationSpec
    from repro.topology import EdgeSpec, NodeSpec, ServiceGraph
    from repro.units import ms

    leaves = [
        NodeSpec(f"leaf{i}", pre_work=ms(0.5), threads=64, backlog=64)
        for i in range(GRAPH_FANOUT - 1)
    ]
    root = NodeSpec("root", pre_work=ms(0.1), post_work=ms(0.2),
                    threads=400, quorum=GRAPH_FANOUT - 1)
    # a cache fetch that outlives the deadline fails into CacheAbort,
    # so all five cache/storage instructions run
    cache = NodeSpec(
        "cache", kind="cache", cache_capacity=128, keyspace=1000,
        coalesce=True, pre_work=ms(0.05), threads=200,
        remediation=RemediationSpec("retry", timeout=0.25, retries=0,
                                    breaker_threshold=None),
    )
    storage = NodeSpec(
        "storage", kind="storage", storage_service_time=ms(1.0),
        write_buffer=8, write_fraction=0.3, pre_work=ms(0.2),
        threads=32, backlog=32,
    )
    nodes = [root, *leaves, cache, storage]
    edges = [EdgeSpec("root", node.name) for node in leaves]
    # a pooled cache leg queues during the stall, so the quorum also
    # withdraws queued legs instead of only wasting sent ones
    edges += [EdgeSpec("root", "cache", pool=GRAPH_CACHE_POOL),
              EdgeSpec("cache", "storage")]
    return ServiceGraph(nodes, edges)


def run_graph_mix(seed, clock):
    from repro.core import GraphRunResult
    from repro.injectors import LogFlushInjector
    from repro.topology import build_graph

    graph = graph_mix_graph()
    clock["build"] = time.monotonic()
    system = build_graph(graph, seed=seed)
    monitor = system.attach_monitor()
    system.open_loop(GRAPH_RATE)
    stall = LogFlushInjector(
        system.sim, system.vm("storage"), period=GRAPH_STALL_PERIOD,
        duration=GRAPH_STALL_DURATION,
    ).start()
    system.sim.run(until=GRAPH_DURATION)
    result = GraphRunResult(system, system.log, monitor, GRAPH_DURATION,
                            0.0, injectors=[stall])
    return _outputs(result, clock)


WORKLOADS = {
    "rpc_ctqo": run_rpc_ctqo,
    "async_stream": run_async_stream,
    "graph_mix": run_graph_mix,
}


def _outputs(result, clock):
    """Post-run analysis (timed into ``clock``) and the simulated
    outputs every run checks."""
    start = time.monotonic()
    summary = result.summary()
    result.attribution()
    clock["analysis_s"] = time.monotonic() - start

    system = result.system
    fabric = system.fabric
    gathers = {"legs": 0, "legs_cancelled": 0, "legs_wasted": 0,
               "leg_failures": 0}
    for _name, server in system.server_items():
        stats = getattr(server, "gather_stats", None)
        if stats is not None:
            for key in gathers:
                gathers[key] += stats[key]
    caches = list(getattr(system, "caches", {}).values())
    storages = list(getattr(system, "storages", {}).values())
    return {
        "requests": len(result.log),
        "completed": summary["completed"],
        "failed": summary["failed"],
        "vlrt": summary["vlrt"],
        "dropped_packets": summary["dropped_packets"],
        "fabric_drops": fabric.packets_dropped,
        "retransmits": fabric.packets_dropped - fabric.requests_timed_out,
        "p50_ms": summary["p50_ms"],
        "p99_ms": summary["p99_ms"],
        "events": system.sim.executed_events,
        "gather_legs": gathers["legs"],
        "gather_cancelled": gathers["legs_cancelled"],
        "gather_wasted": gathers["legs_wasted"],
        "gather_failures": gathers["leg_failures"],
        "cache_hits": sum(c.stats.hits for c in caches),
        "cache_misses": sum(c.stats.misses for c in caches),
        "storage_writes": sum(s.stats.writes for s in storages),
        "storage_stalls": sum(s.stats.write_stalls for s in storages),
    }
