"""Finished requests are freed by reference counting.

A request's objects (its ``Process`` and generator, its ``Request``
tree) must form no reference cycle once the request ends, so memory and
collector time follow live state rather than the number of requests
served.  Each check runs a system with the cyclic collector paused and
``DEBUG_SAVEALL`` on, keeps the system alive, and counts what a
collection then finds unreachable: a run twice as long must leave the
same count.
"""

import gc
from collections import Counter

import pytest

from repro.core import Scenario
from repro.topology import NodeSpec, SystemConfig, build_graph, fan_out
from repro.units import ms

#: the per-request object types that used to be freed only by the GC
WATCHED = ("Process", "generator", "Request")


def cyclic_garbage(run):
    """Run ``run()`` with the collector paused; return the watched
    garbage counts and the number of requests served."""
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        keep = run()  # the live system stays referenced while collecting
        gc.collect()
        counts = Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    return {name: counts[name] for name in WATCHED}, len(keep.log)


def thread_driver(duration):
    return Scenario(SystemConfig(nx=0, seed=3), clients=700,
                    duration=duration, warmup=0.0).run()


def event_loop(duration):
    return Scenario(SystemConfig(nx=3, seed=3), duration=duration,
                    warmup=0.0).with_open_loop(300.0).run()


def quorum_gather(duration):
    leaves = [NodeSpec(f"leaf{i}", pre_work=ms(0.5)) for i in range(3)]
    root = NodeSpec("root", pre_work=ms(0.1), quorum=2)
    system = build_graph(fan_out(root, leaves), seed=3)
    system.open_loop(300.0)
    system.sim.run(until=duration)
    return system


@pytest.mark.parametrize("build", [thread_driver, event_loop, quorum_gather])
def test_no_cyclic_garbage_per_request(build):
    garbage_1s, served_1s = cyclic_garbage(lambda: build(1.0))
    garbage_2s, served_2s = cyclic_garbage(lambda: build(2.0))
    assert served_2s > served_1s + 50
    assert garbage_2s == garbage_1s
