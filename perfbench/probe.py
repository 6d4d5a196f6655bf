"""Host-speed probe: a fixed, tiny pure-Python event loop.

A shared 2-core host drifts in speed by ±20 % over tens of seconds
(other tenants' load), more than the regressions the benchmark must
resolve, and a 30 s run cannot average that drift away.  The child
therefore pauses the simulation every ``SEGMENT_S`` simulated seconds
and times this probe; the probe's median time says how fast the host
ran *while the simulation ran*.

The probe reacts more strongly to the drift than the simulator does
(its working set stays in the private caches, the simulator's does
not): over series of 70-140 runs of ``rpc_ctqo`` and ``async_stream``
on the reference host, log simulation speed fell 0.51-0.54 per unit of
log probe time, with correlation 0.87-0.93.  Host seconds are therefore
scaled by ``(probe_s / REFERENCE_PROBE_S) ** SENSITIVITY``; that cut
the spread of 8-run medians from 0.13-0.23 to 0.04-0.06.

The probe shares no code with ``src/repro``, so a change to the
simulator cannot move it: it is an M/M/4 queue (heap of timers,
generator servers, slotted jobs, dict and deque bookkeeping) run for a
fixed number of arrivals with the garbage collector paused, so the
simulator's heap never makes it slower.
"""

import gc
import heapq
import random
import time
from collections import deque

#: simulated seconds between probes
SEGMENT_S = 0.5
#: arrivals per probe (about 3.5 ms on the reference host)
PROBE_ARRIVALS = 1500
#: the probe's median time on the reference host, a 2-vCPU 2.1 GHz
#: Xeon (Sapphire Rapids) KVM guest with Python 3.11.7, in a quiet period
REFERENCE_PROBE_S = 0.0035
#: measured slope of log simulation speed on log probe time (above)
SENSITIVITY = 0.55


class _Job:
    __slots__ = ("id", "arrived")

    def __init__(self, job_id, arrived):
        self.id = job_id
        self.arrived = arrived


def _server(rng, stats):
    """Takes a job, yields its service time, receives the completion
    time, and waits for the next job."""
    while True:
        job = yield None
        now = yield rng.expovariate(1.2)
        stats["served"] += 1
        stats["wait"] += now - job.arrived


def probe():
    """Seconds one fixed run of the probe took."""
    gc.disable()
    try:
        return _probe()
    finally:
        gc.enable()


def _probe():
    rng = random.Random(11)
    stats = {"served": 0, "wait": 0.0}
    idle = []
    for _ in range(4):
        server = _server(rng, stats)
        next(server)
        idle.append(server)
    queue = deque()
    heap = [(rng.expovariate(4.0), 0, None)]
    sequence = 0
    arrivals = 0
    start = time.perf_counter()
    while arrivals < PROBE_ARRIVALS:
        now, _seq, server = heapq.heappop(heap)
        if server is None:
            arrivals += 1
            sequence += 1
            heapq.heappush(heap, (now + rng.expovariate(4.0), sequence, None))
            queue.append(_Job(arrivals, now))
            if not idle:
                continue
            server = idle.pop()
        else:
            server.send(now)
            if not queue:
                idle.append(server)
                continue
        sequence += 1
        hold = server.send(queue.popleft())
        heapq.heappush(heap, (now + hold, sequence, server))
    return time.perf_counter() - start
