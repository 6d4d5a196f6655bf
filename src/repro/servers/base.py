"""Common machinery shared by synchronous and asynchronous servers.

A server owns a listening socket, a VM to burn CPU on, a servlet handler
and wiring to its downstream tiers.  The *servlet driver* below
interprets the application's :class:`~repro.apps.servlet.Compute` /
:class:`~repro.apps.servlet.Call` steps; what differs between server
types is purely *who executes the driver*:

- a :class:`~repro.servers.sync_server.SyncServer` runs it on one of a
  bounded pool of threads, which therefore **block** during downstream
  calls (RPC semantics — the paper's Apache/Tomcat/MySQL), while
- an :class:`~repro.servers.async_server.AsyncServer` runs each request
  as a continuation with no thread held across calls (event-driven
  semantics — Nginx/XTomcat/XMySQL).
"""

from __future__ import annotations

from ..apps.servlet import (
    CacheAbort,
    CacheGet,
    CachePut,
    Call,
    Compute,
    Gather,
    Response,
    ServletContext,
    ServletError,
    StorageRead,
    StorageWrite,
)
from ..net.tcp import ConnectionTimeout
from ..sim.resources import Resource
from .gather import GatherCall
from .replica import ReplicaGroup

__all__ = [
    "BaseServer",
    "ServerStats",
    "unknown_instruction",
]


class ServerStats:
    """Cumulative per-server counters (cheap; sampled by monitors)."""

    __slots__ = (
        "arrivals",
        "completed",
        "failed",
        "downstream_calls",
        "downstream_failures",
        "peak_queue_depth",
        "shed",
        "retries",
        "breaker_fast_fails",
    )

    def __init__(self):
        self.arrivals = 0
        self.completed = 0
        self.failed = 0
        self.downstream_calls = 0
        self.downstream_failures = 0
        self.peak_queue_depth = 0
        #: requests refused with a 503 by a load-shedding admission
        self.shed = 0
        #: downstream attempts re-issued by a retry remediation
        self.retries = 0
        #: downstream calls failed instantly by an open circuit breaker
        self.breaker_fast_fails = 0

    def snapshot(self):
        return {name: getattr(self, name) for name in self.__slots__}


#: the servlet instructions both drivers accept, named in their error
#: for anything else
_INSTRUCTION_NAMES = ", ".join(
    cls.__name__
    for cls in (Compute, Call, Gather, CacheGet, CachePut, CacheAbort,
                StorageRead, StorageWrite)
)


def unknown_instruction(name, step):
    """The ``TypeError`` a driver of server ``name`` raises when a
    servlet yields ``step``, which is no servlet instruction."""
    return TypeError(
        f"{name}: servlet yielded {step!r}, expected one of "
        f"{_INSTRUCTION_NAMES}"
    )


class _RoundRobin:
    """Round-robin selector over one or more replica listeners."""

    __slots__ = ("listeners", "_index")

    def __init__(self, listeners):
        self.listeners = listeners
        self._index = 0

    def next(self):
        listener = self.listeners[self._index]
        self._index = (self._index + 1) % len(self.listeners)
        return listener

    def send(self, fabric, payload):
        """Dispatch ``payload`` to the next replica; returns the
        :class:`~repro.net.tcp.Exchange` (same surface as
        :meth:`repro.servers.replica.ReplicaGroup.send`)."""
        return fabric.send(self.next(), payload)

    def __len__(self):
        return len(self.listeners)

    def __repr__(self):
        names = [listener.name for listener in self.listeners]
        return f"<RoundRobin {names}>"


class BaseServer:
    """Wiring and the servlet driver; see module docstring.

    Parameters
    ----------
    sim, fabric:
        The kernel and the network fabric.
    name:
        Server name (also the listener name — drop attribution uses it).
    vm:
        The :class:`repro.cpu.Vm` this server's work runs on.
    handler:
        Servlet generator function ``fn(ctx, request)``.
    backlog:
        TCP accept-queue size of this server's listener (the kernel
        backlog, 128 on the paper's testbed).
    """

    def __init__(self, sim, fabric, name, vm, handler, backlog=128):
        self.sim = sim
        self.fabric = fabric
        self.name = name
        self.vm = vm
        self.handler = handler
        self.listener = fabric.listener(name, backlog=backlog)
        self.listener.observer = self._note_queue_depth
        self.ctx = ServletContext(name, sim, sim.fork_rng(f"server/{name}"))
        self.downstream = {}
        self.pools = {}
        #: target -> "<this server>-><target>" trace label, precomputed
        #: in connect(): building it per downstream call is pure hot-path
        #: allocation (once per request per hop).
        self.route_labels = {}
        #: target -> (round-robin, pool-or-None, label): one dict lookup
        #: per downstream call instead of three.
        self._routes = {}
        self.stats = ServerStats()
        #: attached :class:`~repro.servers.cache.LruCache`, or ``None``;
        #: required by ``CacheGet``/``CachePut``/``CacheAbort`` steps
        self.cache = None
        #: attached :class:`~repro.servers.storage.WriteBackStore`, or
        #: ``None``; required by ``StorageRead``/``StorageWrite`` steps
        self.storage = None
        #: live-telemetry hook: called with each reply's tier sojourn
        #: (seconds since the caller first sent the packet, so accept
        #: queueing and retransmissions count); ``None`` = off
        self.latency_observer = None
        #: downstream invoker used by the drivers; a remediation policy
        #: (repro.servers.policies) rebinds this to wrap ``_invoke``
        #: with timeouts/retries/circuit breaking
        self._call = self._invoke

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def connect(self, target, listener, pool_size=None):
        """Route :class:`Call` steps naming ``target`` to ``listener``.

        ``listener`` may also be a list of listeners — replicas of the
        downstream tier — which are used round-robin per call, or a
        :class:`~repro.servers.replica.ReplicaGroup` for pluggable
        balancing, per-replica pools and hedging (the group then owns
        all pooling, so ``pool_size`` must be None).

        ``pool_size`` installs a caller-side connection pool (the
        Tomcat→MySQL JDBC pool of 50): at most that many outstanding
        calls to the target; further callers queue *inside this server*,
        which is exactly how MySQL's effective ``MaxSysQDepth`` seen
        from a synchronous Tomcat becomes ~50 in the paper.  With
        replicas the pool covers the whole group.

        Re-wiring an already-connected target is rejected: silently
        overwriting the route would leak the old pool ``Resource``
        (with any waiters still queued on it) and invalidate the
        round-robin state mid-run.
        """
        if target in self._routes:
            raise ValueError(
                f"{self.name} is already connected to {target!r}; "
                "routes are fixed once wired"
            )
        if isinstance(listener, ReplicaGroup):
            if pool_size is not None:
                raise ValueError(
                    f"{self.name}->{target}: a ReplicaGroup manages its "
                    "own per-replica pools; pool_size must be None"
                )
            self.downstream[target] = listener
        elif isinstance(listener, (list, tuple)):
            listeners = list(listener)
            if not listeners:
                raise ValueError(f"{self.name}->{target}: empty replica list")
            self.downstream[target] = _RoundRobin(listeners)
        else:
            self.downstream[target] = _RoundRobin([listener])
        self.route_labels[target] = f"{self.name}->{target}"
        if pool_size is not None:
            self.pools[target] = Resource(
                self.sim, pool_size, name=f"{self.name}->{target}.pool"
            )
        self._routes[target] = (self.downstream[target],
                                self.pools.get(target),
                                self.route_labels[target])
        return self

    # ------------------------------------------------------------------
    # queue depth — the quantity plotted in every figure of the paper
    # ------------------------------------------------------------------
    def queue_depth(self):
        """Requests inside this server plus its TCP accept queue."""
        raise NotImplementedError

    @property
    def max_sys_q_depth(self):
        """The overflow threshold this server type exposes."""
        raise NotImplementedError

    def _note_queue_depth(self):
        depth = self.queue_depth()
        if depth > self.stats.peak_queue_depth:
            self.stats.peak_queue_depth = depth

    # ------------------------------------------------------------------
    # the servlet driver
    # ------------------------------------------------------------------
    def _drive(self, exchange):
        """Generator running one request's servlet to completion.

        Yields kernel events (CPU completions, downstream responses);
        both server types delegate here, differing only in what resource
        is held while the driver runs.
        """
        # locals bound once per request: the loop below resumes for every
        # CPU stage and downstream call of every request on every tier.
        # The dispatch is inline (one generator resume per step); the
        # event-loop driver (EventLoopConcurrency._worker) keeps its own
        # inline copy of the same instruction semantics.
        sim = self.sim
        name = self.name
        request = exchange.payload
        request.record(sim.now, "start", name)
        gen = self.handler(self.ctx, request)
        send = gen.send
        throw = gen.throw
        execute = self.vm.execute
        call = self._call
        to_send = None
        to_throw = None
        while True:
            try:
                if to_throw is not None:
                    step = throw(to_throw)
                    to_throw = None
                else:
                    step = send(to_send)
            except StopIteration as stop:
                request.record(sim.now, "reply", name)
                exchange.reply(Response.success(stop.value))
                self.stats.completed += 1
                observer = self.latency_observer
                if observer is not None:
                    observer(sim.now - exchange.first_sent_at)
                return
            except ServletError as exc:
                request.record(sim.now, "error", f"{name}: {exc}")
                exchange.reply(Response.failure(str(exc)))
                self.stats.failed += 1
                observer = self.latency_observer
                if observer is not None:
                    observer(sim.now - exchange.first_sent_at)
                return
            cls = step.__class__
            if cls is Compute:
                to_send = None
                yield execute(step.work)
            elif cls is Call:
                to_send = None
                try:
                    to_send = yield from call(step, request)
                except ServletError as exc:
                    to_throw = exc
            elif isinstance(step, Compute):
                to_send = None
                yield execute(step.work)
            elif isinstance(step, Call):
                to_send = None
                try:
                    to_send = yield from call(step, request)
                except ServletError as exc:
                    to_throw = exc
            elif isinstance(step, Gather):
                to_send = None
                try:
                    to_send = yield from self._gather(step, request)
                except ServletError as exc:
                    to_throw = exc
            elif isinstance(step, CacheGet):
                to_send = None
                try:
                    outcome, wait = self._cache_lookup(step, request)
                    if wait is not None:
                        # coalesced follower: park on the leader's event
                        to_send = yield wait
                    else:
                        to_send = outcome
                except ServletError as exc:
                    to_throw = exc
            elif isinstance(step, CachePut):
                to_send = None
                try:
                    self._require_cache().put(step.key, step.value, step.ttl)
                except ServletError as exc:
                    to_throw = exc
            elif isinstance(step, CacheAbort):
                to_send = None
                try:
                    self._require_cache().abort(step.key)
                except ServletError as exc:
                    to_throw = exc
            elif isinstance(step, StorageRead):
                to_send = None
                try:
                    to_send = yield self._require_storage().read(step.size)
                except ServletError as exc:
                    to_throw = exc
            elif isinstance(step, StorageWrite):
                to_send = None
                try:
                    to_send = yield self._require_storage().write(step.size)
                except ServletError as exc:
                    to_throw = exc
            else:
                raise unknown_instruction(name, step)

    # ------------------------------------------------------------------
    # cache / storage steps (shared by both drivers)
    # ------------------------------------------------------------------
    def _require_cache(self):
        cache = self.cache
        if cache is None:
            raise ServletError(f"{self.name} has no cache attached")
        return cache

    def _require_storage(self):
        storage = self.storage
        if storage is None:
            raise ServletError(f"{self.name} has no storage attached")
        return storage

    def _cache_lookup(self, step, request):
        """Resolve a :class:`CacheGet` without blocking.

        Returns ``(resume_value, wait_event)``: exactly one side is
        set.  A hit, a plain miss, or a single-flight *leader* miss
        resumes immediately with its ``(hit, value)`` pair; a
        single-flight *follower* gets the leader's event to park on
        (whose value is the pair the follower resumes with).
        """
        cache = self._require_cache()
        route = step.route if step.route is not None else request.operation
        hit, value = cache.get(step.key, route)
        if hit or not step.coalesce:
            return (hit, value), None
        event = cache.lead_or_follow(step.key)
        if event is None:
            return (False, None), None  # leader: go fetch, then put/abort
        return None, event

    def _gather(self, step, request):
        """Issue a parallel fan-out; returns the list of leg payloads.

        The executing thread blocks at the fan-in barrier holding its
        thread across all legs — the synchronous analogue of a blocked
        single :class:`Call`.  Raises :class:`ServletError` when the
        quorum becomes unreachable (the failed barrier event throws it
        at the ``yield``).  Gathers bypass the remediation invoker:
        per-leg retries would duplicate fan-out work the quorum already
        tolerates losing.
        """
        return (yield GatherCall(self, step, request).response)

    def _invoke(self, step, request):
        """Issue one downstream call; returns the response payload.

        Raises :class:`ServletError` if the call times out (dropped
        packets exhausted retransmissions) or the downstream replied
        with an error.
        """
        route = self._routes.get(step.target)
        if route is None:
            raise ServletError(
                f"{self.name} has no route to tier {step.target!r}"
            )
        replicas, pool, label = route
        self.stats.downstream_calls += 1
        if pool is not None:
            yield pool.acquire()
        try:
            sub = request.child(step.operation, self.sim.now, work_hint=step.work_hint)
            sub.record(self.sim.now, "call", label)
            exchange = replicas.send(self.fabric, sub)
            try:
                response = yield exchange.response
            except ConnectionTimeout as exc:
                self.stats.downstream_failures += 1
                raise ServletError(str(exc)) from exc
            if not response.ok:
                self.stats.downstream_failures += 1
                raise ServletError(response.error)
            return response.value
        finally:
            if pool is not None:
                pool.release()

    def __repr__(self):
        return f"<{self.__class__.__name__} {self.name} depth={self.queue_depth()}>"
