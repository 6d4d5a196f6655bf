"""The service-graph core: arbitrary DAG topologies.

The paper's systems are *linear* — web → app → db, or an n-deep chain —
but CTQO is a property of invocation edges, not of a total tier order:
a millibottleneck propagates queue growth along whatever edges carry
blocking calls.  This module owns the general form.  A topology is a
:class:`ServiceGraph` of :class:`NodeSpec` services joined by
:class:`EdgeSpec` invocation edges (validated acyclic, fully reachable
from the entry node); :func:`build_graph` turns it into live hosts, VMs
and servers.  Nodes with one outgoing edge issue plain sequential
:class:`~repro.apps.servlet.Call`\\ s; nodes with several fan out through
a :class:`~repro.apps.servlet.Gather` barrier (all-of, or first-K-of
with ``quorum``).

This is the one place hosts, VMs and servers are constructed.  The
linear topologies are presets over it:
:func:`repro.topology.chain.build_chain` converts its ``TierSpec`` list
to a path graph, and :func:`repro.topology.builder.build_system` builds
``SystemConfig.to_graph()`` — the paper's web → app → db path — with
the tier display names (apache/nginx, tomcat1..N, ...) and any VM
consolidation host overrides.  Both delegate here and build
byte-identical systems to their historical builders (the golden
records pin the construction order below).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite

from ..apps.servlet import (
    CacheAbort,
    CacheGet,
    CachePut,
    Call,
    Compute,
    Gather,
    Request,
    ServletError,
    StorageRead,
    StorageWrite,
)
from ..cpu.host import Host
from ..metrics.monitor import SystemMonitor
from ..metrics.trace import RequestLog, RequestRecord
from ..net.tcp import ConnectionTimeout, NetworkFabric
from ..servers.cache import LruCache
from ..servers.policies import RemediationSpec, TierPolicy
from ..servers.replica import BALANCERS, HedgingSpec, ReplicaGroup
from ..servers.runtime import policy_server
from ..servers.storage import WriteBackStore
from ..sim.kernel import Simulator
from ..units import ms

#: valid :attr:`NodeSpec.kind` values
NODE_KINDS = ("service", "cache", "storage")

__all__ = [
    "EdgeSpec",
    "GraphSystem",
    "NODE_KINDS",
    "NodeSpec",
    "ServiceGraph",
    "ServiceSystem",
    "build_graph",
    "cache_node_handler",
    "fan_out",
    "storage_node_handler",
]


@dataclass
class NodeSpec:
    """One service of a graph.

    ``pre_work``/``post_work`` are CPU seconds before/after the
    downstream invocation(s); a leaf node (no outgoing edges) runs only
    ``pre_work``.  A node with one outgoing edge issues
    ``calls_to_next`` sequential calls with ``mid_work`` between them
    (the chain's multi-query servlet); a node with several outgoing
    edges issues one parallel :class:`~repro.apps.servlet.Gather` over
    all of them, resuming on all-of or — with ``quorum=K`` — on the
    first K responses.

    The node's server is built from ``policy`` when given; otherwise
    from the sync (thread pool of ``threads``) or async (``workers``
    event-loop workers behind a ``lite_q_depth`` LiteQ) preset, with
    ``remediation`` on its outgoing calls.
    """

    name: str
    sync: bool = True
    threads: int = 150
    workers: int = 1
    backlog: int = 128
    lite_q_depth: int = 65535
    vcpus: int = 1
    pre_work: float = ms(0.1)
    mid_work: float = ms(0.1)
    post_work: float = ms(0.4)
    calls_to_next: int = 1
    stochastic: bool = True
    #: optional :class:`~repro.servers.policies.RemediationSpec` applied
    #: to this node's *outgoing* calls; None keeps trust-TCP behaviour.
    remediation: RemediationSpec = field(default=None, repr=False)
    #: scale-out: replicas of this node (``{name}1..{name}N`` when > 1)
    replicas: int = 1
    #: how callers pick among this node's replicas
    balancer: str = "round_robin"
    #: optional :class:`~repro.servers.replica.HedgingSpec` for routes
    #: *into* this node (needs ``replicas >= 2``)
    hedging: HedgingSpec = field(default=None, repr=False)
    #: fan-in barrier for a multi-successor node: resume after this many
    #: legs answered (None = all of them)
    quorum: int = None
    #: optional servlet factory ``f(node, successors, rng) -> handler``
    #: overriding :func:`default_node_handler`
    handler: object = field(default=None, repr=False)
    #: node role: a plain ``"service"``, an in-process ``"cache"`` in
    #: front of the node's (single) successor, or a ``"storage"``
    #: backend with a write-back buffer
    kind: str = "service"
    #: cache nodes: LRU entry bound (required), default TTL in seconds
    #: (None = never expires), single-flight miss coalescing, and the
    #: key universe requests draw from (smaller = hotter)
    cache_capacity: int = None
    cache_ttl: float = None
    coalesce: bool = False
    keyspace: int = 1000
    #: storage nodes: device seconds per unit command size (required)
    #: and the write-back buffer bound (None = unbounded bufferbloat)
    storage_service_time: float = None
    write_buffer: int = None
    #: storage nodes: fraction of arriving commands that are writes
    write_fraction: float = 0.0
    #: optional :class:`~repro.servers.policies.TierPolicy` (e.g. a
    #: shed / codel AQM front, Apache's second process, a paced event
    #: loop); replaces the sync/threads/workers/lite_q_depth/remediation
    #: preset wholesale
    policy: TierPolicy = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in NODE_KINDS:
            raise ValueError(
                f"{self.name}: kind must be one of {NODE_KINDS}, "
                f"got {self.kind!r}"
            )
        if self.kind == "cache":
            if self.cache_capacity is None or self.cache_capacity < 1:
                raise ValueError(
                    f"{self.name}: a cache node needs cache_capacity >= 1, "
                    f"got {self.cache_capacity}"
                )
            if self.keyspace < 1:
                raise ValueError(
                    f"{self.name}: keyspace must be >= 1, got {self.keyspace}"
                )
        if self.kind == "storage":
            if (self.storage_service_time is None
                    or self.storage_service_time <= 0):
                raise ValueError(
                    f"{self.name}: a storage node needs a positive "
                    f"storage_service_time, got {self.storage_service_time}"
                )
            if not 0.0 <= self.write_fraction <= 1.0:
                raise ValueError(
                    f"{self.name}: write_fraction must be in [0, 1], "
                    f"got {self.write_fraction}"
                )
        if self.policy is not None:
            if not isinstance(self.policy, TierPolicy):
                raise ValueError(
                    f"{self.name}: policy must be a TierPolicy or None, "
                    f"got {self.policy!r}"
                )
            if self.remediation is not None:
                raise ValueError(
                    f"{self.name}: give remediation inside the policy, "
                    "not beside it"
                )
        if self.sync and self.threads < 1:
            raise ValueError(f"{self.name}: threads must be >= 1")
        if not self.sync and self.workers < 1:
            raise ValueError(f"{self.name}: workers must be >= 1")
        if self.vcpus < 1:
            raise ValueError(f"{self.name}: vcpus must be >= 1")
        if self.backlog < 0:
            raise ValueError(f"{self.name}: backlog must be >= 0")
        if self.lite_q_depth < 1:
            raise ValueError(f"{self.name}: lite_q_depth must be >= 1")
        for stage in ("pre_work", "mid_work", "post_work"):
            work = getattr(self, stage)
            if not (isfinite(work) and work >= 0):
                raise ValueError(
                    f"{self.name}: {stage} must be finite and >= 0, "
                    f"got {work}"
                )
        if self.calls_to_next < 1:
            raise ValueError(f"{self.name}: calls_to_next must be >= 1")
        if (self.remediation is not None
                and not isinstance(self.remediation, RemediationSpec)):
            raise ValueError(
                f"{self.name}: remediation must be a RemediationSpec or "
                f"None, got {self.remediation!r}"
            )
        if self.replicas < 1:
            raise ValueError(f"{self.name}: replicas must be >= 1")
        if self.balancer not in BALANCERS:
            raise ValueError(
                f"{self.name}: balancer must be one of {sorted(BALANCERS)}, "
                f"got {self.balancer!r}"
            )
        if self.hedging is not None:
            if not isinstance(self.hedging, HedgingSpec):
                raise ValueError(
                    f"{self.name}: hedging must be a HedgingSpec or None, "
                    f"got {self.hedging!r}"
                )
            if self.replicas < 2:
                raise ValueError(f"{self.name}: hedging needs replicas >= 2")
        if self.quorum is not None and self.quorum < 1:
            raise ValueError(
                f"{self.name}: quorum must be >= 1, got {self.quorum}"
            )

    def server_policy(self):
        """The :class:`TierPolicy` this node's servers are built from."""
        if self.policy is not None:
            return self.policy
        if self.sync:
            return TierPolicy.sync(threads=self.threads,
                                   remediation=self.remediation)
        return TierPolicy.asynchronous(lite_q_depth=self.lite_q_depth,
                                       workers=self.workers,
                                       remediation=self.remediation)

    @property
    def max_sys_q_depth(self):
        policy = self.server_policy()
        if policy.admission.kind != "backlog":
            return policy.admission.depth + self.backlog
        if policy.concurrency.kind == "threads":
            return policy.concurrency.threads + self.backlog
        return policy.concurrency.workers + self.backlog


@dataclass(frozen=True)
class EdgeSpec:
    """One invocation edge: ``source`` calls ``target``.

    ``pool`` installs a caller-side connection pool on the route (the
    chain's ``pool_to_next`` / the 3-tier JDBC pool); with a replicated
    target the pool covers the whole replica group.
    """

    source: str
    target: str
    pool: int = None

    def __post_init__(self):
        if self.source == self.target:
            raise ValueError(f"self-loop edge {self.source!r}->{self.target!r}")
        if self.pool is not None and self.pool < 1:
            raise ValueError(
                f"{self.source}->{self.target}: pool must be >= 1, "
                f"got {self.pool}"
            )


class ServiceGraph:
    """A validated service DAG: nodes, invocation edges, one entry.

    Validation (at construction) rejects duplicate node names, edges
    naming unknown endpoints, duplicate edges, self-loops, cycles, and
    nodes unreachable from the entry — every service must be on some
    invocation path, or its servers would sit idle while attribution
    walks dead edges.
    """

    def __init__(self, nodes, edges=(), entry=None):
        self.nodes = list(nodes)
        self.edges = list(edges)
        if not self.nodes:
            raise ValueError("a service graph needs at least one node")
        names = [node.name for node in self.nodes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate node names in {names}")
        self._by_name = {node.name: node for node in self.nodes}
        self.entry = entry if entry is not None else self.nodes[0].name
        if self.entry not in self._by_name:
            raise ValueError(f"entry {self.entry!r} is not a graph node")
        seen = set()
        self._successors = {name: [] for name in names}
        self._predecessors = {name: [] for name in names}
        for edge in self.edges:
            for endpoint in (edge.source, edge.target):
                if endpoint not in self._by_name:
                    raise ValueError(
                        f"edge {edge.source!r}->{edge.target!r} names "
                        f"unknown node {endpoint!r}"
                    )
            pair = (edge.source, edge.target)
            if pair in seen:
                raise ValueError(
                    f"duplicate edge {edge.source!r}->{edge.target!r}"
                )
            seen.add(pair)
            self._successors[edge.source].append(edge.target)
            self._predecessors[edge.target].append(edge.source)
        self._topo = self._topo_order()
        self._check_reachability()
        self._check_quorums()
        self._check_kinds()

    # -- validation ----------------------------------------------------
    def _topo_order(self):
        """Kahn's algorithm with declaration-order tie-breaking, so the
        walk (and everything keyed on it: construction, attribution
        positions) is deterministic."""
        pending = {
            node.name: len(self._predecessors[node.name])
            for node in self.nodes
        }
        order = []
        remaining = [node.name for node in self.nodes]
        while remaining:
            ready = [name for name in remaining if pending[name] == 0]
            if not ready:
                raise ValueError(
                    f"service graph has a cycle through {sorted(remaining)}"
                )
            name = ready[0]
            remaining.remove(name)
            order.append(name)
            for succ in self._successors[name]:
                pending[succ] -= 1
        return order

    def _check_reachability(self):
        reachable = {self.entry}
        frontier = [self.entry]
        while frontier:
            name = frontier.pop()
            for succ in self._successors[name]:
                if succ not in reachable:
                    reachable.add(succ)
                    frontier.append(succ)
        unreachable = [
            node.name for node in self.nodes if node.name not in reachable
        ]
        if unreachable:
            raise ValueError(
                f"nodes unreachable from entry {self.entry!r}: {unreachable}"
            )

    def _check_quorums(self):
        for node in self.nodes:
            if node.quorum is None:
                continue
            degree = len(self._successors[node.name])
            if node.quorum > degree:
                raise ValueError(
                    f"{node.name}: quorum {node.quorum} exceeds "
                    f"out-degree {degree}"
                )

    def _check_kinds(self):
        for node in self.nodes:
            degree = len(self._successors[node.name])
            if node.kind == "cache" and degree > 1:
                # a cache fronts exactly one backing tier (or none —
                # then a miss synthesizes the value itself)
                raise ValueError(
                    f"{node.name}: a cache node needs at most one "
                    f"successor, has {degree}"
                )

    # -- queries -------------------------------------------------------
    def node(self, name):
        return self._by_name[name]

    def successors(self, name):
        """Target names of ``name``'s outgoing edges, declaration order."""
        return list(self._successors[name])

    def predecessors(self, name):
        return list(self._predecessors[name])

    def topo_order(self):
        """Node names, entry-consistent topological order."""
        return list(self._topo)

    def edge_index_pairs(self):
        """Edges as (i, j) index pairs into :meth:`topo_order` — the
        form the DAG-aware attribution walk consumes."""
        position = {name: i for i, name in enumerate(self._topo)}
        return [
            (position[edge.source], position[edge.target])
            for edge in self.edges
        ]

    def __repr__(self):
        return (
            f"<ServiceGraph {len(self.nodes)} nodes "
            f"{len(self.edges)} edges entry={self.entry!r}>"
        )


def fan_out(root, leaves, edge_pool=None):
    """Preset: one root node fanning out to N leaf nodes."""
    edges = [
        EdgeSpec(root.name, leaf.name, pool=edge_pool) for leaf in leaves
    ]
    return ServiceGraph([root, *leaves], edges)


# ======================================================================
# the shared system surface
# ======================================================================
class ServiceSystem:
    """Monitor, log and drop/shed accounting shared by every built
    topology (graph, chain, 3-tier).

    Subclasses provide ``server_items()`` / ``vm_items()`` (display
    name, object) pairs; :meth:`_watch`'s registration order is part of
    the golden byte contract.
    """

    #: fallback sampling interval; 3-tier systems use the config's
    _monitor_interval = 0.05

    def _init_shared(self, sim, fabric, streaming=False, name_prefix=""):
        self.sim = sim
        self.fabric = fabric
        self.name_prefix = name_prefix
        self.log = RequestLog(streaming=streaming)
        self.monitor = None

    def attach_monitor(self, interval=None):
        """Create and start a SystemMonitor over every VM and server."""
        if self.monitor is None:
            self.monitor = SystemMonitor(
                self.sim,
                interval=interval if interval is not None
                else self._monitor_interval,
            )
            self._watch(self.monitor)
            self.monitor.watch_log(self.name_prefix + "clients", self.log)
            self.monitor.start()
        return self.monitor

    def _watch(self, monitor):
        for (name, vm), (_name, server) in zip(self.vm_items(),
                                               self.server_items()):
            monitor.watch_vm(name, vm)
            monitor.watch_server(name, server)
        for label, group in getattr(self, "groups", {}).items():
            monitor.watch_group(label, group)
        # cache/storage watches come last: the registration order above
        # is part of the golden byte contract for existing topologies,
        # and no existing topology carries either kind
        for name, cache in getattr(self, "caches", {}).items():
            monitor.watch_cache(name, cache)
        for name, store in getattr(self, "storages", {}).items():
            monitor.watch_storage(name, store)

    def drop_counts(self):
        """Display name → packets dropped at that server."""
        return {
            name: server.listener.drops
            for name, server in self.server_items()
        }

    def total_drops(self):
        return sum(self.drop_counts().values())

    def shed_counts(self):
        """Display name → packets 503'd by that server's admission."""
        return {
            name: server.listener.sheds
            for name, server in self.server_items()
        }

    def total_sheds(self):
        return sum(self.shed_counts().values())

    def group_stats(self):
        """Route label → cumulative balancer/hedging counters."""
        return {
            label: group.stats()
            for label, group in getattr(self, "groups", {}).items()
        }

    def hedge_totals(self):
        """Aggregate hedging counters across every route."""
        totals = {"hedges_issued": 0, "hedge_wins": 0,
                  "hedge_losses": 0, "hedges_cancelled": 0}
        for group in getattr(self, "groups", {}).values():
            for key in totals:
                totals[key] += getattr(group, key)
        return totals


# ======================================================================
# built graphs
# ======================================================================
class GraphSystem(ServiceSystem):
    """A built service graph, replica-flat like the chain system:
    ``names``/``hosts``/``vms``/``servers`` hold one entry per replica
    in node declaration order.

    ``names`` (the constructor argument) maps node names to display
    names; unmapped nodes display as themselves.  ``replica_names``
    maps every node name to its replicas' display names.
    """

    #: RequestRecord kind logged by the built-in workload generators
    request_kind = "GraphRequest"
    #: operation tag of the client-created root requests
    request_operation = "graph"
    #: default label of the client arrival RNG stream
    clients_rng_label = "graph-clients"

    def __init__(self, sim, graph, fabric, streaming=False, names=None):
        self._init_shared(sim, fabric, streaming=streaming)
        self.graph = graph
        names = names or {}
        self.replica_names = {}
        for node in graph.nodes:
            base = names.get(node.name, node.name)
            self.replica_names[node.name] = (
                [base] if node.replicas == 1
                else [f"{base}{i + 1}" for i in range(node.replicas)]
            )
        #: flat display names, one entry per *replica*, declaration order
        self.names = [
            name for group in self.replica_names.values() for name in group
        ]
        self.hosts = []
        self.vms = []
        self.servers = []
        #: route label -> ReplicaGroup, for every replicated hop
        self.groups = {}
        #: replica display name -> LruCache, for ``kind="cache"`` nodes
        self.caches = {}
        #: replica display name -> WriteBackStore, ``kind="storage"``
        self.storages = {}
        self.client_group = None

    @property
    def entry(self):
        if self.client_group is not None:
            return self.client_group
        return self.server(self.replica_names[self.graph.entry][0]).listener

    def _rows(self):
        """(display name, host, vm, server) per replica, declaration
        order — the one primitive the lookups below read."""
        return zip(self.names, self.hosts, self.vms, self.servers)

    def _row(self, name):
        for row in self._rows():
            if row[0] == name:
                return row
        raise ValueError(f"no replica named {name!r}")

    def server(self, name):
        return self._row(name)[3]

    def vm(self, name):
        return self._row(name)[2]

    def host_of(self, name):
        return self._row(name)[1]

    # replica-agnostic iteration (the surface RunResult and attribution
    # consume) ---------------------------------------------------------
    def server_items(self):
        return [(name, server) for name, _h, _v, server in self._rows()]

    def vm_items(self):
        return [(name, vm) for name, _h, vm, _s in self._rows()]

    def host_items(self):
        return [(name, host) for name, host, _v, _s in self._rows()]

    def tier_groups(self):
        """Topo-ordered display-name groups (replicas share a group)."""
        return [
            list(self.replica_names[name]) for name in self.graph.topo_order()
        ]

    def tier_edges(self):
        """Invocation edges as (i, j) pairs into :meth:`tier_groups`."""
        return self.graph.edge_index_pairs()

    def gather_totals(self):
        """Aggregate scatter-gather counters across every server."""
        totals = {"gathers": 0, "legs": 0, "legs_cancelled": 0,
                  "legs_wasted": 0, "leg_failures": 0}
        for _name, server in self.server_items():
            stats = getattr(server, "gather_stats", None)
            if stats is not None:
                for key in totals:
                    totals[key] += stats[key]
        return totals

    # ------------------------------------------------------------------
    # workload
    # ------------------------------------------------------------------
    def open_loop(self, rate, rng_label=None):
        """Attach a Poisson client at ``rate`` req/s."""
        rng = self.sim.fork_rng(rng_label or self.clients_rng_label)

        def arrivals():
            while True:
                yield rng.expovariate(rate)
                self.sim.process(self._one_request())

        self.sim.process(arrivals())
        return self

    def _one_request(self):
        request = Request(self.request_kind, self.request_operation,
                          self.sim.now)
        entry = self.entry
        if hasattr(entry, "send"):
            # replicated entry node: the group balances/hedges and
            # returns an exchange-like HedgedCall
            exchange = entry.send(self.fabric, request)
        else:
            exchange = self.fabric.send(entry, request)
        failed = False
        error = None
        try:
            response = yield exchange.response
            if not response.ok:
                failed = True
                error = response.error
        except ConnectionTimeout as exc:
            failed = True
            error = str(exc)
        drops, sheds = request.faults()
        self.log.add(
            RequestRecord(
                request.id, self.request_kind,
                start=request.created_at, end=self.sim.now,
                attempts=exchange.attempts, drops=drops, sheds=sheds,
                failed=failed, error=error,
            )
        )

    def __repr__(self):
        return f"<GraphSystem {self.graph!r}>"


# ======================================================================
# servlets
# ======================================================================
def default_node_handler(node, successors, rng):
    """Servlet for one graph node.

    Leaf: ``pre_work`` only.  One successor: the classic chain shape —
    ``pre``, ``calls_to_next`` sequential calls with ``mid`` between
    them, ``post`` (byte-compatible with the historical chain servlet).
    Several successors: ``pre``, one parallel :class:`Gather` over every
    outgoing edge (barrier at ``node.quorum`` or all-of), ``post``.
    """

    def draw(mean):
        if mean <= 0:
            return 0.0
        if node.stochastic:
            return rng.expovariate(1.0 / mean)
        return mean

    if len(successors) > 1:
        calls = [
            Call(target, f"{node.name}.g{index}")
            for index, target in enumerate(successors)
        ]
        quorum = node.quorum

        def handler(ctx, request):
            yield Compute(draw(node.pre_work))
            yield Gather(calls, quorum=quorum)
            yield Compute(draw(node.post_work))
            return {"tier": node.name}

        return handler

    next_name = successors[0] if successors else None

    def handler(ctx, request):
        yield Compute(draw(node.pre_work))
        if next_name is not None:
            for index in range(node.calls_to_next):
                yield Call(next_name, f"{node.name}.c{index}")
                if index < node.calls_to_next - 1:
                    yield Compute(draw(node.mid_work))
            yield Compute(draw(node.post_work))
        return {"tier": node.name}

    return handler


def cache_node_handler(node, successors, rng):
    """Servlet for a ``kind="cache"`` node: cache-aside over the
    backing successor.

    Each request draws a key from the node's ``keyspace`` (uniformly,
    off the shared app RNG — deterministic per seed), looks it up in the
    server's attached :class:`~repro.servers.cache.LruCache`, and on a
    miss fetches from the backing tier and publishes the value.  With
    ``coalesce=True`` misses are single-flight: one leader fetches, the
    herd parks on its in-flight event.  A failed backing fetch aborts
    the key's flight before cascading, so followers retry rather than
    wedge.
    """
    backing = successors[0] if successors else None
    fetch_op = f"{node.name}.fetch"

    def draw(mean):
        if mean <= 0:
            return 0.0
        if node.stochastic:
            return rng.expovariate(1.0 / mean)
        return mean

    def handler(ctx, request):
        yield Compute(draw(node.pre_work))
        key = rng.randrange(node.keyspace)
        hit, value = yield CacheGet(key, coalesce=node.coalesce)
        if hit:
            return value
        if backing is None:
            value = {"tier": node.name, "key": key}
        else:
            try:
                value = yield Call(backing, fetch_op)
            except ServletError:
                yield CacheAbort(key)
                raise
        yield CachePut(key, value)
        return value

    return handler


def storage_node_handler(node, successors, rng):
    """Servlet for a ``kind="storage"`` node: one device command per
    request against the attached write-back store.

    A ``write_fraction`` coin decides write vs read.  Writes take the
    write-back fast path (acked at buffer admission); reads complete
    only at device service, queued behind every buffered write — the
    bufferbloat coupling under test.
    """

    def draw(mean):
        if mean <= 0:
            return 0.0
        if node.stochastic:
            return rng.expovariate(1.0 / mean)
        return mean

    def handler(ctx, request):
        yield Compute(draw(node.pre_work))
        if node.write_fraction and rng.random() < node.write_fraction:
            yield StorageWrite()
        else:
            yield StorageRead()
        return {"tier": node.name}

    return handler


_KIND_HANDLERS = {
    "service": default_node_handler,
    "cache": cache_node_handler,
    "storage": storage_node_handler,
}


# ======================================================================
# the builder
# ======================================================================
def build_graph(graph, sim=None, seed=42, net_latency=0.0002, rto=3.0,
                max_retransmits=3, streaming=False, rng_label="graph-app",
                system_factory=None, names=None, host_overrides=None):
    """Build a live system from a :class:`ServiceGraph`.

    ``rng_label`` names the shared application RNG stream (the chain
    preset passes ``"chain-app"`` so existing seeds replay identically);
    ``system_factory(sim, graph, fabric, streaming=, names=)``
    substitutes a :class:`GraphSystem` subclass.  ``names`` maps node
    names to server display names (replicas append ``1..N``), and
    ``host_overrides`` maps node names to existing
    :class:`~repro.cpu.host.Host` objects the node's VM is placed on
    instead of a fresh host — VM consolidation (single-replica nodes
    only).

    Construction order is fixed because golden byte-identity is keyed
    on it: fabric, system, app RNG fork, then per node (declaration
    order) per replica: host, VM, server; then the client entry group
    of a replicated entry node, then the edges in declaration order.
    """
    if sim is not None and sim.seed != seed:
        raise ValueError(
            f"simulator seed {sim.seed!r} != seed {seed!r}; "
            "forked RNG streams would not be reproducible from the seed"
        )
    host_overrides = host_overrides or {}
    for name in host_overrides:
        if name not in graph.topo_order():
            raise ValueError(f"host override for unknown node {name!r}")
        if graph.node(name).replicas > 1:
            raise ValueError(
                f"{name}: host_overrides needs a single-replica node"
            )
    sim = sim or Simulator(seed=seed)
    fabric = NetworkFabric(sim, latency=net_latency, rto=rto,
                           max_retransmits=max_retransmits)
    system = (system_factory or GraphSystem)(
        sim, graph, fabric, streaming=streaming, names=names,
    )
    rng = sim.fork_rng(rng_label)

    node_servers = {}
    for node in graph.nodes:
        successors = graph.successors(node.name)
        factory = node.handler or _KIND_HANDLERS[node.kind]
        handler = factory(node, successors, rng)
        policy = node.server_policy()
        replicas = []
        for name in system.replica_names[node.name]:
            host = host_overrides.get(node.name)
            if host is None:
                host = Host(sim, cores=node.vcpus, name=f"{name}-host")
            vm = host.add_vm(f"{name}-vm", vcpus=node.vcpus)
            server = policy_server(sim, fabric, name, vm, handler, policy,
                                   backlog=node.backlog)
            if node.kind == "cache":
                server.cache = LruCache(
                    sim, node.cache_capacity, default_ttl=node.cache_ttl,
                    name=f"{name}-cache",
                )
                system.caches[name] = server.cache
            elif node.kind == "storage":
                server.storage = WriteBackStore(
                    sim, service_time=node.storage_service_time,
                    buffer_capacity=node.write_buffer,
                    name=f"{name}-store",
                )
                system.storages[name] = server.storage
            system.hosts.append(host)
            system.vms.append(vm)
            system.servers.append(server)
            replicas.append(server)
        node_servers[node.name] = replicas

    def route_group(caller_label, target_node, pool_size):
        label = f"{caller_label}->{target_node.name}"
        group = ReplicaGroup(
            sim, label, [s.listener for s in node_servers[target_node.name]],
            balancer=target_node.balancer, hedging=target_node.hedging,
            pool_size=pool_size,
        )
        system.groups[label] = group
        return group

    entry_node = graph.node(graph.entry)
    if entry_node.replicas > 1:
        system.client_group = route_group("clients", entry_node, None)

    for edge in graph.edges:
        target_node = graph.node(edge.target)
        targets = node_servers[edge.target]
        for caller_name, caller in zip(system.replica_names[edge.source],
                                       node_servers[edge.source]):
            if len(targets) > 1:
                caller.connect(
                    edge.target,
                    route_group(caller_name, target_node, edge.pool),
                )
            else:
                caller.connect(
                    edge.target, targets[0].listener, pool_size=edge.pool,
                )
    return system
