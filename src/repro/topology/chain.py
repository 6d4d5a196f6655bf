"""Arbitrary-depth tier chains: the "n" in n-tier.

The paper demonstrates CTQO on the classic 3-tier stack, but its
mechanism — blocking RPC propagating queue growth hop by hop — applies
to invocation chains of any depth, and gets *worse* with depth: every
extra synchronous hop adds a thread pool that must drain before the
tiers above it can move.  This module builds linear chains of any
length from per-tier :class:`TierSpec` descriptions, each tier either
synchronous (thread pool) or asynchronous (event loop + lightweight
queue), with the same substrates as the 3-tier builder.

A chain is the path-graph preset of the service-graph core:
:func:`build_chain` converts its specs to a linear
:class:`~repro.topology.graph.ServiceGraph` and delegates to
:func:`~repro.topology.graph.build_graph`, which replays the historical
chain construction order — existing seeds build byte-identical systems.

``experiments.deep_chain`` uses it to show multi-hop upstream CTQO: a
millibottleneck in tier 5 of a 5-tier synchronous chain drops packets
at tier 1, while the same chain built async end-to-end absorbs it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..servers.policies import RemediationSpec
from ..servers.replica import HedgingSpec
from ..units import ms
from .graph import EdgeSpec, GraphSystem, NodeSpec, ServiceGraph, build_graph

__all__ = ["ChainSystem", "TierSpec", "build_chain", "uniform_chain"]


@dataclass
class TierSpec:
    """One tier of a chain.

    ``pre_work``/``post_work`` are CPU seconds spent before/after the
    downstream call(s); the last tier only runs ``pre_work`` (it has no
    downstream).  ``calls_to_next`` issues that many sequential calls to
    the next tier with ``mid_work`` CPU between them (a multi-query
    servlet).
    """

    name: str
    sync: bool = True
    threads: int = 150
    workers: int = 1
    backlog: int = 128
    lite_q_depth: int = 65535
    pool_to_next: int = None
    vcpus: int = 1
    pre_work: float = ms(0.1)
    mid_work: float = ms(0.1)
    post_work: float = ms(0.4)
    calls_to_next: int = 1
    stochastic: bool = True
    #: optional :class:`~repro.servers.policies.RemediationSpec` applied
    #: to this tier's *outgoing* calls (timeout+retry+breaker); None
    #: keeps the paper's trust-TCP behaviour.
    remediation: RemediationSpec = field(default=None, repr=False)
    #: scale-out: replicas of this tier (``{name}1..{name}N`` when > 1,
    #: each on its own host behind a caller-owned
    #: :class:`~repro.servers.replica.ReplicaGroup`)
    replicas: int = 1
    #: how callers pick among this tier's replicas — one of
    #: :data:`repro.servers.replica.BALANCERS`
    balancer: str = "round_robin"
    #: optional :class:`~repro.servers.replica.HedgingSpec` for the
    #: routes *into* this tier (needs ``replicas >= 2``)
    hedging: HedgingSpec = field(default=None, repr=False)

    def __post_init__(self):
        # one copy of the per-node checks: the graph node validates
        self.node_spec()

    @property
    def max_sys_q_depth(self):
        return self.node_spec().max_sys_q_depth

    def node_spec(self):
        """The graph-core node equivalent of this tier (``pool_to_next``
        lives on the outgoing edge instead)."""
        return NodeSpec(
            name=self.name, sync=self.sync, threads=self.threads,
            workers=self.workers, backlog=self.backlog,
            lite_q_depth=self.lite_q_depth, vcpus=self.vcpus,
            pre_work=self.pre_work, mid_work=self.mid_work,
            post_work=self.post_work, calls_to_next=self.calls_to_next,
            stochastic=self.stochastic, remediation=self.remediation,
            replicas=self.replicas, balancer=self.balancer,
            hedging=self.hedging,
        )


def uniform_chain(depth, sync=True, **overrides):
    """``depth`` identical tiers named tier1..tierN.

    Keyword overrides apply to every tier (e.g. ``threads=50``).
    """
    if depth < 2:
        raise ValueError(f"a chain needs at least 2 tiers, got {depth}")
    return [
        TierSpec(name=f"tier{i + 1}", sync=sync, **overrides)
        for i in range(depth)
    ]


class ChainSystem(GraphSystem):
    """A built linear chain: a :class:`GraphSystem` that keeps its
    tier specs."""

    request_kind = "ChainRequest"
    request_operation = "chain"
    clients_rng_label = "chain-clients"

    def __init__(self, sim, graph, fabric, specs, **kwargs):
        super().__init__(sim, graph, fabric, **kwargs)
        self.specs = list(specs)

    @property
    def depth(self):
        return len(self.specs)

    def __repr__(self):
        kinds = "".join("S" if s.sync else "A" for s in self.specs)
        return f"<ChainSystem depth={self.depth} [{kinds}]>"


def chain_graph(specs):
    """The path :class:`ServiceGraph` equivalent of a tier-spec list."""
    nodes = [spec.node_spec() for spec in specs]
    edges = [
        EdgeSpec(specs[i].name, specs[i + 1].name, pool=specs[i].pool_to_next)
        for i in range(len(specs) - 1)
    ]
    return ServiceGraph(nodes, edges)


def build_chain(specs, sim=None, seed=42, net_latency=0.0002, rto=3.0,
                max_retransmits=3, streaming=False):
    """Build a linear chain from tier specs (front tier first).

    ``streaming=True`` builds the chain's request log in streaming
    mode (O(1) aggregates, exact tail records only — docs/SCALE.md).
    """
    specs = list(specs)
    if len(specs) < 2:
        raise ValueError("a chain needs at least 2 tiers")
    names = [spec.name for spec in specs]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate tier names in {names}")
    return build_graph(
        chain_graph(specs), sim=sim, seed=seed, net_latency=net_latency,
        rto=rto, max_retransmits=max_retransmits, streaming=streaming,
        rng_label="chain-app",
        system_factory=lambda sim, graph, fabric, **kwargs: ChainSystem(
            sim, graph, fabric, specs, **kwargs
        ),
    )
