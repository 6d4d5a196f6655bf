"""Build the paper's n-tier systems from a :class:`SystemConfig`.

The standard RUBBoS 1/1/1 topology: one web server, one application
server, one database server, each on its own VM on its own physical
host (Fig 13).  Millibottleneck injectors later consolidate an
antagonist VM onto one of these hosts (Fig 2) or freeze a VM's disk.

The system is the three-node service graph of
:meth:`SystemConfig.to_graph`, built by
:func:`~repro.topology.graph.build_graph` like every other topology;
this module names the tiers' servers after the paper's stacks and
keys the built system by tier.
"""

from __future__ import annotations

from ..apps.rubbos import RubbosApplication
from ..cpu.overhead import ThreadOverheadModel
from ..sim.kernel import Simulator
from .configs import SystemConfig, server_names
from .graph import GraphSystem, build_graph

__all__ = ["NTierSystem", "build_system"]


class NTierSystem(GraphSystem):
    """A built 3-tier system: kernel, fabric, hosts, VMs, servers, app,
    log — a :class:`GraphSystem` with a tier-keyed surface.

    ``servers``/``vms``/``hosts`` map each tier ("web"/"app"/"db") to
    its object or, once any tier is replicated, to a list with one entry
    per replica.  ``replica_names`` maps tiers to their replicas'
    display names (``tomcat1``..``tomcatN``; a 1-replica tier keeps the
    plain name) and ``names`` maps each tier to its first replica's:
    the paper's stacks (apache/nginx, tomcat/xtomcat, mysql/xmysql),
    with ``name_prefix`` applied when several systems share one
    simulation (Fig 2's SysSteady/SysBursty pair).  Clients enter
    through ``entry``, a :class:`~repro.servers.replica.ReplicaGroup`
    when the web tier is replicated.
    """

    def __init__(self, sim, graph, fabric, config, app, name_prefix="",
                 **kwargs):
        super().__init__(sim, graph, fabric, **kwargs)
        self.name_prefix = name_prefix
        self.config = config
        self.app = app
        self._flat = []

    @property
    def _monitor_interval(self):
        return self.config.monitor_interval

    def _key_by_tier(self):
        """Re-key the flat per-replica lists ``build_graph`` filled."""
        self._flat = list(super()._rows())
        keyed = ({}, {}, {})
        for tier, names in self.replica_names.items():
            rows = [row for row in self._flat if row[0] in names]
            for column, index in zip(keyed, (1, 2, 3)):
                values = [row[index] for row in rows]
                column[tier] = (values if self.config.is_replicated
                                else values[0])
        self.hosts, self.vms, self.servers = keyed
        self.names = {tier: names[0]
                      for tier, names in self.replica_names.items()}

    def _rows(self):
        return iter(self._flat)

    def host_of(self, tier, replica=0):
        return self._row(self.replica_names[tier][replica])[1]

    def open_loop(self, rate, rng_label=None):
        # the graph client sends bare graph requests; the RUBBoS
        # servlets dispatch on the interaction a request carries
        raise TypeError(
            "a 3-tier system takes RUBBoS workloads: use "
            "Scenario.with_open_loop or repro.workload generators"
        )

    def __repr__(self):
        stack = "-".join(
            "/".join(names) for names in self.replica_names.values()
        )
        return f"<NTierSystem nx={self.config.nx} {stack}>"


def build_system(config=None, sim=None, host_overrides=None, name_prefix="",
                 bus=None):
    """Construct the 3-tier system described by ``config``.

    Returns an :class:`NTierSystem`; the caller attaches workload
    generators and injectors, then runs ``system.sim.run(until=...)``.

    ``host_overrides`` maps tier names ("web"/"app"/"db") to existing
    :class:`~repro.cpu.host.Host` objects, co-locating that tier's VM on
    another system's physical machine — the paper's VM consolidation.
    ``name_prefix`` distinguishes the servers/VMs of multiple systems in
    one simulation.  ``bus`` installs an instrumentation
    :class:`~repro.sim.instrument.EventBus` on the new simulator before
    any resource is wired, so every substrate component publishes to it.
    """
    config = config or SystemConfig()
    if sim is not None and bus is not None:
        raise ValueError(
            "pass the bus to the existing simulator, not to build_system: "
            "components capture sim.bus at construction"
        )
    if sim is None:
        sim = Simulator(seed=config.seed, bus=bus)
    app = RubbosApplication(config.interaction_specs)
    system = build_graph(
        config.to_graph(app), sim=sim, seed=config.seed,
        net_latency=config.net_latency, rto=config.tcp_rto,
        max_retransmits=config.max_retransmits, streaming=config.streaming,
        system_factory=lambda sim, graph, fabric, **kwargs: NTierSystem(
            sim, graph, fabric, config, app, name_prefix=name_prefix,
            **kwargs
        ),
        names={tier: name_prefix + name
               for tier, name in server_names(config).items()},
        host_overrides=host_overrides,
    )
    system._key_by_tier()
    if config.thread_overhead:
        # the thread-count overhead model only applies to tiers whose
        # concurrency actually multiplies threads with load
        overhead = ThreadOverheadModel(
            switch_cost=config.switch_cost,
            gc_cost=config.gc_cost,
            free_threads=config.free_threads,
        )
        for tier, names in system.replica_names.items():
            if config.tier_policy(tier).concurrency.kind == "threads":
                for name in names:
                    system.vm(name).efficiency = overhead
    return system
