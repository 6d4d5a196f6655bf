"""Unit tests for topology building (repro.topology)."""

import math

import pytest

from repro.servers.policies import RemediationSpec, TierPolicy
from repro.servers.replica import HedgingSpec
from repro.topology import SystemConfig, server_names

from conftest import build_tiny_system


# ----------------------------------------------------------------------
# SystemConfig
# ----------------------------------------------------------------------
def test_default_config_matches_paper_numbers():
    config = SystemConfig()
    assert config.web_max_sys_q_depth == 278
    assert config.app_max_sys_q_depth == 293
    assert config.db_max_sys_q_depth == 228
    assert config.db_pool_size == 50
    assert config.lite_q_depth == 65535
    assert config.xmysql_slots == 8
    assert config.xmysql_queue == 2000
    assert config.tcp_rto == 3.0


def test_nx_bounds():
    with pytest.raises(ValueError):
        SystemConfig(nx=4)
    with pytest.raises(ValueError):
        SystemConfig(nx=-1)


def test_thread_validation():
    with pytest.raises(ValueError):
        SystemConfig(web_threads=0)
    with pytest.raises(ValueError):
        SystemConfig(db_pool_size=0)


@pytest.mark.parametrize("field, value", [
    ("app_vcpus", 0),
    ("lite_q_depth", 0),
    ("nginx_workers", 0),
    ("xtomcat_workers", 0),
    ("xmysql_slots", 0),
    ("xmysql_queue", 0),
    ("web_backlog", -1),
    ("app_backlog", -1),
    ("db_backlog", -1),
    ("net_latency", -1),
    ("net_latency", math.nan),
    ("tcp_rto", 0),
    ("max_retransmits", -1),
    ("xtomcat_pace_rate", 0),
    ("monitor_interval", 0),
    ("think_mean", 0),
    ("think_mean", -7.0),
    ("think_mean", math.inf),
])
def test_bad_config_rejected_at_construction(field, value):
    """Inputs that used to fail only inside build_system or mid-run."""
    with pytest.raises(ValueError, match=field):
        SystemConfig(**{field: value})


def test_async_predicates_progression():
    flags = [
        (SystemConfig(nx=n).web_is_async,
         SystemConfig(nx=n).app_is_async,
         SystemConfig(nx=n).db_is_async)
        for n in range(4)
    ]
    assert flags == [
        (False, False, False),
        (True, False, False),
        (True, True, False),
        (True, True, True),
    ]


def test_server_names_follow_nx():
    assert server_names(SystemConfig(nx=0)) == {
        "web": "apache", "app": "tomcat", "db": "mysql"
    }
    assert server_names(SystemConfig(nx=2)) == {
        "web": "nginx", "app": "xtomcat", "db": "mysql"
    }
    assert server_names(SystemConfig(nx=3)) == {
        "web": "nginx", "app": "xtomcat", "db": "xmysql"
    }


# ----------------------------------------------------------------------
# build_system
# ----------------------------------------------------------------------
#: admission/concurrency/remediation kinds of the classic presets
SYNC = ("backlog", "threads", "none")
ASYNC = ("eager", "eventloop", "none")


def _kinds(server):
    return (server.admission.kind, server.concurrency.kind,
            server.remediation.kind)


def test_build_sync_stack_types():
    system = build_tiny_system(nx=0)
    assert [_kinds(system.servers[tier]) for tier in ("web", "app", "db")] \
        == [SYNC, SYNC, SYNC]


def test_build_async_stack_types():
    system = build_tiny_system(nx=3)
    assert [_kinds(system.servers[tier]) for tier in ("web", "app", "db")] \
        == [ASYNC, ASYNC, ASYNC]


def test_nx2_mixed_stack():
    system = build_tiny_system(nx=2)
    assert [_kinds(system.servers[tier]) for tier in ("web", "app", "db")] \
        == [ASYNC, ASYNC, SYNC]


def test_config_graph_is_the_three_tier_path():
    graph = SystemConfig().to_graph()
    assert graph.topo_order() == ["web", "app", "db"]
    assert graph.entry == "web"


#: (config overrides, expected wiring) for the preset-wiring table:
#: display names and kinds per replica, the JDBC pool size (None when
#: the app tier does not block) and the replica-group labels
_WIRING = {
    "nx0": (dict(nx=0), dict(
        names=["apache", "tomcat", "mysql"], kinds=[SYNC, SYNC, SYNC],
        pool=4, groups=[],
    )),
    "nx1": (dict(nx=1), dict(
        names=["nginx", "tomcat", "mysql"], kinds=[ASYNC, SYNC, SYNC],
        pool=4, groups=[],
    )),
    "nx2": (dict(nx=2), dict(
        names=["nginx", "xtomcat", "mysql"], kinds=[ASYNC, ASYNC, SYNC],
        pool=None, groups=[],
    )),
    "nx3": (dict(nx=3), dict(
        names=["nginx", "xtomcat", "xmysql"], kinds=[ASYNC, ASYNC, ASYNC],
        pool=None, groups=[],
    )),
    "policy_override": (dict(
        nx=0,
        web_policy=TierPolicy.shedding(16, threads=8),
        app_policy=TierPolicy.asynchronous(lite_q_depth=32, workers=2),
        db_policy=TierPolicy.sync(
            threads=4, remediation=RemediationSpec("retry")),
    ), dict(
        names=["apache", "tomcat", "mysql"],
        kinds=[("shed", "threads", "none"), ASYNC,
               ("backlog", "threads", "retry")],
        pool=None, groups=[],
    )),
    "replicated_hedged": (dict(
        nx=0, web_replicas=2, app_replicas=3, db_replicas=2,
        hedging=HedgingSpec(),
    ), dict(
        names=["apache1", "apache2", "tomcat1", "tomcat2", "tomcat3",
               "mysql1", "mysql2"],
        kinds=[SYNC] * 7,
        pool=4,
        groups=["clients->web", "apache1->app", "apache2->app",
                "tomcat1->db", "tomcat2->db", "tomcat3->db"],
    )),
}


@pytest.mark.parametrize("case", list(_WIRING))
def test_preset_wiring(case):
    overrides, expected = _WIRING[case]
    backlogs = {"web": 5, "app": 6, "db": 7}
    system = build_tiny_system(
        web_backlog=backlogs["web"], app_backlog=backlogs["app"],
        db_backlog=backlogs["db"], **overrides,
    )
    items = system.server_items()
    assert [name for name, _server in items] == expected["names"]
    assert [_kinds(server) for _name, server in items] == expected["kinds"]
    tier_of = {
        name: tier
        for tier, names in system.replica_names.items() for name in names
    }
    for name, server in items:
        tier = tier_of[name]
        assert server.listener.backlog == backlogs[tier]
        downstream = {"web": "app", "app": "db", "db": None}[tier]
        assert server.route_labels == (
            {downstream: f"{name}->{downstream}"} if downstream else {}
        )
    groups = system.groups
    assert list(groups) == expected["groups"]
    replicated = len(system.replica_names["db"]) > 1
    for name in system.replica_names["app"]:
        app = system.server(name)
        if replicated:
            # the group owns one JDBC pool per database replica
            group = groups[f"{name}->db"]
            assert "db" not in app.pools
            pools = group.pools or []
            assert [pool.size for pool in pools] == (
                [expected["pool"]] * len(group) if expected["pool"] else []
            )
        elif expected["pool"] is None:
            assert "db" not in app.pools
        else:
            assert app.pools["db"].capacity == expected["pool"]
            assert app.pools["db"].name == f"{name}->db.pool"
    for group in groups.values():
        assert group.hedging is not None


def test_each_tier_gets_dedicated_host():
    system = build_tiny_system()
    hosts = {system.hosts[tier] for tier in ("web", "app", "db")}
    assert len(hosts) == 3
    for tier in ("web", "app", "db"):
        assert system.vms[tier].host is system.hosts[tier]


def test_sync_app_gets_db_connection_pool():
    system = build_tiny_system(nx=0)
    assert "db" in system.servers["app"].pools
    assert system.servers["app"].pools["db"].capacity == 4


def test_async_app_has_no_db_pool():
    system = build_tiny_system(nx=2)
    assert "db" not in system.servers["app"].pools


def test_xmysql_is_executor_mode():
    system = build_tiny_system(nx=3)
    xmysql = system.servers["db"]
    assert xmysql.workers == 2
    assert xmysql.lite_q_depth == 32


def test_entry_is_web_listener():
    system = build_tiny_system()
    assert system.entry is system.servers["web"].listener


def test_thread_overhead_applied_to_sync_tiers_only():
    sync_system = build_tiny_system(nx=0, thread_overhead=True)
    async_system = build_tiny_system(nx=3, thread_overhead=True)
    assert sync_system.vms["app"].efficiency is not None
    assert async_system.vms["app"].efficiency is None


def test_app_vcpus_respected():
    system = build_tiny_system(app_vcpus=4)
    assert system.vms["app"].vcpus == 4
    assert system.hosts["app"].cores == 4


def test_drop_counts_and_total():
    system = build_tiny_system()
    counts = system.drop_counts()
    assert set(counts) == {"apache", "tomcat", "mysql"}
    assert system.total_drops() == 0


def test_attach_monitor_idempotent():
    system = build_tiny_system()
    first = system.attach_monitor()
    second = system.attach_monitor()
    assert first is second
    assert set(first.cpu) == {"apache", "tomcat", "mysql"}


def test_graph_open_loop_refused_on_three_tier_system():
    """The graph client's bare requests carry no RUBBoS interaction."""
    with pytest.raises(TypeError, match="RUBBoS"):
        build_tiny_system().open_loop(10.0)
