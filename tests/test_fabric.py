"""Tests for the sharded multi-Raft fabric (repro.fabric).

Deployment topology (striped co-location), the routing tier (per-group
clients, leader caching, latency attribution), range fabrics, node
recovery across every hosted replica, cross-shard 2PC through the
router, and the static-SPG coverage of a real fabric trace.
"""

from pathlib import Path

import pytest

from repro.analysis.scanner import scan_paths
from repro.analysis.spgdiff import diff_spg
from repro.analysis.static_spg import build_static_spg
from repro.cluster.cluster import Cluster
from repro.fabric.deploy import deploy_fabric, restart_fabric_node
from repro.fabric.endpoint import GroupEndpoint
from repro.fabric.router import FabricLoadDriver
from repro.fabric.shardmap import even_split_points, padded_key

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def deploy(seed=7, n_groups=4, n_nodes=5, **kwargs):
    cluster = Cluster(seed=seed)
    fabric = deploy_fabric(cluster, n_groups=n_groups, n_nodes=n_nodes, **kwargs)
    fabric.wait_for_leaders()
    return cluster, fabric


def make_router(cluster, fabric, **kwargs):
    client = cluster.add_client("cx")
    client.start()
    return fabric.router(client, **kwargs)


def run_script(cluster, node, gen, budget_ms=30_000.0):
    """Drive one generator op to completion; return its value.

    Advances virtual time in small steps and stops as soon as the op
    finishes — a fabric tick is expensive (20 replicas heartbeating),
    so running out a fixed 30s window per op would dominate the suite.
    """
    results = []

    def script():
        results.append((yield from gen))

    node.runtime.spawn(script())
    deadline = cluster.kernel.now + budget_ms
    while not results and cluster.kernel.now < deadline:
        cluster.run(until_ms=cluster.kernel.now + 25.0)
    assert results, "operation did not finish"
    return results[0]


# ---------------------------------------------------------------------------
# Deployment topology
# ---------------------------------------------------------------------------
class TestTopology:
    def test_striped_placement(self):
        _cluster, fabric = deploy()
        assert sorted(fabric.groups["g0"]) == ["n1", "n2", "n3"]
        assert sorted(fabric.groups["g1"]) == ["n2", "n3", "n4"]
        assert sorted(fabric.groups["g2"]) == ["n3", "n4", "n5"]
        assert sorted(fabric.groups["g3"]) == ["n1", "n4", "n5"]

    def test_most_shared_node_hosts_the_largest_group_set(self):
        _cluster, fabric = deploy()
        victim = fabric.most_shared_node()
        assert victim == "n3"
        assert fabric.groups_on(victim) == ["g0", "g1", "g2"]
        # ... and at least one group is entirely remote from it.
        remote = [
            gid
            for gid in fabric.group_ids()
            if victim not in fabric.groups[gid]
        ]
        assert remote == ["g3"]

    def test_preferred_leaders_spread_over_the_pool(self):
        _cluster, fabric = deploy()
        leaders = {
            gid: fabric.leader_of(gid).node.node_id
            for gid in fabric.group_ids()
        }
        # Each group's first stripe member is its preferred leader, so
        # leadership lands on four distinct machines.
        assert leaders == {"g0": "n1", "g1": "n2", "g2": "n3", "g3": "n4"}

    def test_colocated_groups_share_nodes_but_not_state(self):
        _cluster, fabric = deploy()
        # n3 hosts three groups: three distinct RaftNode instances with
        # per-group durable namespaces riding one machine.
        replicas = [fabric.groups[gid]["n3"] for gid in fabric.groups_on("n3")]
        assert len({id(r) for r in replicas}) == 3
        assert len({r.durable.node_id for r in replicas}) == 3

    def test_rejects_bad_shapes(self):
        cluster = Cluster(seed=1)
        with pytest.raises(ValueError):
            deploy_fabric(cluster, n_groups=0)
        with pytest.raises(ValueError):
            deploy_fabric(cluster, replicas=2)  # even
        with pytest.raises(ValueError):
            deploy_fabric(cluster, n_nodes=3, replicas=5)
        with pytest.raises(ValueError):
            deploy_fabric(cluster, partitioning="modulo")
        with pytest.raises(ValueError):
            deploy_fabric(cluster, partitioning="range")  # no splits


# ---------------------------------------------------------------------------
# Routing tier
# ---------------------------------------------------------------------------
class TestRouter:
    def test_routes_puts_and_gets_by_key(self):
        cluster, fabric = deploy()
        router = make_router(cluster, fabric)
        keys = [f"k{i}" for i in range(12)]
        for key in keys:
            ok, _ = run_script(cluster, router.node, router.put(key, f"v-{key}"))
            assert ok
        for key in keys:
            ok, value = run_script(cluster, router.node, router.get(key))
            assert (ok, value) == (True, f"v-{key}")
        # Every op was attributed to the key's owning group, nothing lost.
        assert sum(router.routed.values()) == 2 * len(keys)
        for key in keys:
            assert router.routed[router.group_for(key)] > 0

    def test_latency_lands_in_the_owning_groups_recorder(self):
        cluster, fabric = deploy()
        router = make_router(cluster, fabric)
        key = "attributed"
        owner = router.group_for(key)
        run_script(cluster, router.node, router.put(key, 1))
        stats = router.group_stats()
        assert stats[owner]["completed"] == 1.0
        assert stats[owner]["p99_ms"] > 0.0
        for gid, group_stats in stats.items():
            if gid != owner:
                assert group_stats["completed"] == 0.0

    def test_leader_hints_converge_to_real_leaders(self):
        cluster, fabric = deploy()
        router = make_router(cluster, fabric)
        # Touch every group once; redirects teach each client its leader.
        for i in range(32):
            run_script(cluster, router.node, router.put(f"k{i}", i))
        for gid in fabric.group_ids():
            assert (
                router.clients[gid]._leader_hint
                == fabric.leader_of(gid).node.node_id
            )

    def test_range_fabric_routes_contiguously(self):
        n_keys = 64
        cluster, fabric = deploy(
            partitioning="range",
            split_points=even_split_points(4, n_keys),
        )
        router = make_router(cluster, fabric)
        owners = [router.group_for(padded_key(i, n_keys)) for i in range(n_keys)]
        assert owners == sorted(owners)  # contiguous runs
        assert set(owners) == set(fabric.group_ids())
        key = padded_key(5, n_keys)
        ok, _ = run_script(cluster, router.node, router.put(key, "rv"))
        assert ok
        assert run_script(cluster, router.node, router.get(key)) == (True, "rv")

    def test_cross_shard_transaction_commits_atomically(self):
        cluster, fabric = deploy()
        router = make_router(cluster, fabric)
        # Two keys on two distinct groups.
        keys = ["a0"]
        anchor = router.group_for("a0")
        i = 0
        while len(keys) < 2:
            key = f"b{i}"
            i += 1
            if router.group_for(key) != anchor:
                keys.append(key)
        writes = {key: f"tx-{key}" for key in keys}
        outcome = run_script(cluster, router.node, router.transact(writes))
        assert outcome.committed
        assert len(outcome.shards) == 2
        for key, value in writes.items():
            assert run_script(cluster, router.node, router.get(key)) == (
                True,
                value,
            )
        # The commit landed on every replica of both groups.
        cluster.run(until_ms=cluster.kernel.now + 2000.0)
        for gid in outcome.shards:
            checksums = {sm.checksum() for sm in fabric.state_machines(gid)}
            assert len(checksums) == 1
            assert all(
                sm.locked_keys() == {} for sm in fabric.state_machines(gid)
            )


# ---------------------------------------------------------------------------
# Node recovery
# ---------------------------------------------------------------------------
class TestRecovery:
    def test_restart_recovers_every_hosted_replica(self):
        cluster, fabric = deploy()
        router = make_router(cluster, fabric)
        for i in range(24):
            ok, _ = run_script(cluster, router.node, router.put(f"k{i}", i))
            assert ok
        victim = fabric.most_shared_node()
        hosted = fabric.groups_on(victim)
        cluster.node(victim).crash()
        cluster.run(until_ms=cluster.kernel.now + 3000.0)
        crashed = [fabric.groups[gid][victim] for gid in hosted]
        recovered = restart_fabric_node(fabric, victim)
        # One fresh replica per hosted group, registered back in the map,
        # of the class it had, on its own group's view of the new endpoint.
        assert len(recovered) == len(hosted)
        assert [r.node.node_id for r in recovered] == [victim] * len(hosted)
        for gid, old, raft_node in zip(hosted, crashed, recovered):
            assert fabric.groups[gid][victim] is raft_node
            assert raft_node is not old and type(raft_node) is type(old)
            assert isinstance(raft_node.ep, GroupEndpoint)
            assert raft_node.ep.group_id == gid
        fabric.wait_for_leaders(deadline_ms=cluster.kernel.now + 15_000.0)
        cluster.run(until_ms=cluster.kernel.now + 3000.0)
        # Nothing written before the crash was lost.
        for i in range(24):
            assert run_script(cluster, router.node, router.get(f"k{i}")) == (
                True,
                i,
            )


# ---------------------------------------------------------------------------
# Static SPG coverage of a live fabric trace
# ---------------------------------------------------------------------------
class TestFabricSpgCoverage:
    @pytest.mark.slow
    def test_static_spg_covers_fabric_trace(self):
        """depfast-lint's whole-program static SPG predicts >= 95% of the
        distinct wait edges a mixed fabric workload (single-key + cross-
        shard 2PC) actually produces, with group membership given by the
        fabric's overlapping striped placement."""
        cluster, fabric = deploy(seed=11)
        router = make_router(cluster, fabric)
        driver = FabricLoadDriver(
            cluster,
            router,
            n_clients=8,
            n_keys=96,
            write_ratio=0.5,
            cross_txn_ratio=0.25,
            think_time_ms=1.0,
        )
        driver.start()
        cluster.run(until_ms=cluster.kernel.now + 4000.0)
        driver.stop()
        cluster.run(until_ms=cluster.kernel.now + 2000.0)
        assert driver.completed > 0
        assert driver.txns_committed > 0

        static = build_static_spg(scan_paths([str(SRC)]))
        groups = [sorted(fabric.groups[gid]) for gid in fabric.group_ids()]
        diff = diff_spg(static, cluster.tracer.records, groups)
        assert diff.predicted, "trace produced no predicted edges"
        assert diff.coverage >= 0.95, diff.render()
