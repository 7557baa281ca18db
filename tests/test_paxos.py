"""Tests for Multi-Paxos on DepFast: protocol, fail-slow tolerance, recovery."""

import pytest

from repro.cluster.cluster import Cluster
from repro.faults.injector import FaultInjector
from repro.paxos import PaxosConfig, deploy_paxos
from repro.paxos.service import find_paxos_leader, wait_for_paxos_leader
from repro.workload.driver import ClosedLoopDriver, KvServiceClient
from repro.workload.ycsb import YcsbWorkload

GROUP = ["s1", "s2", "s3"]


def deploy(n=3, seed=61, **config_kwargs):
    cluster = Cluster(seed=seed)
    group = [f"s{i+1}" for i in range(n)]
    config = PaxosConfig(preferred_leader="s1", **config_kwargs)
    nodes = deploy_paxos(cluster, group, config=config)
    wait_for_paxos_leader(cluster, nodes)
    return cluster, nodes, group


def run_ops(cluster, group, ops):
    node = cluster.add_client(f"cx{cluster.kernel.now:.0f}")
    node.start()
    client = KvServiceClient(node, group)
    results = []

    def script():
        for op in ops:
            ok, value = yield from client.execute(op, size_bytes=64)
            results.append((ok, value))

    node.runtime.spawn(script())
    cluster.run(until_ms=cluster.kernel.now + 20_000.0)
    return results


class TestLeadership:
    def test_preferred_leader_wins(self):
        cluster, nodes, group = deploy()
        assert find_paxos_leader(nodes).id == "s1"

    def test_single_leader(self):
        cluster, nodes, group = deploy(n=5)
        cluster.run(until_ms=5000.0)
        leaders = [n for n in nodes.values() if n.is_leader]
        assert len(leaders) == 1

    def test_leader_crash_triggers_new_prepare_round(self):
        cluster, nodes, group = deploy()
        leader = find_paxos_leader(nodes)
        leader.node.crash()
        cluster.run(until_ms=cluster.kernel.now + 10_000.0)
        new_leader = find_paxos_leader(nodes)
        assert new_leader is not None
        assert new_leader.id != leader.id
        assert new_leader.ballot > leader.ballot

    def test_even_group_rejected(self):
        with pytest.raises(ValueError):
            deploy_paxos(Cluster(), ["a", "b"])


class TestReplication:
    def test_put_get_roundtrip(self):
        cluster, nodes, group = deploy()
        results = run_ops(cluster, group, [("put", "k", "v"), ("get", "k")])
        assert results == [(True, None), (True, "v")]

    def test_replicas_converge(self):
        cluster, nodes, group = deploy()
        ops = [("put", f"k{i}", f"v{i}") for i in range(50)]
        results = run_ops(cluster, group, ops)
        assert all(ok for ok, _ in results)
        cluster.run(until_ms=cluster.kernel.now + 2000.0)
        checksums = {n.kv.checksum() for n in nodes.values()}
        assert len(checksums) == 1
        assert all(n.last_applied >= 50 for n in nodes.values())

    def test_committed_values_survive_leader_change(self):
        cluster, nodes, group = deploy()
        results = run_ops(cluster, group, [("put", "stable", "1")])
        assert results[0][0]
        find_paxos_leader(nodes).node.crash()
        cluster.run(until_ms=cluster.kernel.now + 10_000.0)
        results = run_ops(cluster, group, [("get", "stable")])
        assert results == [(True, "1")]

    def test_follower_redirects(self):
        cluster, nodes, group = deploy()
        node = cluster.add_client("c1")
        node.start()
        client = KvServiceClient(node, ["s2", "s1", "s3"])
        results = []

        def script():
            ok, _ = yield from client.execute(("put", "a", "b"), size_bytes=64)
            results.append(ok)

        node.runtime.spawn(script())
        cluster.run(until_ms=cluster.kernel.now + 5000.0)
        assert results == [True]
        assert client.redirects >= 1


class TestFailSlowTolerance:
    def test_slow_acceptor_does_not_stall_commits(self):
        cluster, nodes, group = deploy()
        FaultInjector(cluster).inject("s3", "cpu_slow")
        results = run_ops(cluster, group, [("put", f"k{i}", "v") for i in range(20)])
        assert all(ok for ok, _ in results)

    @pytest.mark.slow
    def test_throughput_band_under_network_slow_acceptor(self):
        cluster, nodes, group = deploy(seed=67)
        workload = YcsbWorkload(cluster.rng.stream("y"), record_count=1000, value_size=1000)
        driver = ClosedLoopDriver(cluster, group, workload, n_clients=16)
        driver.start()
        cluster.run(until_ms=5000.0)
        healthy = driver.report(2000.0, 5000.0)
        FaultInjector(cluster).inject("s3", "network_slow")
        cluster.run(until_ms=6000.0)  # settle
        cluster.run(until_ms=9000.0)
        faulty = driver.report(6000.0, 9000.0)
        drift = abs(faulty.throughput_ops_s - healthy.throughput_ops_s)
        assert drift / healthy.throughput_ops_s < 0.10

    def test_repair_fills_acceptor_holes_after_fault(self):
        cluster, nodes, group = deploy(seed=71)
        injector = FaultInjector(cluster)
        injector.inject("s3", "cpu_slow")
        ops = [("put", f"k{i}", "v" * 100) for i in range(200)]
        results = run_ops(cluster, group, ops)
        assert all(ok for ok, _ in results)
        injector.clear("s3")
        cluster.run(until_ms=cluster.kernel.now + 30_000.0)
        leader = find_paxos_leader(nodes)
        assert nodes["s3"].contiguous_accepted >= leader.commit_index - 64
        assert nodes["s3"].kv.checksum() == leader.kv.checksum() or (
            nodes["s3"].last_applied >= leader.last_applied - 64
        )


class TestRecoveryDetails:
    def test_new_leader_adopts_accepted_values(self):
        """A value accepted by a majority must survive re-election."""
        cluster, nodes, group = deploy()
        results = run_ops(cluster, group, [("put", "x", "precious")])
        assert results[0][0]
        old = find_paxos_leader(nodes)
        old.node.crash()
        cluster.run(until_ms=cluster.kernel.now + 10_000.0)
        new = find_paxos_leader(nodes)
        # The slot holding "x" is still applied on the new leader.
        assert new.kv.get("x") == "precious"

    def test_noop_fills_holes_from_prepare(self):
        cluster, nodes, group = deploy()
        run_ops(cluster, group, [("put", "a", "1")])
        leader = find_paxos_leader(nodes)
        leader.node.crash()
        cluster.run(until_ms=cluster.kernel.now + 10_000.0)
        # Whatever happened, the new leader's applied prefix is contiguous.
        new = find_paxos_leader(nodes)
        for slot in range(1, new.last_applied + 1):
            assert slot in new.accepted


class TestDeposedLeaderPromise:
    @staticmethod
    def _overwrite_a_deposed_leaders_slot():
        # The leader slots X while cut off from both acceptors; a new leader
        # commits Y at that slot; then the partition heals.
        cluster, nodes, group = deploy(client_commit_timeout_ms=30_000.0)
        client = cluster.add_client("cx")
        client.start()
        replies = {}

        def send(name, target, op):
            rpc = client.endpoint.call(target, "client_request", {"op": op}, size_bytes=64)
            result = yield rpc.wait(timeout_ms=60_000.0)
            replies[name] = None if result.timed_out or not rpc.ok else rpc.reply

        start = cluster.kernel.now
        cluster.network.partition(["s1"], ["s2", "s3"])
        client.runtime.spawn(send("x", "s1", ("put", "k", "x")))
        cluster.run(until_ms=start + 5_000.0)
        assert [op for _b, op in nodes["s1"].accepted.values()] == [("put", "k", "x")]
        new = next(node for node in (nodes["s2"], nodes["s3"]) if node.is_leader)
        client.runtime.spawn(send("y", new.id, ("put", "k", "y")))
        cluster.run(until_ms=start + 7_000.0)
        assert replies == {"y": {"ok": True, "result": None}}
        cluster.network.heal()
        cluster.run(until_ms=start + 12_000.0)
        return nodes, replies

    @pytest.mark.xfail(
        strict=True,
        reason="Multi-Paxos keys a client's completion by slot alone: a deposed "
        "leader answers ok for whatever value lands in its slot (ROADMAP 1(i), "
        "item 10 step 2)",
    )
    def test_overwritten_slot_never_acks_its_first_proposal(self):
        _nodes, replies = self._overwrite_a_deposed_leaders_slot()
        assert "x" in replies
        assert not replies["x"]["ok"]

    @pytest.mark.xfail(
        strict=True,
        reason="a deposed leader applies its own unchosen value: _learn trusts "
        "contiguous_accepted, which counts the slot it accepted from itself, so "
        "s1 ends with k=x and s2, s3 with k=y (ROADMAP item 10 step 2)",
    )
    def test_replicas_agree_after_the_heal(self):
        nodes, _replies = self._overwrite_a_deposed_leaders_slot()
        values = {name: node.kv.get("k") for name, node in nodes.items()}
        assert len(set(values.values())) == 1, values
