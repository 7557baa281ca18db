"""DepFastRaft integration tests on the simulated cluster."""

import pytest

from repro.cluster.cluster import Cluster
from repro.faults.injector import FaultInjector
from repro.raft.config import RaftConfig
from repro.raft.service import deploy_depfast_raft, find_leader, wait_for_leader
from repro.raft.types import LogEntry, Role
from repro.trace.verify import check_fail_slow_tolerance
from repro.workload.driver import ClosedLoopDriver, KvServiceClient
from repro.workload.ycsb import YcsbWorkload


def deploy(n=3, seed=7, **config_kwargs):
    cluster = Cluster(seed=seed)
    group = [f"s{i+1}" for i in range(n)]
    config = RaftConfig(preferred_leader="s1", **config_kwargs)
    raft = deploy_depfast_raft(cluster, group, config=config)
    return cluster, raft, group


def run_client_ops(cluster, group, ops, client_node=None):
    """Synchronously execute a list of KV ops; returns results."""
    node = client_node or cluster.add_client(f"cx{cluster.kernel.now:.0f}")
    if client_node is None:
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


class TestElection:
    def test_preferred_leader_wins_first_election(self):
        cluster, raft, group = deploy()
        leader = wait_for_leader(cluster, raft)
        assert leader.id == "s1"
        assert leader.role == Role.LEADER

    def test_exactly_one_leader(self):
        cluster, raft, group = deploy(n=5)
        wait_for_leader(cluster, raft)
        cluster.run(until_ms=5000.0)
        leaders = [r for r in raft.values() if r.role == Role.LEADER]
        assert len(leaders) == 1

    def test_leader_crash_triggers_reelection(self):
        cluster, raft, group = deploy()
        leader = wait_for_leader(cluster, raft)
        leader.node.crash()
        cluster.run(until_ms=cluster.kernel.now + 10_000.0)
        new_leader = find_leader(raft)
        assert new_leader is not None
        assert new_leader.id != leader.id
        assert new_leader.term > leader.term

    def test_single_node_group_becomes_leader(self):
        cluster = Cluster(seed=1)
        raft = deploy_depfast_raft(
            cluster, ["solo"], config=RaftConfig(preferred_leader="solo")
        )
        leader = wait_for_leader(cluster, raft)
        assert leader.id == "solo"

    def test_even_group_size_rejected(self):
        cluster = Cluster()
        with pytest.raises(ValueError):
            deploy_depfast_raft(cluster, ["a", "b"])


class TestReplication:
    def test_put_commits_and_reads_back(self):
        cluster, raft, group = deploy()
        wait_for_leader(cluster, raft)
        results = run_client_ops(
            cluster, group, [("put", "k1", "v1"), ("get", "k1")]
        )
        assert results == [(True, None), (True, "v1")]

    def test_logs_and_state_converge_across_replicas(self):
        cluster, raft, group = deploy()
        wait_for_leader(cluster, raft)
        ops = [("put", f"key{i}", f"val{i}") for i in range(50)]
        results = run_client_ops(cluster, group, ops)
        assert all(ok for ok, _ in results)
        cluster.run(until_ms=cluster.kernel.now + 2000.0)  # quiesce
        checksums = {r.kv.checksum() for r in raft.values()}
        assert len(checksums) == 1
        applied = {r.last_applied for r in raft.values()}
        assert applied == {50}

    def test_follower_redirects_clients_to_leader(self):
        cluster, raft, group = deploy()
        wait_for_leader(cluster, raft)
        node = cluster.add_client("c1")
        node.start()
        # Point the client at a follower first.
        client = KvServiceClient(node, ["s3", "s1", "s2"])
        results = []

        def script():
            ok, _ = yield from client.execute(("put", "a", "b"), size_bytes=64)
            results.append(ok)

        node.runtime.spawn(script())
        cluster.run(until_ms=cluster.kernel.now + 5000.0)
        assert results == [True]
        assert client.redirects >= 1

    def test_commits_survive_leader_failover(self):
        cluster, raft, group = deploy()
        leader = wait_for_leader(cluster, raft)
        results = run_client_ops(cluster, group, [("put", "stable", "1")])
        assert results[0][0] is True
        leader.node.crash()
        cluster.run(until_ms=cluster.kernel.now + 10_000.0)
        results = run_client_ops(cluster, group, [("get", "stable")])
        assert results == [(True, "1")]


class TestLeadershipChange:
    @pytest.mark.parametrize("takeover_holds_the_batch", [False, True])
    def test_a_leader_deposed_during_its_batch_build_fails_the_batch(
        self, takeover_holds_the_batch
    ):
        """A throttled leader is deposed by a higher-term AppendEntries that
        lands while it builds a batch: the batch fails with a redirect and
        no peer is sent it. What the log still holds of it goes to the WAL
        before the newer leader's entries, which cut it or (when the newer
        leader got it through repair) keep it, so recovery keeps every entry
        the store counts durable."""
        cluster, raft, group = deploy()
        leader = wait_for_leader(cluster, raft)
        run_client_ops(cluster, group, [("put", "a", "1")])
        cluster.node("s1").cpu.set_quota(0.01)  # client-op 45 ms, batch build 8 ms
        first, term = leader.log.last_index() + 1, leader.term
        staged = leader.durable.begin_sync()
        client = cluster.add_client("c1")
        client.start()
        put = client.endpoint.call("s1", "client_request", {"op": ("put", "b", "2")}, 64)
        cluster.run(cluster.kernel.now + 5.0)  # s1 is executing the put
        sent = [LogEntry.sized(term + 1, first, ("noop",))]
        if takeover_holds_the_batch:
            sent = [
                LogEntry.sized(term, first, ("put", "b", "2")),
                LogEntry.sized(term + 1, first + 1, ("noop",)),
            ]
        takeover = {
            "term": term + 1,
            "leader": "s2",
            "prev_index": first - 1,
            "prev_term": leader.log.term_at(first - 1),
            "entries": sent,
            "commit": 0,
        }
        cluster.node("s2").endpoint.call("s1", "append_entries", takeover, 64)
        while leader.role == Role.LEADER:
            cluster.run(cluster.kernel.now + 0.1)
        # Deposed after appending the put's entry, before building its batch ends.
        assert leader.log.term_at(first) == term
        assert leader.durable.begin_sync() == staged
        cluster.run(cluster.kernel.now + 100.0)
        assert put.reply == {"ok": False, "redirect": "s2"}
        assert leader.durable.begin_sync() == staged + 2  # the batch's entry, then s2's no-op
        assert [leader.log.term_at(e.index) for e in sent] == [e.term for e in sent]
        assert [raft[peer].log.term_at(first) for peer in ("s2", "s3")] == [None, None]
        durable = leader.durable
        assert durable.durable_count() == leader.log.live_entries()
        durable.recover()
        assert durable.lost_on_recovery == 0 and leader.log.last_index() == sent[-1].index


class TestFailSlowTolerance:
    def _measure(self, cluster, driver, start, end):
        cluster.run(until_ms=end)
        return driver.report(start, end)

    def test_slow_follower_does_not_stall_commits(self):
        cluster, raft, group = deploy()
        wait_for_leader(cluster, raft)
        injector = FaultInjector(cluster)
        injector.inject("s3", "cpu_slow")
        results = run_client_ops(
            cluster, group, [("put", f"k{i}", "v") for i in range(20)]
        )
        assert all(ok for ok, _ in results)

    @pytest.mark.slow
    def test_throughput_within_band_under_network_slow_follower(self):
        cluster, raft, group = deploy(seed=11)
        wait_for_leader(cluster, raft)
        workload = YcsbWorkload(cluster.rng.stream("ycsb"), record_count=1000)
        driver = ClosedLoopDriver(cluster, group, workload, n_clients=16)
        driver.start()
        # Healthy window.
        cluster.run(until_ms=3000.0)
        driver.recorder  # warmup implicitly excluded by windows below
        healthy = self._measure(cluster, driver, 3000.0, 6000.0)
        # Fault window.
        injector = FaultInjector(cluster)
        injector.inject("s2", "network_slow")
        cluster.run(until_ms=7000.0)  # let the fault settle
        faulty = self._measure(cluster, driver, 7000.0, 10_000.0)
        assert healthy.throughput_ops_s > 0
        drift = abs(faulty.throughput_ops_s - healthy.throughput_ops_s)
        assert drift / healthy.throughput_ops_s < 0.10
        assert not faulty.crashed

    def test_repair_catches_up_slow_follower(self):
        cluster, raft, group = deploy(seed=13)
        wait_for_leader(cluster, raft)
        injector = FaultInjector(cluster)
        injector.inject("s3", "cpu_slow")
        ops = [("put", f"k{i}", "v" * 50) for i in range(200)]
        results = run_client_ops(cluster, group, ops)
        assert all(ok for ok, _ in results)
        injector.clear("s3")
        # After the fault clears, repair must bring s3 fully up to date.
        cluster.run(until_ms=cluster.kernel.now + 30_000.0)
        assert raft["s3"].log.last_index() == raft["s1"].log.last_index()
        assert raft["s3"].kv.checksum() == raft["s1"].kv.checksum()

    def test_trace_has_no_intra_group_single_waits(self):
        cluster, raft, group = deploy()
        wait_for_leader(cluster, raft)
        run_client_ops(cluster, group, [("put", f"k{i}", "v") for i in range(10)])
        report = check_fail_slow_tolerance(cluster.tracer.records, [group])
        assert report.tolerant, report.summary()

    @pytest.mark.slow
    def test_bounded_buffers_keep_leader_memory_flat(self):
        cluster, raft, group = deploy(seed=17)
        leader = wait_for_leader(cluster, raft)
        injector = FaultInjector(cluster)
        injector.inject("s3", "cpu_slow")
        workload = YcsbWorkload(cluster.rng.stream("ycsb"), record_count=1000)
        driver = ClosedLoopDriver(cluster, group, workload, n_clients=16)
        driver.start()
        cluster.run(until_ms=10_000.0)
        buffered = cluster.network.buffered_bytes_from("s1")
        assert buffered <= 4 * 1024 * 1024  # bounded by the DepFast limit
        assert not leader.node.crashed


class TestWorkloadDriver:
    @pytest.mark.slow
    def test_driver_reports_throughput_and_latency(self):
        cluster, raft, group = deploy()
        wait_for_leader(cluster, raft)
        workload = YcsbWorkload(cluster.rng.stream("ycsb"), record_count=100)
        driver = ClosedLoopDriver(cluster, group, workload, n_clients=8)
        driver.start()
        cluster.run(until_ms=5000.0)
        report = driver.report(1000.0, 5000.0)
        assert report.throughput_ops_s > 100.0
        assert report.avg_latency_ms > 0.0
        assert report.p99_latency_ms >= report.avg_latency_ms
        assert report.errors == 0
