"""Baseline RSM tests: correctness plus each system's signature pathology."""

import pytest

from repro.baselines import BASELINE_SYSTEMS, deploy_baseline
from repro.baselines.mongo_like import MongoLikeRsm
from repro.baselines.rethink_like import RethinkLikeRsm
from repro.baselines.tidb_like import TidbLikeRsm
from repro.cluster.cluster import Cluster
from repro.faults.injector import FaultInjector
from repro.trace.verify import check_fail_slow_tolerance
from repro.workload.driver import ClosedLoopDriver, KvServiceClient
from repro.workload.ycsb import YcsbWorkload

GROUP = ["s1", "s2", "s3"]


def deploy(system_cls, seed=5):
    cluster = Cluster(seed=seed)
    nodes = deploy_baseline(cluster, system_cls, GROUP)
    return cluster, nodes


def run_ops(cluster, ops):
    node = cluster.add_client(f"cx{cluster.kernel.now:.0f}")
    node.start()
    client = KvServiceClient(node, GROUP)
    results = []

    def script():
        for op in ops:
            ok, value = yield from client.execute(op, size_bytes=64)
            results.append((ok, value))

    node.runtime.spawn(script())
    cluster.run(until_ms=cluster.kernel.now + 20_000.0)
    return results


def drive(cluster, n_clients=32, until=6000.0, value_size=1000):
    workload = YcsbWorkload(
        cluster.rng.stream("ycsb"), record_count=10_000, value_size=value_size
    )
    driver = ClosedLoopDriver(cluster, GROUP, workload, n_clients=n_clients)
    driver.start()
    cluster.run(until_ms=until)
    return driver


@pytest.mark.parametrize("system_cls", list(BASELINE_SYSTEMS.values()), ids=list(BASELINE_SYSTEMS))
class TestBaselineCorrectness:
    def test_put_get_roundtrip(self, system_cls):
        cluster, nodes = deploy(system_cls)
        results = run_ops(cluster, [("put", "k", "v"), ("get", "k")])
        assert results == [(True, None), (True, "v")]

    def test_replicas_converge(self, system_cls):
        cluster, nodes = deploy(system_cls)
        ops = [("put", f"k{i}", f"v{i}") for i in range(30)]
        results = run_ops(cluster, ops)
        assert all(ok for ok, _ in results)
        cluster.run(until_ms=cluster.kernel.now + 2000.0)
        checksums = {rsm.kv.checksum() for rsm in nodes.values()}
        assert len(checksums) == 1

    def test_follower_redirects_to_leader(self, system_cls):
        cluster, nodes = deploy(system_cls)
        node = cluster.add_client("c1")
        node.start()
        client = KvServiceClient(node, ["s2", "s1", "s3"])  # follower first
        results = []

        def script():
            ok, _ = yield from client.execute(("put", "a", "b"), size_bytes=64)
            results.append(ok)

        node.runtime.spawn(script())
        cluster.run(until_ms=5000.0)
        assert results == [True]
        assert client.redirects >= 1


class TestMongoLikePathology:
    @pytest.mark.slow
    def test_healthy_checkpoints_do_not_stall(self):
        cluster, nodes = deploy(MongoLikeRsm)
        drive(cluster, until=4000.0)
        leader = nodes["s1"]
        assert leader.batches_committed > 20
        assert leader.checkpoint_stalls == 0

    def test_slow_follower_causes_checkpoint_stalls(self):
        cluster, nodes = deploy(MongoLikeRsm)
        FaultInjector(cluster).inject("s3", "cpu_slow")
        drive(cluster, until=4000.0)
        leader = nodes["s1"]
        assert leader.checkpoint_stalls > 5
        assert leader.checkpoint_stall_ms > 50.0

    def test_checker_flags_the_all_follower_wait(self):
        cluster, nodes = deploy(MongoLikeRsm)
        FaultInjector(cluster).inject("s3", "cpu_slow")
        drive(cluster, until=3000.0)
        report = check_fail_slow_tolerance(cluster.tracer.records, [GROUP])
        assert not report.tolerant
        sources = {violation.source for violation in report.violations}
        assert "s3" in sources  # the checkpoint waited on the slow follower


class TestTidbLikePathology:
    @pytest.mark.slow
    def test_healthy_run_has_no_blocking_reads(self):
        cluster, nodes = deploy(TidbLikeRsm)
        drive(cluster, until=4000.0)
        assert nodes["s1"].blocking_reads == 0

    @pytest.mark.slow
    def test_slow_follower_forces_blocking_reads(self):
        cluster, nodes = deploy(TidbLikeRsm)
        FaultInjector(cluster).inject("s3", "cpu_slow")
        drive(cluster, until=6000.0)
        leader = nodes["s1"]
        assert leader.blocking_reads > 50
        assert leader.blocking_read_ms > 200.0
        # The cache is what forces the disk path.
        assert leader.log.cache_misses > 0

    @pytest.mark.slow
    def test_blocking_reads_depress_throughput(self):
        healthy_cluster, _ = deploy(TidbLikeRsm)
        healthy = drive(healthy_cluster, until=6000.0).report(2000.0, 6000.0)
        faulty_cluster, _ = deploy(TidbLikeRsm)
        FaultInjector(faulty_cluster).inject("s3", "disk_slow")
        faulty = drive(faulty_cluster, until=6000.0).report(2000.0, 6000.0)
        assert faulty.throughput_ops_s < 0.9 * healthy.throughput_ops_s


class TestRethinkLikePathology:
    @pytest.mark.slow
    def test_slow_follower_grows_unbounded_buffer(self):
        cluster, nodes = deploy(RethinkLikeRsm)
        FaultInjector(cluster).inject("s3", "cpu_slow")
        drive(cluster, until=3000.0)
        leader = nodes["s1"]
        assert leader.leader_backlog_bytes() > 5 * 1024 * 1024

    @pytest.mark.slow
    def test_cpu_slow_follower_ooms_the_leader(self):
        cluster, nodes = deploy(RethinkLikeRsm)
        FaultInjector(cluster).inject("s3", "cpu_slow")
        drive(cluster, n_clients=48, until=10_000.0)
        leader_node = nodes["s1"].node
        assert leader_node.crashed
        assert "OOM" in leader_node.crash_reason

    @pytest.mark.slow
    def test_healthy_run_does_not_crash(self):
        cluster, nodes = deploy(RethinkLikeRsm)
        drive(cluster, n_clients=48, until=10_000.0)
        assert not any(rsm.node.crashed for rsm in nodes.values())

    @pytest.mark.slow
    def test_status_sync_stalls_under_network_slow_follower(self):
        cluster, nodes = deploy(RethinkLikeRsm)
        FaultInjector(cluster).inject("s3", "network_slow")
        drive(cluster, until=4000.0)
        assert nodes["s1"].status_stalls > 3
