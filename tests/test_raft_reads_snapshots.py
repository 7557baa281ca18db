"""Tests for linearizable read modes and log compaction/snapshots."""

import pytest

from repro.cluster.cluster import Cluster
from repro.faults.injector import FaultInjector
from repro.raft.config import RaftConfig
from repro.raft.log import RaftLog
from repro.raft.service import deploy_depfast_raft, wait_for_leader
from repro.raft.types import LogEntry
from repro.workload.driver import ClosedLoopDriver, KvServiceClient
from repro.workload.ycsb import YcsbWorkload

GROUP = ["s1", "s2", "s3"]


def deploy(seed=41, **config_kwargs):
    cluster = Cluster(seed=seed)
    config = RaftConfig(preferred_leader="s1", **config_kwargs)
    raft = deploy_depfast_raft(cluster, GROUP, config=config)
    wait_for_leader(cluster, raft)
    return cluster, raft


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


# ---------------------------------------------------------------------------
# Read modes
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("mode", ["log", "read_index", "lease"])
class TestReadModes:
    def test_read_your_writes(self, mode):
        cluster, raft = deploy(read_mode=mode)
        results = run_ops(
            cluster, [("put", "k", "v1"), ("get", "k"), ("put", "k", "v2"), ("get", "k")]
        )
        assert results == [(True, None), (True, "v1"), (True, None), (True, "v2")]

    def test_reads_tolerate_fail_slow_follower(self, mode):
        cluster, raft = deploy(read_mode=mode)
        run_ops(cluster, [("put", "k", "v")])
        FaultInjector(cluster).inject("s3", "cpu_slow")
        results = run_ops(cluster, [("get", "k")] * 5)
        assert results == [(True, "v")] * 5


class TestReadModeMechanics:
    def test_read_index_skips_the_log(self):
        cluster, raft = deploy(read_mode="read_index")
        run_ops(cluster, [("put", "k", "v")])
        log_before = raft["s1"].log.last_index()
        run_ops(cluster, [("get", "k")] * 10)
        assert raft["s1"].log.last_index() == log_before  # no entries for reads
        assert raft["s1"].read_probes >= 10

    def test_lease_mode_avoids_per_read_probes(self):
        cluster, raft = deploy(read_mode="lease")
        run_ops(cluster, [("put", "k", "v")])
        cluster.run(until_ms=cluster.kernel.now + 1000.0)  # lease established
        probes_before = raft["s1"].read_probes
        run_ops(cluster, [("get", "k")] * 10)
        # Reads under a live lease need no per-read probe round.
        assert raft["s1"].read_probes == probes_before
        assert raft["s1"].reads_served >= 10

    def test_log_mode_appends_reads(self):
        cluster, raft = deploy(read_mode="log")
        run_ops(cluster, [("put", "k", "v")])
        log_before = raft["s1"].log.last_index()
        run_ops(cluster, [("get", "k")] * 5)
        assert raft["s1"].log.last_index() == log_before + 5

    def test_invalid_read_mode_rejected(self):
        with pytest.raises(ValueError):
            RaftConfig(read_mode="psychic")

    @pytest.mark.xfail(
        strict=True,
        reason="a follower grants a vote while it still follows a leader whose "
        "lease it just renewed (no leader stickiness, Raft thesis 6.4.1), so the "
        "old leader serves lease reads after a new leader acked a write "
        "(ROADMAP 1(iv))",
    )
    def test_lease_read_never_misses_a_newer_leaders_write(self):
        # s1 leads and holds a lease; s3, cut off from s1 only, wins a new
        # term with s2's vote and acks k=v2 while s1 still serves k locally.
        cluster, raft = deploy(read_mode="lease")
        run_ops(cluster, [("put", "k", "v1")])
        client = cluster.add_client("cx")
        client.start()
        log = []

        def call(target, op):
            sent = cluster.kernel.now
            rpc = client.endpoint.call(target, "client_request", {"op": op}, size_bytes=64)
            result = yield rpc.wait(timeout_ms=1_000.0)
            if not result.timed_out and rpc.ok:
                log.append((sent, cluster.kernel.now, op, rpc.reply))

        def reader():
            for _ in range(200):
                yield from call("s1", ("get", "k"))
                yield client.runtime.sleep(20.0)

        def writer():
            while not raft["s3"].is_leader():
                yield client.runtime.sleep(1.0)
            yield from call("s3", ("put", "k", "v2"))

        cluster.network.block("s1", "s3")
        client.runtime.spawn(reader())
        client.runtime.spawn(writer())
        cluster.run(until_ms=cluster.kernel.now + 5_000.0)
        acked = [done for _sent, done, op, reply in log if op[0] == "put" and reply["ok"]]
        assert acked, "s3 never acked k=v2"
        stale = [
            (sent, reply["result"])
            for sent, _done, op, reply in log
            if op[0] == "get" and reply["ok"] and sent > acked[0] and reply["result"] != "v2"
        ]
        assert stale == [], stale


# ---------------------------------------------------------------------------
# RaftLog compaction unit tests
# ---------------------------------------------------------------------------
def entry(term, index):
    return LogEntry.sized(term, index, ("put", f"k{index}", "v"))


class TestLogCompaction:
    def _filled(self, n=20):
        log = RaftLog()
        for i in range(1, n + 1):
            log.append(entry(1, i))
        return log

    def test_truncate_prefix_moves_base(self):
        log = self._filled(20)
        dropped = log.truncate_prefix(12)
        assert dropped == 12
        assert log.base_index == 12
        assert log.base_term == 1
        assert log.last_index() == 20
        assert log.live_entries() == 8
        assert log.entry_at(13).index == 13

    def test_compacted_entries_unreachable(self):
        log = self._filled(20)
        log.truncate_prefix(12)
        with pytest.raises(IndexError):
            log.entry_at(12)
        assert log.term_at(12) == 1      # the base itself keeps its term
        assert log.term_at(5) is None    # below the base: gone

    def test_append_continues_after_compaction(self):
        log = self._filled(10)
        log.truncate_prefix(10)
        assert log.live_entries() == 0
        log.append(entry(2, 11))
        assert log.last_index() == 11
        assert log.last_term() == 2

    def test_matches_below_base_is_true(self):
        log = self._filled(10)
        log.truncate_prefix(8)
        assert log.matches(5, 1)      # compacted: covered by the snapshot
        assert log.matches(8, 1)      # the base, term checked
        assert not log.matches(8, 9)  # wrong base term

    def test_append_or_overwrite_skips_snapshotted_entries(self):
        log = self._filled(10)
        log.truncate_prefix(8)
        changed = log.append_or_overwrite([entry(1, i) for i in range(5, 13)])
        assert changed == 2  # only 11 and 12 are new
        assert log.last_index() == 12

    def test_slice_clamps_to_live_range(self):
        log = self._filled(10)
        log.truncate_prefix(6)
        assert [e.index for e in log.slice(1, 8)] == [7, 8]
        assert log.slice(2, 5) == []

    def test_reset_to_snapshot(self):
        log = self._filled(5)
        log.reset_to_snapshot(100, 7)
        assert log.base_index == 100
        assert log.last_index() == 100
        assert log.last_term() == 7
        assert log.live_entries() == 0

    def test_invalid_compaction_rejected(self):
        log = self._filled(10)
        with pytest.raises(ValueError):
            log.truncate_prefix(11)
        log.truncate_prefix(5)
        assert log.truncate_prefix(3) == 0  # backwards: no-op
        with pytest.raises(ValueError):
            log.truncate_from(4)  # inside the snapshot


# ---------------------------------------------------------------------------
# End-to-end compaction + snapshot install
# ---------------------------------------------------------------------------
class TestSnapshotInstall:
    @pytest.mark.slow
    def test_compaction_bounds_live_log(self):
        cluster, raft = deploy(
            snapshot_threshold_entries=400, compaction_keep_entries=100
        )
        workload = YcsbWorkload(cluster.rng.stream("y"), record_count=500, value_size=100)
        driver = ClosedLoopDriver(cluster, GROUP, workload, n_clients=16)
        driver.start()
        cluster.run(until_ms=4000.0)
        leader = raft["s1"]
        assert leader.snapshots_taken >= 1
        assert leader.log.live_entries() <= 500 + 64  # base window + one batch

    @pytest.mark.slow
    def test_far_behind_follower_repaired_via_snapshot(self):
        cluster, raft = deploy(
            snapshot_threshold_entries=400, compaction_keep_entries=100
        )
        injector = FaultInjector(cluster)
        injector.inject("s3", "cpu_slow")  # s3 falls far behind
        # Heavy values: the bounded send buffer toward s3 overflows, the
        # direct stream breaks, and by the time repair runs the leader has
        # compacted past s3's acked index — forcing the snapshot path.
        workload = YcsbWorkload(cluster.rng.stream("y"), record_count=500, value_size=1000)
        driver = ClosedLoopDriver(cluster, GROUP, workload, n_clients=32)
        driver.start()
        cluster.run(until_ms=8000.0)
        injector.clear("s3")
        cluster.run(until_ms=30_000.0)
        assert raft["s1"].snapshots_taken >= 1
        assert raft["s3"].snapshots_installed >= 1
        # Caught up to within one in-flight batch (clients keep writing).
        lag = raft["s1"].log.last_index() - raft["s3"].log.last_index()
        assert 0 <= lag <= 64

    def test_snapshot_then_new_writes_still_converge(self):
        cluster, raft = deploy(
            snapshot_threshold_entries=300, compaction_keep_entries=50
        )
        ops = [("put", f"k{i % 40}", f"v{i}") for i in range(600)]
        results = run_ops(cluster, ops)
        assert all(ok for ok, _ in results)
        cluster.run(until_ms=cluster.kernel.now + 3000.0)
        checksums = {r.kv.checksum() for r in raft.values()}
        assert len(checksums) == 1
