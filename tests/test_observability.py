"""Tests for wait breakdowns and trace-point peer-slowness detection (§5)."""

import pytest

from repro.cluster.cluster import Cluster
from repro.detector.peer_monitor import analyze_peer_slowness
from repro.faults.injector import FaultInjector
from repro.raft.config import RaftConfig
from repro.raft.service import deploy_depfast_raft, wait_for_leader
from repro.trace.analysis import busiest_waits, node_wait_breakdown, render_breakdown
from repro.trace.tracepoints import WaitRecord
from repro.workload.driver import ClosedLoopDriver
from repro.workload.ycsb import YcsbWorkload

GROUP = ["s1", "s2", "s3"]


def record(node, kind, name, waited):
    return WaitRecord(
        coro_name="c",
        node=node,
        event_kind=kind,
        event_name=name,
        edges=[],
        started_at=0.0,
        ended_at=waited,
        timed_out=False,
    )


class TestBreakdownUnits:
    RECORDS = [
        record("s1", "quorum", "repl", 60.0),
        record("s1", "quorum", "repl", 20.0),
        record("s1", "disk", "fsync", 20.0),
        record("s2", "cpu", "apply", 99.0),  # other node: excluded
    ]

    def test_breakdown_shares_sum_to_one(self):
        breakdown = node_wait_breakdown(self.RECORDS, "s1")
        assert breakdown["quorum"] == (80.0, pytest.approx(0.8))
        assert breakdown["disk"] == (20.0, pytest.approx(0.2))
        assert sum(share for _total, share in breakdown.values()) == pytest.approx(1.0)

    def test_empty_node_breakdown(self):
        assert node_wait_breakdown(self.RECORDS, "ghost") == {}

    def test_busiest_waits_ranked_by_total(self):
        ranked = busiest_waits(self.RECORDS, "s1")
        assert ranked[0] == ("repl", 2, 80.0)
        assert ranked[1] == ("fsync", 1, 20.0)

    def test_render_contains_rows(self):
        text = render_breakdown(self.RECORDS, "s1")
        assert "quorum" in text and "80.0" in text
        assert "(no recorded waits)" in render_breakdown(self.RECORDS, "ghost")


@pytest.mark.slow
class TestPeerSlownessDetection:
    def _traced_cluster(self, fault=None, victim="s3"):
        cluster = Cluster(seed=47)
        raft = deploy_depfast_raft(cluster, GROUP, config=RaftConfig(preferred_leader="s1"))
        wait_for_leader(cluster, raft)
        if fault:
            FaultInjector(cluster).inject(victim, fault)
        workload = YcsbWorkload(cluster.rng.stream("y"), record_count=1000, value_size=1000)
        driver = ClosedLoopDriver(cluster, GROUP, workload, n_clients=16)
        driver.start()
        cluster.run(until_ms=6000.0)
        return cluster

    def test_healthy_cluster_has_no_suspects(self):
        cluster = self._traced_cluster()
        report = analyze_peer_slowness(cluster.tracer, node="s1")
        assert report.suspects == []
        assert len(report.profiles) >= 2

    @pytest.mark.parametrize("fault", ["cpu_slow", "network_slow", "disk_slow"])
    def test_fail_slow_follower_is_flagged(self, fault):
        cluster = self._traced_cluster(fault=fault)
        report = analyze_peer_slowness(cluster.tracer, node="s1", since_ms=1000.0)
        assert report.suspects == ["s3"], report.summary()

    def test_summary_marks_the_suspect(self):
        cluster = self._traced_cluster(fault="network_slow")
        report = analyze_peer_slowness(cluster.tracer, node="s1", since_ms=1000.0)
        assert "FAIL-SLOW" in report.summary()

    def test_rpc_trace_points_cover_stragglers(self):
        """Even the tolerated slow follower's replies are traced."""
        cluster = self._traced_cluster(fault="network_slow")
        peers = {peer for _n, peer, _m, _l, _t in cluster.tracer.rpc_latencies}
        assert "s3" in peers

    def test_factor_validation(self):
        cluster = Cluster()
        with pytest.raises(ValueError):
            analyze_peer_slowness(cluster.tracer, factor=1.0)

    def test_wait_profile_of_live_leader(self):
        cluster = self._traced_cluster()
        breakdown = node_wait_breakdown(cluster.tracer.records, "s1")
        # The leader's waits include replication quorums and local values.
        assert "quorum" in breakdown
        text = render_breakdown(cluster.tracer.records, "s1")
        assert "quorum" in text
