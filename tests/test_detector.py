"""Tests for the §5 fail-slow leader detector and re-election mitigation."""

import pytest

from repro.cluster.cluster import Cluster
from repro.detector import DetectorConfig, LeaderSlownessDetector
from repro.detector.leader_detector import (
    RESUSPECT_COOLDOWN_MS,
    STRIKES_TO_SUSPECT,
    attach_detectors,
)
from repro.detector.peer_monitor import PeerLatencyProfile
from repro.faults.chaos import Nemesis
from repro.faults.injector import FaultInjector
from repro.raft.config import RaftConfig
from repro.raft.service import deploy_depfast_raft, find_leader, wait_for_leader
from repro.raft.types import Role
from repro.workload.driver import ClosedLoopDriver
from repro.workload.ycsb import YcsbWorkload

GROUP = ["s1", "s2", "s3"]


def deploy_with_detectors(seed=19, detector_config=None):
    cluster = Cluster(seed=seed)
    raft = deploy_depfast_raft(
        cluster, GROUP, config=RaftConfig(preferred_leader="s1")
    )
    detectors = attach_detectors(raft, config=detector_config)
    wait_for_leader(cluster, raft)
    workload = YcsbWorkload(
        cluster.rng.stream("ycsb"), record_count=10_000, value_size=1000
    )
    driver = ClosedLoopDriver(cluster, GROUP, workload, n_clients=32)
    driver.start()
    return cluster, raft, detectors, driver


class TestDetection:
    @pytest.mark.slow
    def test_healthy_leader_never_suspected(self):
        cluster, raft, detectors, driver = deploy_with_detectors()
        cluster.run(until_ms=8000.0)
        assert all(detector.suspected is None for detector in detectors)
        assert find_leader(raft).id == "s1"

    @pytest.mark.slow
    def test_fail_slow_leader_gets_suspected_and_demoted(self):
        cluster, raft, detectors, driver = deploy_with_detectors()
        cluster.run(until_ms=3000.0)  # healthy baseline for the detectors
        FaultInjector(cluster).inject("s1", "cpu_slow")
        cluster.run(until_ms=20_000.0)
        suspects = [d.suspected for d in detectors if d.suspected]
        assert "s1" in suspects
        new_leader = find_leader(raft)
        assert new_leader is not None
        assert new_leader.id != "s1"

    @pytest.mark.slow
    def test_throughput_recovers_after_mitigation(self):
        cluster, raft, detectors, driver = deploy_with_detectors()
        cluster.run(until_ms=3000.0)
        healthy = driver.report(1000.0, 3000.0)
        FaultInjector(cluster).inject("s1", "cpu_slow")
        cluster.run(until_ms=12_000.0)  # detect + re-elect + settle
        cluster.run(until_ms=18_000.0)
        recovered = driver.report(12_000.0, 18_000.0)
        # The fail-slow node is now a follower, which DepFastRaft
        # tolerates: throughput returns to the same order of magnitude.
        assert recovered.throughput_ops_s > 0.5 * healthy.throughput_ops_s

    @pytest.mark.slow
    def test_without_detector_fail_slow_leader_stays(self):
        cluster = Cluster(seed=19)
        raft = deploy_depfast_raft(
            cluster, GROUP, config=RaftConfig(preferred_leader="s1")
        )
        wait_for_leader(cluster, raft)
        workload = YcsbWorkload(
            cluster.rng.stream("ycsb"), record_count=10_000, value_size=1000
        )
        driver = ClosedLoopDriver(cluster, GROUP, workload, n_clients=32)
        driver.start()
        cluster.run(until_ms=3000.0)
        FaultInjector(cluster).inject("s1", "cpu_slow")
        cluster.run(until_ms=15_000.0)
        # Heartbeats still flow, so vanilla Raft never re-elects: the
        # fail-slow leader keeps the crown and performance stays degraded.
        assert find_leader(raft).id == "s1"
        degraded = driver.report(8000.0, 15_000.0)
        healthy = driver.report(1000.0, 3000.0)
        assert degraded.throughput_ops_s < 0.6 * healthy.throughput_ops_s


class FakeRaft:
    """Duck-typed RaftNode surface that observe_window consumes."""

    def __init__(self):
        self.id = "s2"
        self.commit_index = 0
        self.role = Role.FOLLOWER
        self.leader_hint = "s1"
        self.last_leader_pending = 0
        self.peak_leader_pending = 0
        self.suspected_leader = None
        self.term = 3


class TestObserveWindow:
    """Drive windows by hand against a fake raft (regression surface)."""

    WINDOW = 500.0

    def setup_method(self):
        self.raft = FakeRaft()
        self.detector = LeaderSlownessDetector(self.raft)
        self.now = 0.0

    def window(self, delta=0, pending=0, role=Role.FOLLOWER, leader="s1"):
        self.raft.role = role
        self.raft.leader_hint = leader
        self.raft.commit_index += delta
        self.raft.peak_leader_pending = pending
        self.raft.last_leader_pending = 0
        self.now += self.WINDOW
        self.detector.observe_window(self.now)

    def test_skipped_windows_do_not_inflate_best_rate(self):
        # Healthy baseline: 100 commits per window.
        for _ in range(3):
            self.window(delta=100)
        # The node leads for a while: windows are skipped, but commits
        # keep accumulating. The buggy detector left the baseline stale
        # here, so the first follower window spanned all of them.
        for _ in range(4):
            self.window(delta=400, role=Role.LEADER)
        # Back to following: one re-arm window, then the same healthy
        # rate with a busy-but-fine leader (backed up AND committing).
        self.window(delta=100)
        for _ in range(5):
            self.window(delta=100, pending=20)
        # A stale baseline would read the post-skip delta as a 16x best
        # rate, making every healthy window look like a crawl.
        assert self.detector._best_commit_rate == pytest.approx(100 / self.WINDOW)
        assert self.detector.suspicions == []
        assert self.raft.suspected_leader is None

    def crawl_until_suspected(self, leader):
        for _ in range(10):
            self.window(delta=2, pending=20, leader=leader)
            if self.raft.suspected_leader == leader:
                return
        raise AssertionError(f"{leader} never suspected")

    def test_resuspects_new_leader_after_flap(self):
        for _ in range(3):
            self.window(delta=100)
        self.crawl_until_suspected("s1")
        assert [s.leader for s in self.detector.suspicions] == ["s1"]
        # An election replaces the suspect; the new leader is healthy for
        # a while, then the flapping fault catches up with it. The old
        # one-shot guard (`suspected is None`) went blind here.
        for _ in range(3):
            self.window(delta=100, leader="s3")
        self.crawl_until_suspected("s3")
        assert [s.leader for s in self.detector.suspicions] == ["s1", "s3"]

    def test_same_leader_resuspected_only_after_cooldown(self):
        for _ in range(3):
            self.window(delta=100)
        self.crawl_until_suspected("s1")
        # Suppose mitigation cleared the suspicion (recovery probation).
        self.detector.unsuspect("s1", self.now)
        # The verdict no longer stands, and neither does its time.
        assert (self.detector.suspected, self.detector.suspected_at) == (None, None)
        # Still inside the cool-down: crawling windows must not re-flag.
        for _ in range(6):
            self.window(delta=2, pending=20)
        assert len(self.detector.suspicions) == 1
        # Past the cool-down the same leader is fair game again.
        self.now += RESUSPECT_COOLDOWN_MS
        self.crawl_until_suspected("s1")
        assert len(self.detector.suspicions) == 2


class TestMedianInterpolation:
    def test_even_count_interpolates(self):
        profile = PeerLatencyProfile("s1", "s2", [1.0, 2.0, 3.0, 4.0])
        # The upper-element shortcut said 3.0 — half a sample gap high,
        # enough to flip factor-based suspicion on sample-count parity.
        assert profile.median_ms == pytest.approx(2.5)

    def test_odd_count_exact(self):
        profile = PeerLatencyProfile("s1", "s2", [5.0, 1.0, 3.0])
        assert profile.median_ms == pytest.approx(3.0)

    def test_two_samples(self):
        profile = PeerLatencyProfile("s1", "s2", [10.0, 20.0])
        assert profile.median_ms == pytest.approx(15.0)


class TestFlappingChaos:
    @pytest.mark.slow
    def test_flapping_fault_resuspected_every_pulse(self):
        cluster, raft, detectors, driver = deploy_with_detectors()
        nemesis = Nemesis(cluster, raft, injector=FaultInjector(cluster))
        # cpu_slow chases the leadership: pulse 1 hits s1, the detector
        # re-elects, pulse 2 hits whoever leads then.
        nemesis.schedule_flapping(
            "__leader__", "cpu_slow", 3_000.0, on_ms=5_000.0, off_ms=4_000.0, cycles=2
        )
        cluster.run(until_ms=22_000.0)
        suspicions = [s for d in detectors for s in d.suspicions]
        suspected = {s.leader for s in suspicions}
        # Both pulses were caught, against different leader identities.
        assert len(suspected) >= 2
        assert len(suspicions) >= 2


class TestDetectorUnit:
    def test_double_start_rejected(self):
        cluster = Cluster(seed=1)
        raft = deploy_depfast_raft(cluster, GROUP)
        detector = LeaderSlownessDetector(raft["s2"])
        detector.start()
        with pytest.raises(RuntimeError):
            detector.start()

    def test_config_defaults_sane(self):
        assert STRIKES_TO_SUSPECT >= 1
        assert 0 < DetectorConfig().commit_rate_fraction < 1
