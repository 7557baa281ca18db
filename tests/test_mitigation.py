"""MitigationController integration: demote, probation, promote, transfer."""

import pytest

from repro.cluster.cluster import Cluster
from repro.detector.mitigation import (
    MitigationConfig,
    MitigationController,
    deploy_mitigation,
)
from repro.detector.signal import PeerHealth
from repro.faults.injector import FaultInjector
from repro.raft.config import RaftConfig
from repro.raft.service import deploy_depfast_raft, find_leader, wait_for_leader
from repro.raft.types import Role
from repro.workload.driver import ClosedLoopDriver
from repro.workload.ycsb import YcsbWorkload

GROUP = ["s1", "s2", "s3"]


def deploy_loop(seed=11, n_clients=8, config=None):
    cluster = Cluster(seed=seed)
    raft = deploy_depfast_raft(
        cluster, GROUP, config=RaftConfig(preferred_leader="s1")
    )
    detectors, controller = deploy_mitigation(cluster, raft, config=config)
    wait_for_leader(cluster, raft)
    workload = YcsbWorkload(
        cluster.rng.stream("ycsb"), record_count=1_000, value_size=200
    )
    driver = ClosedLoopDriver(cluster, GROUP, workload, n_clients=n_clients)
    driver.start()
    return cluster, raft, controller


class TestController:
    @pytest.mark.slow
    def test_slow_follower_demoted_then_promoted_after_probation(self):
        config = MitigationConfig(demote_after_windows=2, probation_windows=4)
        cluster, raft, controller = deploy_loop(config=config)
        FaultInjector(cluster).inject_transient("s3", "cpu_slow", 2_000.0, 5_000.0)
        cluster.run(10_000.0)
        # The link's RTT hysteresis flagged s3 and the controller moved
        # it out of the quorum through the replicated conf change.
        assert controller.demotions >= 1
        demote_actions = [a for a in controller.actions if a.kind == "demote"]
        assert demote_actions and demote_actions[0].node == "s3"
        assert "s3" not in find_leader(raft).voting_members
        # No breaker WALs here: the always-on disk feeder has nothing to
        # trip, and it did not divert the link verdict from demotion.
        assert not any(a.kind.startswith("breaker_") for a in controller.actions)
        assert demote_actions[0].detail == "fail-slow"
        # The fault expired at t=7s; once the link looks healthy for the
        # full probation streak the node is promoted back to a voter.
        cluster.run(25_000.0)
        assert controller.promotions >= 1
        assert "s3" in find_leader(raft).voting_members
        assert raft["s3"].role == Role.FOLLOWER

    @pytest.mark.slow
    def test_fault_free_run_takes_no_actions(self):
        cluster, raft, controller = deploy_loop()
        cluster.run(10_000.0)
        assert controller.actions == []
        assert controller.demotions == 0
        assert controller.transfers == 0
        assert sum(len(d.suspicions) for d in controller.detectors) == 0
        assert find_leader(raft).voting_members == set(GROUP)

    @pytest.mark.slow
    def test_leadership_moves_off_suspected_leader(self):
        cluster, raft, controller = deploy_loop(n_clients=16)
        FaultInjector(cluster).inject_at("s1", "cpu_slow", 3_000.0)
        cluster.run(15_000.0)
        assert sum(len(d.suspicions) for d in controller.detectors) >= 1
        leader = find_leader(raft)
        assert leader is not None
        assert leader.id != "s1"

    @pytest.mark.slow
    def test_min_voters_floor_blocks_demotion(self):
        # With the floor at the full group size, the controller may
        # suspect all it wants but must never shrink the quorum.
        config = MitigationConfig(min_voters=3, demote_after_windows=2)
        cluster, raft, controller = deploy_loop(config=config)
        FaultInjector(cluster).inject_transient("s3", "cpu_slow", 2_000.0, 5_000.0)
        cluster.run(10_000.0)
        assert any(
            t.node == "s3" and t.state == PeerHealth.SUSPECT
            for t in controller.signal.transitions
        )
        assert controller.demotions == 0
        assert find_leader(raft).voting_members == set(GROUP)

    def test_double_start_rejected(self):
        cluster = Cluster(seed=1)
        raft = deploy_depfast_raft(cluster, GROUP)
        controller = MitigationController(cluster, raft)
        controller.start()
        with pytest.raises(RuntimeError):
            controller.start()
