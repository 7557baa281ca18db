"""Nemesis orchestration + end-to-end chaos runs with safety verdicts."""

import pytest

from repro.bench.chaos import ChaosParams, run_chaos_campaign, run_chaos_once
from repro.cluster.cluster import Cluster
from repro.faults.chaos import Nemesis
from repro.faults.injector import FaultInjector
from repro.raft.config import RaftConfig
from repro.raft.service import deploy_depfast_raft, find_leader, wait_for_leader
from repro.trace.linearize import HistoryRecorder, check_linearizable
from repro.workload.driver import ClosedLoopDriver
from repro.workload.ycsb import YcsbWorkload

QUICK = ChaosParams(
    warmup_ms=1_000.0,
    chaos_window_ms=3_000.0,
    converge_deadline_ms=8_000.0,
    events=6,
    n_clients=4,
)


def _deploy(n=3, seed=7):
    cluster = Cluster(seed=seed)
    group = [f"s{i + 1}" for i in range(n)]
    raft = deploy_depfast_raft(
        cluster,
        group,
        config=RaftConfig(
            preferred_leader="s1",
            heartbeat_interval_ms=50.0,
            election_timeout_min_ms=300.0,
            election_timeout_max_ms=600.0,
        ),
    )
    wait_for_leader(cluster, raft)
    return cluster, raft, group


class TestNemesisGuardrail:
    def test_crashes_never_break_majority(self):
        cluster, raft, group = _deploy()
        nemesis = Nemesis(cluster, raft, majority_guard=True)
        # Try to take down everything at once; the guard must keep 2 of 3.
        for i, node_id in enumerate(group):
            nemesis.schedule_crash_restart(node_id, 1_000.0 + i, 5_000.0)
        cluster.run(2_000.0)
        assert len(cluster.crashed_nodes()) <= 1
        assert nemesis.skipped == 2
        cluster.run(10_000.0)
        assert cluster.crashed_nodes() == []
        assert nemesis.restarts == nemesis.crashes == 1

    def test_partition_guard_counts_crashed_nodes(self):
        cluster, raft, group = _deploy()
        nemesis = Nemesis(cluster, raft, majority_guard=True)
        nemesis.schedule_crash_restart("s2", 1_000.0, 4_000.0)
        # Isolating s3 while s2 is down would leave no majority: skipped.
        nemesis.schedule_isolation("s3", 2_000.0, 1_000.0)
        cluster.run(3_000.0)
        assert nemesis.partitions == 0
        assert nemesis.skipped == 1

    def test_guard_disabled_allows_total_failure(self):
        cluster, raft, group = _deploy()
        nemesis = Nemesis(cluster, raft, majority_guard=False)
        for i, node_id in enumerate(group):
            nemesis.schedule_crash_restart(node_id, 1_000.0 + i, 2_000.0)
        cluster.run(2_000.0)
        assert len(cluster.crashed_nodes()) == 3


class TestNemesisComposition:
    def test_overlapping_partitions_heal_their_own_edges(self):
        cluster, raft, group = _deploy(n=5)
        nemesis = Nemesis(cluster, raft, majority_guard=True)
        nemesis.schedule_isolation("s4", 1_000.0, 3_000.0)
        nemesis.schedule_isolation("s5", 2_000.0, 500.0)
        cluster.run(3_000.0)  # s5's heal fired; s4 still cut
        assert not cluster.network.is_blocked("s5", "s1")
        assert cluster.network.is_blocked("s4", "s1")
        cluster.run(4_500.0)
        assert cluster.network.partitioned_pairs() == set()
        assert nemesis.heals == 2

    def test_leader_sentinel_resolves_at_fire_time(self):
        cluster, raft, group = _deploy()
        nemesis = Nemesis(cluster, raft, majority_guard=True)
        leader_before = find_leader(raft).id
        nemesis.schedule_crash_restart("__leader__", 1_000.0, 2_000.0)
        cluster.run(1_500.0)
        assert cluster.node(leader_before).crashed
        cluster.run(12_000.0)
        assert cluster.crashed_nodes() == []
        assert find_leader(raft) is not None

    def test_random_schedule_is_deterministic(self):
        plans = []
        for _ in range(2):
            cluster, raft, group = _deploy(seed=3)
            nemesis = Nemesis(cluster, raft)
            plans.append(
                nemesis.random_schedule(
                    cluster.rng.stream("nemesis"), 1_000.0, 5_000.0, events=8
                )
            )
        assert plans[0] == plans[1]


class TestChaosRuns:
    def test_quick_chaos_run_is_safe(self):
        run = run_chaos_once(0, QUICK)
        assert run.linearizable
        assert run.converged
        assert run.double_applies == 0
        assert run.completed_ops > 100

    @pytest.mark.slow
    def test_same_seed_reruns_bit_identical(self):
        a = run_chaos_once(1, QUICK)
        b = run_chaos_once(1, QUICK)
        assert a.digest == b.digest
        assert a.nemesis_log == b.nemesis_log
        assert a.completed_ops == b.completed_ops

    @pytest.mark.slow
    def test_different_seeds_chart_different_chaos(self):
        a = run_chaos_once(2, QUICK)
        b = run_chaos_once(3, QUICK)
        assert a.nemesis_log != b.nemesis_log

    @pytest.mark.slow
    def test_multiseed_campaign_on_both_group_sizes(self):
        campaign = run_chaos_campaign(range(4), group_sizes=(3, 5), params=QUICK)
        assert campaign.ok, "\n".join(
            f"seed={run.seed} n={run.group_size} lin={run.linearizable} "
            f"conv={run.converged} dup={run.double_applies}"
            for run in campaign.failures
        )
        assert sum(run.crashes for run in campaign.runs) > 0
        assert sum(run.partitions for run in campaign.runs) > 0
        assert sum(run.duplicates_deduped for run in campaign.runs) > 0


class TestChaosCli:
    @pytest.mark.slow
    def test_cli_chaos_single_seed(self, capsys):
        from repro.cli import main

        code = main(["chaos", "--seed", "0", "--group-sizes", "3", "--events", "6"])
        out = capsys.readouterr().out
        assert code == 0
        assert "linearizable" in out
        assert "exactly-once" in out


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="pinned, not fixed: a leader cut off from its peers but not its clients "
    "acknowledges a put whose entry the new leader then overwrites (its completion "
    "is keyed by log index alone), so a later read returns the older value",
)
def test_deposed_leader_never_acknowledges_a_truncated_write():
    """Leader isolated from its peers, not its clients, for 400 ms under load."""
    cluster = Cluster(seed=2002)
    config = RaftConfig(
        preferred_leader="s1",
        heartbeat_interval_ms=50.0,
        election_timeout_min_ms=300.0,
        election_timeout_max_ms=360.0,
        client_commit_timeout_ms=1_000.0,
        read_mode="read_index",
        snapshot_threshold_entries=400,
        compaction_keep_entries=128,
    )
    raft = deploy_depfast_raft(cluster, ["s1", "s2", "s3"], config=config)
    wait_for_leader(cluster, raft)
    history = HistoryRecorder()
    workload = YcsbWorkload(
        cluster.rng.stream("workload"),
        record_count=32,
        value_size=16,
        update_fraction=0.6,
        distribution="uniform",
    )
    driver = ClosedLoopDriver(
        cluster, sorted(raft), workload, n_clients=8, request_timeout_ms=500.0,
        sessions=True, history=history,
    )
    nemesis, kernel, start = Nemesis(cluster, raft), cluster.kernel, cluster.kernel.now
    kernel.schedule_at(  # the leader is whoever leads when the cut is scheduled
        start + 1_000.0,
        lambda: nemesis.schedule_isolation(find_leader(raft).id, kernel.now, 400.0),
    )
    driver.start()
    cluster.run(start + 1_700.0)
    driver.stop()
    cluster.run(start + 3_000.0)
    assert check_linearizable(history).ok
