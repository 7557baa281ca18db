"""The leader pipeline is written once: Raft, Multi-Paxos and the baselines
share one admission / batch cut / commit wait, and Raft and Paxos one
late-quorum wait and apply loop. Its options are fields only where a
caller sets them; every other value is one constant."""

from dataclasses import fields

import pytest

from repro.baselines import BASELINE_SYSTEMS, BaselineConfig, deploy_baseline
from repro.cluster.cluster import Cluster
from repro.cluster.leader import BATCH_MAX_ENTRIES, LeaderConfig, LeaderReplica, ProposalQueue
from repro.events.basic import ValueEvent
from repro.paxos import PaxosConfig, deploy_paxos
from repro.paxos.node import PaxosNode
from repro.raft import RaftConfig, RaftNode, deploy_depfast_raft

GROUP = ["s1", "s2", "s3"]


@pytest.mark.parametrize(
    "name", ["_apply_committed", "_await_quorum", "_commit_batch", "_election_timeout",
             "_poke_heartbeat", "_redirect", "_fail_batch", "start"],
)
def test_raft_and_paxos_share_one_copy(name):
    assert getattr(RaftNode, name) is getattr(PaxosNode, name) is getattr(LeaderReplica, name)


@pytest.mark.parametrize("system", ["raft", "paxos", *sorted(BASELINE_SYSTEMS)])
def test_every_leader_holds_a_proposal_queue(system):
    cluster = Cluster(seed=5)
    if system == "raft":
        nodes = deploy_depfast_raft(cluster, GROUP)
    elif system == "paxos":
        nodes = deploy_paxos(cluster, GROUP)
    else:
        nodes = deploy_baseline(cluster, BASELINE_SYSTEMS[system], GROUP)
    assert all(isinstance(node.proposals, ProposalQueue) for node in nodes.values())


class _Runtime:
    now = 0.0


class _Config:
    heartbeat_interval_ms = 100.0
    client_commit_timeout_ms = 50.0


def test_batch_cut_takes_at_most_batch_max_entries_oldest_first():
    queue = ProposalQueue(_Runtime(), "s1", _Config())
    for i in range(BATCH_MAX_ENTRIES + 5):
        queue.admit(i, ValueEvent(name="done"))
    batch = _returned(queue.next_batch())
    assert [op for op, _done in batch] == list(range(BATCH_MAX_ENTRIES))
    assert len(queue) == 5


def test_idle_batch_cut_waits_on_the_pending_signal():
    queue = ProposalQueue(_Runtime(), "s1", _Config())
    gen = queue.next_batch()
    wait = next(gen)
    assert wait.event.name == "s1:pending"
    assert wait.timeout_ms == _Config.heartbeat_interval_ms
    queue.admit("op", ValueEvent(name="done"))
    assert wait.event.ready()
    queue.admit("noop", ValueEvent(name="done"), wake=False)
    batch = _returned(gen)
    assert [op for op, _done in batch] == ["op", "noop"]


def _returned(gen):
    """Resume ``gen`` once; it must return (not wait again)."""
    with pytest.raises(StopIteration) as stop:
        gen.send(None)
    return stop.value.value


_LEADER_FIELDS = [
    "heartbeat_interval_ms",
    "election_timeout_min_ms",
    "election_timeout_max_ms",
    "client_commit_timeout_ms",
    "discard_on_quorum",
    "preferred_leader",
]


@pytest.mark.parametrize(
    "config, names",
    [
        (LeaderConfig, _LEADER_FIELDS),
        (PaxosConfig, _LEADER_FIELDS),
        (
            RaftConfig,
            _LEADER_FIELDS + [
                "entry_cache_entries",
                "read_mode",
                "snapshot_threshold_entries",
                "compaction_keep_entries",
                "initial_voters",
            ],
        ),
        (
            BaselineConfig,
            [
                "leader",
                "entry_cache_entries",
                "heartbeat_interval_ms",
                "client_commit_timeout_ms",
                "wire_amplification",
            ],
        ),
    ],
)
def test_a_config_field_is_an_option_some_caller_sets(config, names):
    # Costs, RPC timeouts, batch caps and the lease length have one value
    # each, held as a constant: a new field here needs a caller that sets it.
    assert [field.name for field in fields(config)] == names


def test_paxos_shares_the_pipeline_checks():
    with pytest.raises(ValueError, match="heartbeats must be faster"):
        PaxosConfig(heartbeat_interval_ms=1300.0)
    with pytest.raises(ValueError, match="min > max"):
        PaxosConfig(election_timeout_min_ms=500.0, election_timeout_max_ms=400.0)
