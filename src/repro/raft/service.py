"""Deployment helpers for DepFastRaft groups: deploy, restart, converge."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cluster.cluster import Cluster
from repro.cluster.node import NodeSpec
from repro.raft.config import RaftConfig
from repro.raft.node import RaftNode
from repro.raft.types import Role
from repro.storage.durable import DurableRaftState

# DepFastRaft is a fail-slow-aware implementation: bounded send buffers
# (4 MB per connection) on top of the quorum-discard framework policy.
DEPFAST_BUFFER_LIMIT = 4 * 1024 * 1024


def depfast_node_spec() -> NodeSpec:
    return NodeSpec(send_buffer_limit=DEPFAST_BUFFER_LIMIT)


def deploy_depfast_raft(
    cluster: Cluster,
    group: List[str],
    config: Optional[RaftConfig] = None,
    spec: Optional[NodeSpec] = None,
    state_machine_factory=None,
    node_cls=RaftNode,
    **node_kwargs,
) -> Dict[str, RaftNode]:
    """Create and start one DepFastRaft group on the cluster.

    Returns node_id → RaftNode. By default the first group member is the
    preferred initial leader so experiments start from a stable, known
    leader (as the paper's measurements do). ``state_machine_factory``
    builds one state machine per replica (defaults to a plain KvStore).
    ``node_cls`` (a RaftNode subclass) gets ``node_kwargs`` on top of the
    RaftNode arguments.
    """
    if len(group) % 2 == 0:
        raise ValueError(f"group size must be odd, got {len(group)}")
    config = config or RaftConfig(preferred_leader=group[0])
    raft_nodes: Dict[str, RaftNode] = {}
    for node_id in group:
        node = cluster.add_node(node_id, spec=spec or depfast_node_spec())
        raft_nodes[node_id] = node_cls(
            node,
            group,
            config=config,
            rng=cluster.rng.stream(f"raft:{node_id}"),
            state_machine=state_machine_factory() if state_machine_factory else None,
            durable=DurableRaftState(node_id),
            state_machine_factory=state_machine_factory,
            **node_kwargs,
        )
    for raft_node in raft_nodes.values():
        raft_node.start()
    return raft_nodes


def restart_raft_node(
    cluster: Cluster, raft_nodes: Dict[str, RaftNode], node_id: str
) -> RaftNode:
    """Bring a crashed group member back: reboot + recovery.

    The machine restarts (fresh process, reset connections), then a new
    replica of the old one's class recovers from its durable state —
    snapshot load, the log run up to the fsync watermark, persisted term
    and vote. The entry in ``raft_nodes`` is replaced in place so callers
    holding the dict see the recovered node.
    """
    node = cluster.node(node_id)
    node.restart()
    recovered = raft_nodes[node_id].rebuild_on(node)
    raft_nodes[node_id] = recovered
    recovered.start()
    return recovered


def find_leader(raft_nodes: Dict[str, RaftNode]) -> Optional[RaftNode]:
    """The live leader with the highest term, or None."""
    leaders = [
        raft_node
        for raft_node in raft_nodes.values()
        if raft_node.role == Role.LEADER and not raft_node.node.crashed
    ]
    if not leaders:
        return None
    return max(leaders, key=lambda raft_node: raft_node.term)


def wait_for_leader(
    cluster: Cluster,
    raft_nodes: Dict[str, RaftNode],
    deadline_ms: float = 10_000.0,
    step_ms: float = 50.0,
) -> RaftNode:
    """Advance the simulation until a leader exists; returns it."""
    while cluster.kernel.now < deadline_ms:
        leader = find_leader(raft_nodes)
        if leader is not None:
            return leader
        cluster.run(cluster.kernel.now + step_ms)
    leader = find_leader(raft_nodes)
    if leader is None:
        raise RuntimeError(f"no leader elected within {deadline_ms}ms")
    return leader
