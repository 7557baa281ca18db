"""Deployment helpers for Multi-Paxos groups."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cluster.cluster import Cluster
from repro.cluster.node import NodeSpec
from repro.paxos.node import PaxosConfig, PaxosNode
from repro.raft.service import depfast_node_spec


def deploy_paxos(
    cluster: Cluster,
    group: List[str],
    config: Optional[PaxosConfig] = None,
    spec: Optional[NodeSpec] = None,
) -> Dict[str, PaxosNode]:
    """Create and start one Multi-Paxos group on the cluster."""
    if len(group) % 2 == 0:
        raise ValueError(f"group size must be odd, got {len(group)}")
    config = config or PaxosConfig(preferred_leader=group[0])
    nodes: Dict[str, PaxosNode] = {}
    for node_id in group:
        node = cluster.add_node(node_id, spec=spec or depfast_node_spec())
        nodes[node_id] = PaxosNode(
            node, group, config=config, rng=cluster.rng.stream(f"paxos:{node_id}")
        )
    for paxos_node in nodes.values():
        paxos_node.start()
    return nodes


def find_paxos_leader(nodes: Dict[str, PaxosNode]) -> Optional[PaxosNode]:
    leaders = [n for n in nodes.values() if n.is_leader and not n.node.crashed]
    if not leaders:
        return None
    return max(leaders, key=lambda n: n.ballot)


def wait_for_paxos_leader(
    cluster: Cluster,
    nodes: Dict[str, PaxosNode],
    deadline_ms: float = 10_000.0,
    step_ms: float = 50.0,
) -> PaxosNode:
    while cluster.kernel.now < deadline_ms:
        leader = find_paxos_leader(nodes)
        if leader is not None:
            return leader
        cluster.run(cluster.kernel.now + step_ms)
    leader = find_paxos_leader(nodes)
    if leader is None:
        raise RuntimeError(f"no paxos leader within {deadline_ms}ms")
    return leader
