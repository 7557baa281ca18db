"""Fabric deployment: N Raft groups striped over a shared node pool.

Unlike :func:`repro.txn.store.deploy_sharded_store` (one group per
disjoint node set), the fabric intentionally *co-locates* groups: group
``i`` lives on nodes ``(i, i+1, ..., i+replicas-1) mod n_nodes``, so one
machine hosts several replicas of different groups and one fail-slow
machine touches several groups at once. Per-group identity is preserved
with per-group RPC namespaces (:class:`~repro.fabric.endpoint.GroupEndpoint`),
per-group durable state and per-group seeded rng streams; the *node*'s
resources — CPU, disk, NIC, and the shared WAL — are deliberately shared,
because that co-location coupling is exactly what the fabric experiments
measure.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional

from repro.cluster.cluster import Cluster
from repro.cluster.node import Node, NodeSpec
from repro.fabric.endpoint import GroupEndpoint
from repro.fabric.shardmap import FabricShardMap, HashShardMap, RangeShardMap
from repro.raft.config import RaftConfig
from repro.raft.node import RaftNode
from repro.raft.service import depfast_node_spec, find_leader
from repro.storage.durable import DurableRaftState
from repro.txn.state_machine import TxnKvStore


class Fabric:
    """A deployed fabric: shard map + groups + their shared node pool."""

    def __init__(
        self,
        cluster: Cluster,
        shard_map: FabricShardMap,
        groups: Dict[str, Dict[str, RaftNode]],
    ):
        self.cluster = cluster
        self.shard_map = shard_map
        self.groups = groups
        # node id -> sorted group ids hosted there (the co-location map).
        self.node_groups: Dict[str, List[str]] = {}
        for group_id in sorted(groups):
            for node_id in groups[group_id]:
                self.node_groups.setdefault(node_id, []).append(group_id)

    # ------------------------------------------------------------------
    # Topology queries
    # ------------------------------------------------------------------
    def group_ids(self) -> List[str]:
        return sorted(self.groups)

    def groups_on(self, node_id: str) -> List[str]:
        """Group ids with a replica on ``node_id``."""
        return list(self.node_groups.get(node_id, []))

    def most_shared_node(self) -> str:
        """The node hosting the most groups (ties: lowest node id).

        The natural fault-injection target: slowing it down touches the
        largest co-located group set while leaving at least one group
        (when ``n_groups < n_nodes``) entirely remote.
        """
        return min(
            self.node_groups,
            key=lambda node_id: (-len(self.node_groups[node_id]), node_id),
        )

    # ------------------------------------------------------------------
    # Group state
    # ------------------------------------------------------------------
    def leader_of(self, group_id: str) -> Optional[RaftNode]:
        return find_leader(self.groups[group_id])

    def wait_for_leaders(self, deadline_ms: float = 10_000.0) -> None:
        """Advance the sim until every group has elected a leader."""
        while self.cluster.kernel.now < deadline_ms:
            if all(self.leader_of(gid) is not None for gid in self.groups):
                return
            self.cluster.run(self.cluster.kernel.now + 50.0)
        missing = [gid for gid in sorted(self.groups) if self.leader_of(gid) is None]
        if missing:
            raise RuntimeError(f"groups without leaders: {missing}")

    def state_machines(self, group_id: str) -> List[TxnKvStore]:
        return [raft.kv for raft in self.groups[group_id].values()]

    def router(self, node: Node, **kwargs) -> "FabricRouter":
        from repro.fabric.router import FabricRouter

        return FabricRouter(node, self.shard_map, **kwargs)


def _group_name(index: int, n_groups: int) -> str:
    width = len(str(n_groups - 1))
    return f"g{index:0{width}d}"


def deploy_fabric(
    cluster: Cluster,
    n_groups: int = 4,
    n_nodes: int = 5,
    replicas: int = 3,
    partitioning: str = "hash",
    split_points: Optional[List[str]] = None,
    config: Optional[RaftConfig] = None,
    spec: Optional[NodeSpec] = None,
) -> Fabric:
    """Stand up ``n_groups`` DepFastRaft groups over ``n_nodes`` machines.

    Placement stripes group ``i`` onto nodes ``n{i+1}..n{i+replicas}``
    (mod the pool), and each group's first stripe member is its preferred
    leader, so leadership spreads over the pool instead of stacking on
    one machine. State machines are :class:`TxnKvStore`, so every group
    is a 2PC participant out of the box.
    """
    if n_groups < 1:
        raise ValueError("need at least one group")
    if replicas % 2 == 0 or replicas < 1:
        raise ValueError("replica count must be odd")
    if replicas > n_nodes:
        raise ValueError(f"{replicas} replicas need at least that many nodes")
    if partitioning not in ("hash", "range"):
        raise ValueError(f"unknown partitioning {partitioning!r}")

    pool = [f"n{index + 1}" for index in range(n_nodes)]
    members: Dict[str, List[str]] = {
        _group_name(index, n_groups): [
            pool[(index + offset) % n_nodes] for offset in range(replicas)
        ]
        for index in range(n_groups)
    }
    if partitioning == "range":
        if split_points is None:
            raise ValueError("range partitioning needs explicit split points")
        shard_map: FabricShardMap = RangeShardMap(members, split_points)
    else:
        shard_map = HashShardMap(members)

    nodes: Dict[str, Node] = {
        node_id: cluster.add_node(node_id, spec=spec or depfast_node_spec())
        for node_id in pool
    }
    groups: Dict[str, Dict[str, RaftNode]] = {}
    for group_id in sorted(members):
        group = members[group_id]
        if config is None:
            group_config = RaftConfig(preferred_leader=group[0])
        else:
            group_config = replace(config, preferred_leader=group[0])
        replicas_of: Dict[str, RaftNode] = {}
        for node_id in group:
            replicas_of[node_id] = RaftNode(
                nodes[node_id],
                group,
                config=group_config,
                rng=cluster.rng.stream(f"raft:{group_id}:{node_id}"),
                state_machine=TxnKvStore(),
                durable=DurableRaftState(f"{group_id}/{node_id}"),
                state_machine_factory=TxnKvStore,
                endpoint=GroupEndpoint(nodes[node_id], group_id),
            )
        groups[group_id] = replicas_of
    for group_id in sorted(groups):
        for raft_node in groups[group_id].values():
            raft_node.start()
    return Fabric(cluster, shard_map, groups)


def restart_fabric_node(fabric: Fabric, node_id: str) -> List[RaftNode]:
    """Reboot a crashed fabric machine and recover *every* replica on it.

    One machine hosts several groups' replicas; a restart recreates each
    of them from its own per-group durable state, on a fresh
    :class:`GroupEndpoint` view of the rebooted node's endpoint.
    """
    node = fabric.cluster.node(node_id)
    node.restart()
    recovered: List[RaftNode] = []
    for group_id in fabric.groups_on(node_id):
        raft_node = fabric.groups[group_id][node_id].rebuild_on(
            node, GroupEndpoint(node, group_id)
        )
        fabric.groups[group_id][node_id] = raft_node
        raft_node.start()
        recovered.append(raft_node)
    return recovered
