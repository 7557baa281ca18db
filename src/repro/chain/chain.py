"""Chain replication on the DepFast runtime.

Writes enter at the head, are applied and persisted at every node in chain
order, and are acknowledged once the tail holds them; reads are served by
the tail (van Renesse & Schneider, OSDI '04). The head's wait for the
tail's ack is a single event sourced at the tail — a structural 1/1 wait,
which is precisely why a fail-slow node *anywhere* in the chain throttles
every write. The implementation charges the RSMs' cost model
(:mod:`repro.cluster.leader`) plus one per-hop forward cost, so the
comparison bench isolates the replication topology.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional

from repro.cluster.cluster import Cluster
from repro.cluster.leader import APPLY_COST_MS, CLIENT_OP_COST_MS
from repro.cluster.node import Node
from repro.events.base import Event
from repro.events.basic import ValueEvent
from repro.storage.kvstore import KvStore

FORWARD_COST_MS = 0.07  # a hop's cost to take a write from its predecessor
ACK_TIMEOUT_MS = 3000.0  # the head's wait for the tail's ack


class ChainNode:
    """One member of a replication chain."""

    def __init__(self, node: Node, chain: List[str]):
        if node.node_id not in chain:
            raise ValueError(f"{node.node_id} not in chain {chain}")
        self.node = node
        self.id = node.node_id
        self.chain = list(chain)
        self.rt = node.runtime
        self.ep = node.endpoint
        self.kv = KvStore()

        position = chain.index(self.id)
        self.is_head = position == 0
        self.is_tail = position == len(chain) - 1
        self.successor: Optional[str] = None if self.is_tail else chain[position + 1]
        self.head = chain[0]
        self.tail = chain[-1]

        self._next_seq = 0
        self._pending: Dict[int, ValueEvent] = {}
        self._apply_gate = Event(name="chain-gate")
        self._apply_gate.trigger()
        self.writes_acked = 0

        self.ep.register("client_request", self._on_client_request)
        self.ep.register("chain_write", self._on_chain_write)
        self.ep.register("chain_ack", self._on_chain_ack)

    def start(self) -> None:
        self.node.start()

    # ------------------------------------------------------------------
    # Client entry
    # ------------------------------------------------------------------
    def _on_client_request(self, payload: Dict[str, Any], src: str) -> Generator:
        op = payload["op"]
        if op[0] == "get":
            # Reads are the tail's job: it holds only fully-replicated state.
            if not self.is_tail:
                return {"ok": False, "redirect": self.tail}
            yield self.rt.compute(APPLY_COST_MS, name="chain-read")
            return {"ok": True, "result": self.kv.get(op[1])}
        if not self.is_head:
            return {"ok": False, "redirect": self.head}
        yield self.rt.compute(CLIENT_OP_COST_MS, name="client-op")
        self._next_seq += 1
        # depfast: allow(DF011) — ``seq`` is an allocation, not a snapshot:
        # each request owns the number it drew, and ``self._next_seq``
        # advancing while we are parked is other requests drawing theirs.
        seq = self._next_seq
        # The wait point of chain replication: one event, sourced at the
        # tail. The SPG shows it as a red head→tail edge; the tolerance
        # checker flags it.
        acked = ValueEvent(name="chain-ack", source=self.tail)
        self._pending[seq] = acked
        yield from self._apply_and_persist(op)
        self.ep.notify(
            self.successor,
            "chain_write",
            {"seq": seq, "op": op},
            size_bytes=_op_size(op),
        )
        # depfast: allow(DF001) — inherent to chain replication: the head
        # must hear from the tail, so this red edge is the protocol itself
        # (it is what Figure 1 measures), not an implementation slip.
        result = yield acked.wait(timeout_ms=ACK_TIMEOUT_MS)
        self._pending.pop(seq, None)
        if result.timed_out:
            return {"ok": False, "redirect": None}
        return {"ok": True, "result": None}

    # ------------------------------------------------------------------
    # Chain propagation
    # ------------------------------------------------------------------
    def _on_chain_write(self, payload: Dict[str, Any], src: str) -> Generator:
        yield self.rt.compute(FORWARD_COST_MS, name="chain-forward")
        yield from self._apply_and_persist(payload["op"])
        if self.is_tail:
            self.ep.notify(self.head, "chain_ack", {"seq": payload["seq"]}, size_bytes=32)
        else:
            self.ep.notify(
                self.successor,
                "chain_write",
                payload,
                size_bytes=_op_size(payload["op"]),
            )
        return None

    def _apply_and_persist(self, op) -> Generator:
        # Serialize applies in arrival order (same gate idiom as the RSMs).
        previous_gate = self._apply_gate
        my_gate = Event(name=f"{self.id}:chain-gate")
        self._apply_gate = my_gate
        try:
            if not previous_gate.ready():
                yield previous_gate.wait()
            yield self.rt.compute(APPLY_COST_MS, name="chain-apply")
            self.node.wal.append(_op_size(op))
            sync = self.node.wal.sync()
            yield sync.wait()
            self.kv.apply(op)
        finally:
            my_gate.trigger(self.rt.now)

    def _on_chain_ack(self, payload: Dict[str, Any], src: str) -> Generator:
        acked = self._pending.get(payload["seq"])
        if acked is not None and not acked.ready():
            self.writes_acked += 1
            acked.set(True, now=self.rt.now)
        return None
        yield  # pragma: no cover - marks this as a generator


def _op_size(op) -> int:
    return 32 + sum(len(str(part)) for part in op)


def deploy_chain(cluster: Cluster, chain: List[str]) -> Dict[str, ChainNode]:
    """Create and start a replication chain (head = first, tail = last)."""
    if len(chain) < 2:
        raise ValueError("a chain needs at least two nodes")
    nodes = {}
    for node_id in chain:
        node = cluster.add_node(node_id)
        nodes[node_id] = ChainNode(node, chain)
    for chain_node in nodes.values():
        chain_node.start()
    return nodes
