"""One Multi-Paxos replica: proposer + acceptor + learner in coroutines.

The request path is the paper's §2.3 example, written synchronously:

* **Prepare** (leadership): one ``QuorumCall`` — promise quorum or retry;
* **Accept** (per batch): one ``QuorumEvent`` over acceptor replies plus
  the proposer's own acceptance — commit on any majority, never on the
  slow minority;
* **Commit/learn**: a notification piggybacking the commit index on the
  heartbeat cadence.

Acceptors store accepts per slot independently (gaps are fine); each
replica applies its *contiguous* accepted prefix up to the learned commit
index. Holes at lagging acceptors — e.g. when the quorum-aware framework
discarded their messages — are filled by a per-peer repair stream, exactly
the dedicated-coroutine pattern DepFastRaft uses: the slow peer's
slowness is absorbed by its own stream, never the batch path.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Generator, List, Optional, Set, Tuple

from repro.cluster.leader import (
    BATCH_MAX_ENTRIES,
    CLIENT_OP_COST_MS,
    REPLICATION_TIMEOUT_MS,
    LeaderConfig,
    LeaderReplica,
    ProposalQueue,
    append_cost,
    batch_build_cost,
)
from repro.cluster.node import Node
from repro.events.basic import RpcEvent, ValueEvent
from repro.events.compound import QuorumEvent
from repro.net.rpc import QuorumCall
from repro.storage.kvstore import KvOp, KvStore

# Multi-Paxos reads only the leader pipeline's options.
PaxosConfig = LeaderConfig
PREPARE_TIMEOUT_MS = 500.0  # one Prepare round


class PaxosNode(LeaderReplica):
    """One member of a Multi-Paxos group."""

    _main_name = "paxos-main"

    def __init__(
        self,
        node: Node,
        group: List[str],
        config: Optional[PaxosConfig] = None,
        rng: Optional[random.Random] = None,
        state_machine: Optional[KvStore] = None,
    ):
        if node.node_id not in group:
            raise ValueError(f"{node.node_id} not in group {group}")
        self.node = node
        self.id = node.node_id
        self.group = list(group)
        self.rank = group.index(self.id)
        self.peers = [member for member in group if member != self.id]
        self.majority = len(group) // 2 + 1
        self.config = config or PaxosConfig()
        self.rng = rng or random.Random(hash(self.id) & 0xFFFF)
        self.rt = node.runtime
        self.ep = node.endpoint

        # Acceptor state.
        self.promised_ballot = 0
        self.accepted: Dict[int, Tuple[int, KvOp]] = {}  # slot -> (ballot, op)
        self.contiguous_accepted = 0  # highest slot with no holes below it

        # Learner state.
        self.kv = state_machine if state_machine is not None else KvStore()
        self.commit_index = 0
        self.last_applied = 0
        self._applying = False

        # Proposer state.
        self.is_leader = False
        self.ballot = 0
        self.leader_hint: Optional[str] = None
        self._ballot_round = 0
        self._next_slot = 1
        self.proposals = ProposalQueue(self.rt, self.id, self.config)
        self._completions: Dict[int, ValueEvent] = {}
        self._match_index: Dict[str, int] = {}
        self._repairing: Set[str] = set()
        self._step_down: Optional[ValueEvent] = None
        self._ht_event: Optional[ValueEvent] = None

        # Counters.
        self.prepare_rounds = 0
        self.became_leader = 0
        self.batches_committed = 0
        self.repairs_started = 0

        self.ep.register("paxos_prepare", self._on_prepare)
        self.ep.register("paxos_accept", self._on_accept)
        self.ep.register("paxos_commit", self._on_commit)
        self.ep.register("client_request", self._on_client_request)

    # ==================================================================
    # Lifecycle
    # ==================================================================
    def _leading(self, ballot: int) -> bool:
        return self.is_leader and self.ballot == ballot and not self.rt.crashed

    def _epoch(self) -> int:
        return self.promised_ballot

    def _held_index(self) -> int:
        return self.contiguous_accepted

    def _main_loop(self) -> Generator:
        while not self.rt.crashed:
            if self.is_leader:
                self._step_down = ValueEvent(name=f"{self.id}:step-down")
                yield self._step_down.wait()
                continue
            self._ht_event = ValueEvent(name=f"{self.id}:leader-seen")
            result = yield self._ht_event.wait(timeout_ms=self._election_timeout())
            if result.timed_out and not self.is_leader:
                yield from self._try_become_leader()

    def _demote(self, promised: int, leader: Optional[str]) -> None:
        if promised > self.promised_ballot:
            self.promised_ballot = promised
        if leader is not None:
            self.leader_hint = leader
        if self.is_leader and promised > self.ballot:
            self.is_leader = False
            if self._step_down is not None and not self._step_down.ready():
                self._step_down.set(True, now=self.rt.now)

    # ==================================================================
    # Phase 1: Prepare
    # ==================================================================
    def _next_ballot(self) -> int:
        self._ballot_round += 1
        return self._ballot_round * len(self.group) + self.rank + 1

    def _try_become_leader(self) -> Generator:
        cfg = self.config
        ballot = self._next_ballot()
        if ballot <= self.promised_ballot:
            self._ballot_round = self.promised_ballot // len(self.group) + 1
            ballot = self._next_ballot()
        self.promised_ballot = ballot
        self.prepare_rounds += 1
        payload = {"ballot": ballot, "proposer": self.id, "commit_floor": self.commit_index}
        merged: Dict[int, Tuple[int, KvOp]] = {
            slot: value
            for slot, value in self.accepted.items()
            if slot > self.commit_index
        }
        if self.peers:
            call = QuorumCall(
                self.ep,
                self.peers,
                "paxos_prepare",
                payload,
                size_bytes=64,
                quorum=self.majority - 1,
                classify=lambda ev: bool(ev.reply.get("ok")),
                discard_on_quorum=cfg.discard_on_quorum,
                name=f"{self.id}:prepare@{ballot}",
            )
            yield call.wait(timeout_ms=PREPARE_TIMEOUT_MS)
            for rpc in call.calls:
                if rpc.ok and isinstance(rpc.reply, dict):
                    if not rpc.reply.get("ok"):
                        self._demote(rpc.reply.get("promised", 0), None)
                    for slot, (b, op) in rpc.reply.get("accepted", {}).items():
                        slot = int(slot)
                        held = merged.get(slot)
                        if held is None or b > held[0]:
                            merged[slot] = (b, tuple(op))
            if not call.event.ready() or self.promised_ballot > ballot:
                return  # lost the round; retry after a fresh timeout
        self._assume_leadership(ballot, merged)

    def _assume_leadership(self, ballot: int, merged: Dict[int, Tuple[int, KvOp]]) -> None:
        self.is_leader = True
        self.ballot = ballot
        self.leader_hint = self.id
        self.became_leader += 1
        self._match_index = {peer: 0 for peer in self.peers}
        self._repairing = set()
        # Adopt the highest-ballot accepted values; fill holes with noops.
        top = max(merged) if merged else self.commit_index
        for slot in range(self.commit_index + 1, top + 1):
            _b, op = merged.get(slot, (0, ("noop",)))
            self.accepted[slot] = (ballot, op)
        self.contiguous_accepted = max(self.contiguous_accepted, top)
        self._recompute_contiguous()
        self._next_slot = top + 1
        self.rt.spawn(self._proposer_loop(ballot), name=f"{self.id}:proposer@{ballot}")
        if self.peers:
            self.rt.spawn(self._commit_beacon(ballot), name=f"{self.id}:beacon@{ballot}")

    def _on_prepare(self, payload: Dict[str, Any], src: str) -> Generator:
        yield self.rt.compute(0.02, name="prepare")
        ballot = payload["ballot"]
        if ballot > self.promised_ballot:
            self.promised_ballot = ballot
            self.leader_hint = payload["proposer"]
            self._poke_heartbeat()
            suffix = {
                slot: value
                for slot, value in self.accepted.items()
                if slot > payload["commit_floor"]
            }
            return {"ok": True, "accepted": suffix, "commit": self.commit_index}
        return {"ok": False, "promised": self.promised_ballot}

    # ==================================================================
    # Phase 2: Accept (the batch path)
    # ==================================================================
    def _proposer_loop(self, ballot: int) -> Generator:
        # First, re-commit anything adopted from the prepare round.
        recovered = [
            (slot, self.accepted[slot][1])
            for slot in range(self.commit_index + 1, self._next_slot)
        ]
        if recovered:
            committed = yield from self._accept_round(ballot, recovered)
            if not committed:
                return
        while self._leading(ballot):
            batch = yield from self.proposals.next_batch()
            if not batch:
                continue
            slotted = []
            for op, done in batch:
                slot = self._next_slot
                self._next_slot += 1
                self.accepted[slot] = (ballot, op)
                self._completions[slot] = done
                slotted.append((slot, op))
            self._recompute_contiguous()
            build = batch_build_cost(len(slotted), len(self.peers))
            yield self.rt.compute(build, name="accept-build")
            committed = yield from self._accept_round(ballot, slotted)
            if not committed:
                # A give-up ends this proposer; is_leader stays set.
                self._fail_batch(batch)
                return

    def _accept_round(self, ballot: int, slotted: List[Tuple[int, KvOp]]) -> Generator:
        """One Accept broadcast; returns True once a majority accepted."""
        cfg = self.config
        payload = {
            "ballot": ballot,
            "proposer": self.id,
            "slots": slotted,
            "commit": self.commit_index,
        }
        size = 64 + sum(16 + sum(len(str(p)) for p in op) for _s, op in slotted)
        # Local durability: the proposer is an acceptor too.
        self.node.wal.append(size)
        local = self.node.wal.sync()
        quorum = QuorumEvent(
            self.majority,
            n_total=len(self.group),
            classify=self._classify_accept,
            name=f"{self.id}:accept",
        )
        quorum.add(local)
        rpcs = []
        for peer in self.peers:
            rpc = self.ep.call(peer, "paxos_accept", payload, size_bytes=size)
            rpc.subscribe(lambda ev, _p=peer, _b=ballot: self._on_accept_reply(_p, ev, _b))
            rpcs.append(rpc)
            quorum.add(rpc)
        if cfg.discard_on_quorum:
            quorum.subscribe(
                lambda q: [
                    rpc.cancel_send()
                    for rpc in rpcs
                    if not rpc.ready() and rpc.cancel_send is not None
                ]
            )
        last_slot = slotted[-1][0]
        held = yield from self._await_quorum(quorum, last_slot, ballot)
        if not held or not self._leading(ballot):
            return False
        yield from self._commit_batch(last_slot)
        return True

    def _classify_accept(self, child) -> bool:
        if isinstance(child, RpcEvent):
            return child.ok and bool(child.reply.get("ok"))
        return True  # the local WAL sync

    def _on_accept_reply(self, peer: str, rpc: RpcEvent, ballot: int) -> None:
        if not rpc.ok or not isinstance(rpc.reply, dict):
            self._ensure_repair(peer, ballot)
            return
        reply = rpc.reply
        if not reply.get("ok"):
            self._demote(reply.get("promised", 0), None)
            return
        ack = reply.get("ack", 0)
        if ack > self._match_index.get(peer, 0):
            self._match_index[peer] = ack

    def _on_accept(self, payload: Dict[str, Any], src: str) -> Generator:
        ballot = payload["ballot"]
        if ballot < self.promised_ballot:
            yield self.rt.compute(0.01, name="accept-reject")
            return {"ok": False, "promised": self.promised_ballot}
        self.promised_ballot = ballot
        self.leader_hint = payload["proposer"]
        self._poke_heartbeat()
        slots = payload["slots"]
        yield self.rt.compute(append_cost(len(slots)), name="accept")
        changed_bytes = 0
        for slot, op in slots:
            held = self.accepted.get(slot)
            if held is None or held[0] <= ballot:
                self.accepted[slot] = (ballot, tuple(op))
                changed_bytes += 16 + sum(len(str(part)) for part in op)
        self._recompute_contiguous()
        if changed_bytes:
            self.node.wal.append(changed_bytes)
            sync = self.node.wal.sync()
            yield sync.wait()
        yield from self._learn(payload["commit"])
        return {"ok": True, "ack": self.contiguous_accepted}

    # ==================================================================
    # Commit / learn
    # ==================================================================
    def _commit_beacon(self, ballot: int) -> Generator:
        cfg = self.config
        while self._leading(ballot):
            for peer in self.peers:
                self.ep.notify(
                    peer,
                    "paxos_commit",
                    {"ballot": ballot, "proposer": self.id, "commit": self.commit_index},
                    size_bytes=32,
                )
            yield self.rt.sleep(cfg.heartbeat_interval_ms)

    def _on_commit(self, payload: Dict[str, Any], src: str) -> Generator:
        if payload["ballot"] < self.promised_ballot:
            return None
        self.promised_ballot = payload["ballot"]
        self.leader_hint = payload["proposer"]
        self._poke_heartbeat()
        yield from self._learn(payload["commit"])
        return None

    def _learn(self, leader_commit: int) -> Generator:
        target = min(leader_commit, self.contiguous_accepted)
        if target > self.commit_index:
            self.commit_index = target
        yield from self._apply_committed()

    def _apply_entry(self, slot: int) -> None:
        result = self.kv.apply(self.accepted[slot][1])
        done = self._completions.pop(slot, None)
        if done is not None and not done.ready():
            done.set({"ok": True, "result": result}, now=self.rt.now)

    def _recompute_contiguous(self) -> None:
        slot = self.contiguous_accepted
        while (slot + 1) in self.accepted:
            slot += 1
        self.contiguous_accepted = slot

    # ==================================================================
    # Repair: fill holes at lagging acceptors
    # ==================================================================
    def _ensure_repair(self, peer: str, ballot: int) -> None:
        if peer in self._repairing or not self._leading(ballot):
            return
        self._repairing.add(peer)
        self.repairs_started += 1
        self.rt.spawn(
            self._repair_loop(peer, ballot),
            name=f"{self.id}:repair:{peer}",
            dedication=peer,
        )

    def _repair_loop(self, peer: str, ballot: int) -> Generator:
        cfg = self.config
        try:
            while self._leading(ballot) and self._match_index.get(peer, 0) < self.commit_index:
                start = self._match_index.get(peer, 0) + 1
                end = min(self.commit_index, start + BATCH_MAX_ENTRIES - 1)
                slotted = [
                    (slot, self.accepted[slot][1])
                    for slot in range(start, end + 1)
                    if slot in self.accepted
                ]
                if not slotted:
                    return
                payload = {
                    "ballot": ballot,
                    "proposer": self.id,
                    "slots": slotted,
                    "commit": self.commit_index,
                }
                size = 64 + sum(16 + sum(len(str(p)) for p in op) for _s, op in slotted)
                rpc = self.ep.call(peer, "paxos_accept", payload, size_bytes=size)
                rpc.subscribe(lambda ev, _p=peer, _b=ballot: self._on_accept_reply(_p, ev, _b))
                result = yield rpc.wait(timeout_ms=REPLICATION_TIMEOUT_MS)
                if result.timed_out or not rpc.ok:
                    yield self.rt.sleep(cfg.heartbeat_interval_ms)
        finally:
            self._repairing.discard(peer)

    # ==================================================================
    # Clients
    # ==================================================================
    def _on_client_request(self, payload: Dict[str, Any], src: str) -> Generator:
        if not self.is_leader:
            return self._redirect()
        yield self.rt.compute(CLIENT_OP_COST_MS, name="client-op")
        if not self.is_leader:
            return self._redirect()
        reply = yield from self.proposals.commit(payload["op"])
        return reply

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        role = "leader" if self.is_leader else "acceptor"
        return (
            f"<PaxosNode {self.id} {role} ballot={self.ballot or self.promised_ballot} "
            f"commit={self.commit_index}>"
        )
