"""Shared machinery for the baseline (fixed-leader) RSMs.

The baselines share DepFastRaft's request path and cost model — client
admission and the batch cut are the same code
(:class:`repro.cluster.leader.ProposalQueue`), and log append, WAL group
commit, follower-side serialization and apply are charged the same
constants from :mod:`repro.cluster.leader` — so that the *only*
difference between Figure 1 and Figure 3 is the
replication wait structure each subclass implements in
:meth:`BaselineRsm._replicate_batch` (plus any extra background behaviour
installed in :meth:`BaselineRsm._on_leader_start`). One batcher serves
all three; the TiDB-like one only renames its coroutine.

Leadership is fixed (the paper measures a steady data path, not
elections): if the leader dies — as the RethinkDB-like leader does under
memory exhaustion — the service is simply down, which is what the paper's
crashed-leader runs look like.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.cluster.leader import (
    APPLY_COST_MS,
    CLIENT_OP_COST_MS,
    ProposalQueue,
    append_cost,
    batch_build_cost,
)
from repro.cluster.node import Node
from repro.events.base import Event
from repro.events.basic import RpcEvent, ValueEvent
from repro.raft.log import RaftLog
from repro.raft.types import LogEntry, entries_size
from repro.storage.kvstore import KvStore

# Baselines run all entries at a fixed pseudo-term.
TERM = 1


@dataclass
class BaselineConfig:
    """What a baseline sets; costs and timeouts are the pipeline's constants."""

    leader: str = "s1"
    entry_cache_entries: int = 4096
    # Read by every leader's ProposalQueue (same defaults as RaftConfig).
    heartbeat_interval_ms: float = 100.0
    client_commit_timeout_ms: float = 3000.0
    # Wire bytes per entry byte (serialization/framing overhead); the
    # RethinkDB-like system amplifies this heavily.
    wire_amplification: float = 1.0


class BaselineRsm:
    """One member of a fixed-leader baseline RSM group."""

    system_name = "baseline"
    _batcher_name = "batcher"  # the leader's batcher coroutine is "<id>:<_batcher_name>"

    def __init__(self, node: Node, group: List[str], config: Optional[BaselineConfig] = None):
        self.node = node
        self.id = node.node_id
        self.config = config or BaselineConfig(leader=group[0])
        self.group = list(group)
        self.peers = [member for member in group if member != self.id]
        self.majority = len(group) // 2 + 1
        self.rt = node.runtime
        self.ep = node.endpoint

        self.log = RaftLog(cache_entries=self.config.entry_cache_entries)
        self.kv = KvStore()
        self.commit_index = 0
        self.last_applied = 0
        self._applying = False

        # Leader state.
        self.proposals = ProposalQueue(self.rt, self.id, self.config)
        self._completions: Dict[int, ValueEvent] = {}
        self._match_index: Dict[str, int] = {peer: 0 for peer in self.peers}
        self._ack_promises: List[Tuple[str, int, Event]] = []
        self.batches_committed = 0

        # Follower append serialization.
        self._append_gate = Event(name="append-gate")
        self._append_gate.trigger()

        self.ep.register("replicate", self._on_replicate)
        self.ep.register("heartbeat", self._on_heartbeat)
        self.ep.register("client_request", self._on_client_request)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def default_config(cls, leader: str) -> "BaselineConfig":
        return BaselineConfig(leader=leader)

    @property
    def is_leader(self) -> bool:
        return self.id == self.config.leader

    def start(self) -> None:
        self.node.start()
        if self.is_leader:
            self.rt.spawn(self._batcher(), name=f"{self.id}:{self._batcher_name}")
            if self.peers:
                self.rt.spawn(self._heartbeat_loop(), name=f"{self.id}:heartbeats")
            self._on_leader_start()

    def _on_leader_start(self) -> None:
        """Hook: subclasses install extra leader background behaviour."""

    # ------------------------------------------------------------------
    # Leader: batching
    # ------------------------------------------------------------------
    def _batcher(self) -> Generator:
        while not self.rt.crashed:
            batch = yield from self.proposals.next_batch()
            if not batch:
                continue
            first = self.log.last_index() + 1
            entries: List[LogEntry] = []
            for offset, (op, done) in enumerate(batch):
                entry = LogEntry.sized(TERM, first + offset, op)
                self.log.append(entry)
                entries.append(entry)
                self._completions[entry.index] = done
            last = entries[-1].index

            build_cost = batch_build_cost(len(entries), len(self.peers))
            yield self.rt.compute(build_cost, name="batch-build")

            yield from self._replicate_batch(entries, first, last)
            self.commit_index = max(self.commit_index, last)
            self.batches_committed += 1
            yield from self._apply_committed()

    def _replicate_batch(
        self, entries: List[LogEntry], first: int, last: int
    ) -> Generator:
        """Subclass hook: replicate one batch; returns once it commits."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Leader: send/ack plumbing shared by the subclasses
    # ------------------------------------------------------------------
    def wire_size(self, entries: List[LogEntry]) -> int:
        return int(entries_size(entries) * self.config.wire_amplification) + 64

    def send_entries(self, peer: str, prev_index: int, entries: List[LogEntry]) -> RpcEvent:
        payload = {
            "leader": self.id,
            "prev_index": prev_index,
            "entries": entries,
            "commit": self.commit_index,
        }
        rpc = self.ep.call(peer, "replicate", payload, size_bytes=self.wire_size(entries))
        last_sent = entries[-1].index if entries else prev_index
        rpc.subscribe(
            lambda ev, _peer=peer, _last=last_sent: self._on_replicate_reply(_peer, ev, _last)
        )
        return rpc

    def _on_replicate_reply(self, peer: str, rpc: RpcEvent, last_sent: int) -> None:
        if not rpc.ok or not isinstance(rpc.reply, dict):
            return
        if rpc.reply.get("success"):
            match = rpc.reply.get("match", last_sent)
            if match > self._match_index[peer]:
                self._match_index[peer] = match
                self._fire_ack_promises(peer)

    def ack_event(self, peer: str, target_index: int) -> Event:
        """Event that fires when ``peer`` has acked up to ``target_index``.

        This is the building block of the pathological all-follower waits:
        an AndEvent over these is a k==n wait the tolerance checker flags.
        """
        promise = Event(name=f"ack:{peer}", source=peer)
        if self._match_index.get(peer, 0) >= target_index:
            promise.trigger(self.rt.now)
        else:
            self._ack_promises.append((peer, target_index, promise))
        return promise

    def _fire_ack_promises(self, peer: str) -> None:
        match = self._match_index.get(peer, 0)
        remaining = []
        for entry_peer, target, promise in self._ack_promises:
            if entry_peer == peer and match >= target:
                promise.trigger(self.rt.now)
            elif not promise.ready():
                remaining.append((entry_peer, target, promise))
        self._ack_promises = remaining

    def majority_ack_event(self, rpcs: List[RpcEvent]):
        """Callback-style majority wait: a counter over reply callbacks.

        Deliberately *not* a QuorumEvent: baselines count acks in
        callbacks, as their real message-loop implementations do. The
        counter event carries no quorum structure, which is exactly why
        their traces are harder to analyze (§2.3).
        """
        from repro.events.basic import SharedIntEvent

        needed = max(1, self.majority - 1)
        counter = SharedIntEvent(target=needed, name=f"{self.id}:majority")
        for rpc in rpcs:
            def on_reply(ev, _counter=counter):
                if ev.ok and isinstance(ev.reply, dict) and ev.reply.get("success"):
                    if not _counter.ready():
                        _counter.add(1, now=self.rt.now)

            rpc.subscribe(on_reply)
        return counter

    # ------------------------------------------------------------------
    # Heartbeats (commit propagation to followers)
    # ------------------------------------------------------------------
    def _heartbeat_loop(self) -> Generator:
        cfg = self.config
        while not self.rt.crashed:
            for peer in self.peers:
                self.ep.notify(
                    peer,
                    "heartbeat",
                    {"leader": self.id, "commit": self.commit_index},
                    size_bytes=32,
                )
            yield self.rt.sleep(cfg.heartbeat_interval_ms)

    # ------------------------------------------------------------------
    # Apply
    # ------------------------------------------------------------------
    def _apply_committed(self) -> Generator:
        if self._applying:
            return
        self._applying = True
        try:
            while self.last_applied < self.commit_index:
                take = min(self.commit_index - self.last_applied, 128)
                yield self.rt.compute(take * APPLY_COST_MS, name="apply")
                for _ in range(take):
                    self.last_applied += 1
                    entry = self.log.entry_at(self.last_applied)
                    result = self.kv.apply(entry.op)
                    done = self._completions.pop(self.last_applied, None)
                    if done is not None and not done.ready():
                        done.set({"ok": True, "result": result}, now=self.rt.now)
        finally:
            self._applying = False

    # ------------------------------------------------------------------
    # RPC handlers
    # ------------------------------------------------------------------
    def _on_replicate(self, payload: Dict[str, Any], src: str) -> Generator:
        previous_gate = self._append_gate
        my_gate = Event(name=f"{self.id}:append-gate")
        self._append_gate = my_gate
        try:
            if not previous_gate.ready():
                yield previous_gate.wait()
            entries: List[LogEntry] = payload["entries"]
            yield self.rt.compute(append_cost(len(entries)), name="append")
            prev_index = payload["prev_index"]
            if self.log.last_index() < prev_index:
                return {"success": False, "match": self.log.last_index()}
            changed = self.log.append_or_overwrite(entries)
            if changed > 0:
                new_entries = entries[-changed:]
                self.node.wal.append(entries_size(new_entries))
                sync = self.node.wal.sync()
                yield sync.wait()
            yield from self._advance_commit(payload["commit"])
            match = entries[-1].index if entries else prev_index
            return {"success": True, "match": match}
        finally:
            my_gate.trigger(self.rt.now)

    def _on_heartbeat(self, payload: Dict[str, Any], src: str) -> Generator:
        yield from self._advance_commit(payload["commit"])
        return None

    def _advance_commit(self, leader_commit: int) -> Generator:
        target = min(leader_commit, self.log.last_index())
        if target > self.commit_index:
            self.commit_index = target
        yield from self._apply_committed()

    def _on_client_request(self, payload: Dict[str, Any], src: str) -> Generator:
        if not self.is_leader:
            return {"ok": False, "redirect": self.config.leader}
        if self.rt.crashed:
            return {"ok": False, "redirect": None}
        yield self.rt.compute(CLIENT_OP_COST_MS, name="client-op")
        reply = yield from self.proposals.commit(payload["op"])
        return reply

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        role = "leader" if self.is_leader else "follower"
        return f"<{type(self).__name__} {self.id} {role} log={self.log.last_index()}>"


def deploy_baseline(
    cluster,
    system_cls,
    group: List[str],
    config: Optional[BaselineConfig] = None,
) -> Dict[str, BaselineRsm]:
    """Create and start one baseline RSM group on the cluster."""
    if len(group) % 2 == 0:
        raise ValueError(f"group size must be odd, got {len(group)}")
    config = config or system_cls.default_config(group[0])
    spec_factory = getattr(system_cls, "node_spec", None)
    instances: Dict[str, BaselineRsm] = {}
    for node_id in group:
        spec = spec_factory() if spec_factory is not None else None
        node = cluster.add_node(node_id, spec=spec)
        instances[node_id] = system_cls(node, group, config=config)
    for instance in instances.values():
        instance.start()
    return instances
