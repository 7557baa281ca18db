"""RethinkDB-like baseline: unbounded outgoing buffers at the leader.

"RethinkDB maintains an unbounded buffer at the leader for outgoing
writes — a slow follower can drive the leader to use an excessive amount
of memory, or even run out of memory" (§2.2). In the paper's runs, CPU
slowness on a follower ended with the *leader* crashing.

Mechanics modelled here:

* the leader pushes every batch to every follower eagerly with no
  flow-control awareness; replication messages carry heavy serialization/
  changefeed framing (``wire_amplification``), and anything beyond the
  TCP window piles into *unbounded* send buffers accounted against the
  leader's memory;
* as buffer memory grows past the swap threshold, the leader's CPU takes
  the swap-thrash penalty (degradation); crossing the memory limit OOMs
  the process (``oom_policy="crash"``);
* a periodic cluster-status sync wing waits (bounded) on all followers
  before letting writes continue, RethinkDB's directory/changefeed
  coordination — a second, milder synchronous-wait pathology so disk and
  network faults (which do not starve the follower's dispatcher) still
  degrade the system as Figure 1 shows.

The node spec scales memory down from 16 GB so that time-to-OOM lands
inside a simulated measurement window instead of hours; the mechanism —
backlog bytes vs free memory — is preserved (see DESIGN.md).
"""

from __future__ import annotations

from typing import Generator, List

from repro.baselines.base import BaselineConfig, BaselineRsm
from repro.cluster.leader import REPLICATION_TIMEOUT_MS
from repro.cluster.node import NodeSpec
from repro.events.base import Event
from repro.events.compound import AndEvent
from repro.raft.types import LogEntry, entries_size


class RethinkLikeRsm(BaselineRsm):
    """Fixed-leader RSM with eager pushes into unbounded buffers."""

    system_name = "rethink-like"

    status_sync_interval_ms = 400.0
    status_sync_timeout_ms = 18.0

    def __init__(self, node, group, config=None):
        if config is None:
            config = self.default_config(group[0])
        super().__init__(node, group, config=config)
        self._write_gate: Event = Event(name="write-gate")
        self._write_gate.trigger()
        self.status_stalls = 0
        self.status_stall_ms = 0.0

    @classmethod
    def default_config(cls, leader: str) -> BaselineConfig:
        # Per-write framing overhead: serialized documents + changefeed
        # bookkeeping ride along with every replicated write.
        return BaselineConfig(leader=leader, wire_amplification=3.0)

    @staticmethod
    def node_spec() -> NodeSpec:
        """Memory scaled down so OOM dynamics fit the simulated window."""
        return NodeSpec(
            memory_bytes=112 * 1024 * 1024,
            base_memory_fraction=0.5,
            send_buffer_limit=None,  # the unbounded buffer
            oom_policy="crash",
            memory_swap_threshold=0.92,
            memory_max_swap_penalty=3.0,
        )

    def _on_leader_start(self) -> None:
        self.rt.spawn(self._status_sync_loop(), name=f"{self.id}:status-sync")

    def _replicate_batch(
        self, entries: List[LogEntry], first: int, last: int
    ) -> Generator:
        # Status sync in progress? Writes wait for it (shared locks).
        if not self._write_gate.ready():
            yield self._write_gate.wait()
        self.node.wal.append(entries_size(entries))
        local_sync = self.node.wal.sync()
        # Eager push to everyone — no flow-control awareness; the network
        # layer buffers without bound on this node spec.
        rpcs = [self.send_entries(peer, first - 1, entries) for peer in self.peers]
        majority = self.majority_ack_event(rpcs)
        gate = AndEvent(local_sync, majority, name=f"{self.id}:commit-gate")
        yield gate.wait(timeout_ms=REPLICATION_TIMEOUT_MS)
        while not gate.ready() and not self.rt.crashed:
            yield gate.wait(timeout_ms=REPLICATION_TIMEOUT_MS)

    def _status_sync_loop(self) -> Generator:
        """Periodic all-follower coordination that holds the write gate."""
        while not self.rt.crashed:
            yield self.rt.sleep(self.status_sync_interval_ms)
            if not self.peers:
                continue
            target = self.log.last_index()
            self._write_gate = Event(name=f"{self.id}:write-gate")
            try:
                sync = AndEvent(
                    *[self.ack_event(peer, target) for peer in self.peers],
                    name=f"{self.id}:status-sync",
                )
                before = self.rt.now
                yield sync.wait(timeout_ms=self.status_sync_timeout_ms)
                stalled = self.rt.now - before
                if stalled > 1.0:
                    self.status_stalls += 1
                    self.status_stall_ms += stalled
            finally:
                self._write_gate.trigger(self.rt.now)

    def leader_backlog_bytes(self) -> int:
        """Outgoing-buffer backlog at the leader (the §2.2 metric)."""
        return self.node.network.buffered_bytes_from(self.id)
