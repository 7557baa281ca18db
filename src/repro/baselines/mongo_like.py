"""MongoDB-like baseline: synchronous-wait flow-control checkpoints.

The write path commits on a majority like the real system (WriteConcern =
majority, chained replication off), but every ``checkpoint_every_batches``
batches the leader advances its flow-control checkpoint by waiting —
bounded by ``checkpoint_timeout_ms`` — for **all** followers to ack the
checkpoint index. With healthy followers the wait is ~1 ms and invisible;
with one fail-slow follower it burns the full timeout on every checkpoint:
the "synchronous wait behavior (the leader waits for the fail-slow
follower)" root cause of §2.2, surfacing as periodic write-path stalls
that depress throughput and blow up tail latency.

The checkpoint wait is an AndEvent over per-follower ack events — a k==n
inter-node wait that :func:`repro.trace.verify.check_fail_slow_tolerance`
flags as a violation.
"""

from __future__ import annotations

from typing import Generator, List

from repro.baselines.base import BaselineConfig, BaselineRsm
from repro.cluster.leader import REPLICATION_TIMEOUT_MS
from repro.events.compound import AndEvent
from repro.raft.types import LogEntry, entries_size


class MongoLikeRsm(BaselineRsm):
    """Fixed-leader RSM with periodic all-follower checkpoint waits."""

    system_name = "mongo-like"

    checkpoint_every_batches = 8
    checkpoint_timeout_ms = 15.0

    def __init__(self, node, group, config=None):
        super().__init__(node, group, config=config)
        self._batches_since_checkpoint = 0
        self.checkpoint_stalls = 0
        self.checkpoint_stall_ms = 0.0

    def _replicate_batch(
        self, entries: List[LogEntry], first: int, last: int
    ) -> Generator:
        # Local group commit.
        self.node.wal.append(entries_size(entries))
        local_sync = self.node.wal.sync()
        # Eager push to every follower (connections are FIFO-reliable, so
        # followers lag but never gap); majority counted in callbacks.
        rpcs = [self.send_entries(peer, first - 1, entries) for peer in self.peers]
        majority = self.majority_ack_event(rpcs)
        gate = AndEvent(local_sync, majority, name=f"{self.id}:commit-gate")
        yield gate.wait(timeout_ms=REPLICATION_TIMEOUT_MS)
        while not gate.ready() and not self.rt.crashed:
            yield gate.wait(timeout_ms=REPLICATION_TIMEOUT_MS)

        # Flow-control checkpoint: the pathological all-follower wait.
        self._batches_since_checkpoint += 1
        if self._batches_since_checkpoint >= self.checkpoint_every_batches and self.peers:
            self._batches_since_checkpoint = 0
            checkpoint = AndEvent(
                *[self.ack_event(peer, last) for peer in self.peers],
                name=f"{self.id}:flow-control-checkpoint",
            )
            before = self.rt.now
            yield checkpoint.wait(timeout_ms=self.checkpoint_timeout_ms)
            stalled = self.rt.now - before
            if stalled > 1.0:
                self.checkpoint_stalls += 1
                self.checkpoint_stall_ms += stalled

    @classmethod
    def default_config(cls, leader: str) -> BaselineConfig:
        return BaselineConfig(leader=leader)
