"""TiDB-like baseline: single-threaded raftstore with blocking cache-miss reads.

TiDB's raftstore drives every region on one thread. The leader keeps
recent entries in an in-memory ``EntryCache``; when a lagging follower's
acked index falls below the cache floor, regenerating its append message
reads the evicted entries back from RocksDB — *synchronously, on the store
thread* — so every region (here: every batch) served by that thread stalls
for the read. That is the first root cause of §2.2, confirmed by the
developers.

Mechanics modelled here:

* one store-loop coroutine does everything in sequence: batch formation,
  WAL fsync, per-peer message generation, commit, apply — nothing else
  makes progress while it waits;
* pipelining to a follower stops once its un-acked backlog exceeds
  ``pipeline_cap_entries`` (raft-rs's max-inflight behaviour); from then
  on each store-loop cycle regenerates a probe window starting at the
  follower's acked index;
* probe entries below the cache floor cost a page-granular random disk
  read (``read_page_bytes`` per entry) that the store loop waits on.
"""

from __future__ import annotations

from typing import Generator, List

from repro.baselines.base import BaselineConfig, BaselineRsm
from repro.cluster.leader import REPLICATION_TIMEOUT_MS
from repro.events.compound import AndEvent
from repro.raft.types import LogEntry, entries_size


class TidbLikeRsm(BaselineRsm):
    """Fixed-leader RSM whose leader runs everything on one store thread."""

    system_name = "tidb-like"
    # The whole leader data path runs in this one coroutine.
    _batcher_name = "store-loop"

    pipeline_cap_entries = 256
    probe_window_entries = 128
    read_page_bytes = 8192  # RocksDB-class block reads, one per entry

    def __init__(self, node, group, config=None):
        if config is None:
            config = self.default_config(group[0])
        super().__init__(node, group, config=config)
        self.blocking_reads = 0
        self.blocking_read_ms = 0.0

    @classmethod
    def default_config(cls, leader: str) -> BaselineConfig:
        # TiDB's EntryCache is deliberately small; a follower that lags by
        # a few hundred entries already falls off it.
        return BaselineConfig(leader=leader, entry_cache_entries=512)

    # ------------------------------------------------------------------
    # The store loop: the base batcher, named for the one store thread
    # ------------------------------------------------------------------
    def _replicate_batch(self, entries: List[LogEntry], first: int, last: int) -> Generator:
        # Raftstore fsyncs raft-log writes on the store thread.
        self.node.wal.append(entries_size(entries))
        local_sync = self.node.wal.sync()
        yield local_sync.wait()

        # Generate per-peer messages — the blocking-read pathology.
        rpcs = []
        for peer in self.peers:
            lag = (first - 1) - self._match_index[peer]
            if lag <= self.pipeline_cap_entries:
                rpcs.append(self.send_entries(peer, first - 1, entries))
            else:
                yield from self._probe_lagging_peer(peer)
        majority = self.majority_ack_event(rpcs) if rpcs else None
        if majority is not None:
            gate = AndEvent(majority, name=f"{self.id}:commit-gate")
            yield gate.wait(timeout_ms=REPLICATION_TIMEOUT_MS)
            while not gate.ready() and not self.rt.crashed:
                yield gate.wait(timeout_ms=REPLICATION_TIMEOUT_MS)
        # Commit + apply follow in the batcher, also on the store thread.

    def _probe_lagging_peer(self, peer: str) -> Generator:
        """Regenerate a probe window for a peer that fell off the pipeline.

        Entries below the EntryCache floor require a synchronous disk
        read; because this runs inside the store loop, the read blocks
        batch processing for every client — TiDB's confirmed root cause.
        """
        next_index = self._match_index[peer] + 1
        last = min(self.log.last_index(), next_index + self.probe_window_entries - 1)
        if next_index > last:
            return
        entries, _raw_bytes, misses = self.log.slice_cached(next_index, last)
        if misses > 0:
            read_bytes = misses * self.read_page_bytes
            # A *synchronous* read on the store thread: while the device
            # works, the thread is unavailable to every other task that
            # shares it. The node's CPU queue is that thread, so we occupy
            # it for the I/O's duration; the read itself is issued to keep
            # the device busy but the thread-block is what propagates.
            self.node.wal.read(read_bytes)
            disk = self.node.disk
            blocked_ms = disk.op_latency_ms + read_bytes / disk.effective_rate()
            before = self.rt.now
            yield self.rt.compute(blocked_ms, name="store-thread-blocked")
            self.blocking_reads += 1
            self.blocking_read_ms += self.rt.now - before
        self.send_entries(peer, next_index - 1, entries)
