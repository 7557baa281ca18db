"""Simulated stable storage for a consensus node (survives restarts).

The simulation's :class:`~repro.storage.wal.WriteAheadLog` accounts disk
*timing* (bytes, fsyncs); this module accounts disk *contents*: which Raft
metadata, log entries and snapshot would actually be readable after a
crash. One :class:`DurableRaftState` outlives its node's process — it is
held by whoever deploys the group and handed back to the replacement
:class:`~repro.raft.node.RaftNode` on restart, which recovers by snapshot
load + WAL replay.

Durability is a watermark over staging order, mirroring the WAL's group
commit. Every entry written to the WAL buffer is *staged* under the next
value of one monotone counter (which, like the rest of this object,
outlives restarts). An fsync covers everything staged before it began, so
``begin_sync`` returns the counter's current value — the *token* — and
``commit_sync(token)`` raises the watermark to it when the fsync
completes. An entry is durable iff its seq is at or below the watermark;
one staged but not yet synced at crash time is lost — exactly the window
real Raft tolerates, because such entries were never acknowledged.

``commit_sync`` takes the ``max`` because fsyncs overlap: a later capture
covers a superset of every earlier one, so completions arriving out of
order, never arriving (crash, a write-behind queue dropped on retire) or
arriving after a restart can only move the watermark to a position some
completed fsync really covered. An entry re-staged after ``begin_sync``
(overwritten, or appended at a recycled index) holds bytes the in-flight
fsync never saw; it carries a fresh seq above that fsync's token, so no
side table is needed to keep a stale completion from over-reporting what
is on disk.

The Raft callers keep the retained indices one contiguous run starting at
``snapshot_index + 1``, so the store is two columns from there: the entries
and their staging seqs. Staging anywhere but inside the run or right after
it raises; truncation, compaction and recovery touch only what they remove.
"""

from __future__ import annotations

from array import array
from typing import Any, List, Optional


class DurableRaftState:
    """What one Raft node would find on its disk after a reboot."""

    def __init__(self, node_id: str):
        self.node_id = node_id
        # Raft metadata (persisted synchronously in real Raft; modelled as
        # a free metadata write here — it is tens of bytes).
        self.term = 0
        self.voted_for: Optional[str] = None
        # Snapshot: state-machine image + the log boundary it covers.
        self.snapshot_index = 0
        self.snapshot_term = 0
        self.snapshot: Optional[dict] = None
        # The retained run: ``_log[i]`` is index ``snapshot_index + 1 + i``
        # and ``_seqs[i]`` its staging seq. Entries are generic objects with
        # .index/.term attributes to avoid an import cycle with repro.raft.types.
        self._log: List[Any] = []
        self._seqs = array("q")
        self._seq = 0  # last staging sequence handed out
        self._durable_seq = 0  # highest seq a completed fsync covered
        self.recoveries = 0
        self.lost_on_recovery = 0  # staged-but-unsynced entries dropped

    # ------------------------------------------------------------------
    # Metadata
    # ------------------------------------------------------------------
    def save_term(self, term: int, voted_for: Optional[str]) -> None:
        self.term = term
        self.voted_for = voted_for

    # ------------------------------------------------------------------
    # Log entries
    # ------------------------------------------------------------------
    def stage_entries(self, entries) -> None:
        """Record entries written to the WAL buffer (not yet fsynced).

        Mirrors the follower's ``append_or_overwrite``: a conflicting term
        at some index invalidates everything from that index on.
        """
        log, seqs = self._log, self._seqs
        for entry in entries:
            offset = entry.index - self.snapshot_index - 1
            if offset != len(log):
                if not 0 <= offset < len(log):
                    raise ValueError(
                        f"{self.node_id}: cannot stage index {entry.index} outside the "
                        f"retained run {self.snapshot_index + 1}..{self.snapshot_index + len(log)}"
                    )
                if log[offset].term == entry.term:  # re-staged: fresh bytes, same slot
                    self._seq += 1
                    log[offset] = entry
                    seqs[offset] = self._seq
                    continue
                self._drop_from(entry.index)
            self._seq += 1
            log.append(entry)
            seqs.append(self._seq)

    def begin_sync(self) -> int:
        """The token of an fsync about to start: it covers all staged so far.

        Pass it back verbatim to :meth:`commit_sync` when the fsync
        completes.
        """
        return self._seq

    def commit_sync(self, token: int) -> None:
        """The fsync that took ``token`` completed: its prefix is durable.

        Entries staged after ``begin_sync`` handed out the token carry a
        larger seq and stay non-durable — that flush never saw them.
        """
        self._durable_seq = max(self._durable_seq, token)

    def _drop_from(self, index: int) -> int:
        """Delete the retained run from ``index`` up; returns its length."""
        offset = index - self.snapshot_index - 1
        dropped = len(self._log) - offset
        del self._log[offset:]
        del self._seqs[offset:]
        return dropped

    # ------------------------------------------------------------------
    # Snapshot + compaction
    # ------------------------------------------------------------------
    def save_snapshot(self, last_index: int, last_term: int, state: dict) -> None:
        """Persist a state-machine snapshot and drop covered log entries."""
        if last_index < self.snapshot_index:
            return  # stale
        covered = last_index - self.snapshot_index
        del self._log[:covered]
        del self._seqs[:covered]
        self.snapshot_index = last_index
        self.snapshot_term = last_term
        self.snapshot = state

    def clear_log(self) -> None:
        """Drop all log entries (an installed snapshot replaced them)."""
        del self._log[:]
        del self._seqs[:]

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def recovered_entries(self) -> List[Any]:
        """The contiguous durable log suffix above the snapshot, in order.

        Replay stops at the first non-durable entry — bytes past a torn
        write are unreadable. Anything dropped is counted in
        ``lost_on_recovery``.
        """
        replayed = 0
        for seq in self._seqs:
            if seq > self._durable_seq:
                break
            replayed += 1
        entries = self._log[:replayed]
        self.lost_on_recovery += self._drop_from(self.snapshot_index + 1 + replayed)
        return entries

    def has_state(self) -> bool:
        return bool(self._log) or self.snapshot is not None or self.term > 0

    def durable_count(self) -> int:
        return sum(1 for seq in self._seqs if seq <= self._durable_seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<DurableRaftState {self.node_id} term={self.term} "
            f"snap@{self.snapshot_index} entries={len(self._log)}>"
        )
