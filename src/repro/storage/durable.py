"""Simulated stable storage for a consensus node (survives restarts).

The simulation's :class:`~repro.storage.wal.WriteAheadLog` accounts disk
*timing* (bytes, fsyncs); this module accounts disk *contents*: which Raft
metadata, log entries and snapshot would actually be readable after a
crash. One :class:`DurableRaftState` outlives its node's process — it is
held by whoever deploys the group and handed back to the replacement
:class:`~repro.raft.node.RaftNode` on restart, which recovers by snapshot
load and by dropping the run above the watermark.

It is also the node's only copy of the log: one contiguous run of entries
from ``snapshot_index + 1`` plus a column of their staging seqs, which the
process reads and writes through its volatile face,
:class:`~repro.raft.log.RaftLog`. The run is cut in two places only:
:meth:`truncate` (a suffix) and :meth:`compact` (a prefix).

Durability is a watermark over staging order, mirroring the WAL's group
commit. Every entry written to the WAL buffer is *staged* under the next
value of one monotone counter. An fsync covers everything staged before it
began, so ``begin_sync`` returns the counter's current value — the *token*
— and ``commit_sync(token)`` raises the watermark to it when the fsync
completes. An entry is durable iff its seq is at or below the watermark;
one staged but not yet synced at crash time is lost — exactly the window
real Raft tolerates, because such entries were never acknowledged. One
appended but not yet staged carries :data:`UNSTAGED`, above every token;
staging goes in index order, so such entries only ever form the run's tail.

``commit_sync`` takes the ``max`` because fsyncs overlap: a later capture
covers a superset of every earlier one, so completions arriving out of
order, never arriving (crash, a write-behind queue dropped on retire) or
arriving after a restart can only move the watermark to a position some
completed fsync really covered. An entry re-staged after ``begin_sync``
carries a fresh seq above that fsync's token, so no side table is needed
to keep a stale completion from over-reporting what is on disk.
"""

from __future__ import annotations

from array import array
from typing import Any, List, Optional

# Seq of an entry appended but not yet staged: never durable, and not
# counted lost when recovery drops it (it never reached the WAL buffer).
UNSTAGED = 2**63 - 1


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
        self.incarnation = 0  # RaftLog faces opened over the run; the latest writes
        self.recoveries = 0
        self.lost_on_recovery = 0  # staged-but-unsynced entries dropped

    def save_term(self, term: int, voted_for: Optional[str]) -> None:
        self.term = term
        self.voted_for = voted_for

    # ------------------------------------------------------------------
    # The run: appended by the face, cut once at each end
    # ------------------------------------------------------------------
    def append(self, entry) -> None:
        """Add ``entry`` at the run's end, not yet staged."""
        expected = self.snapshot_index + len(self._log) + 1
        if entry.index != expected:
            raise ValueError(f"appending index {entry.index}, expected {expected}")
        self._log.append(entry)
        self._seqs.append(UNSTAGED)

    def truncate(self, index: int) -> int:
        """Delete the run from ``index`` (above the snapshot) up; returns how many went."""
        offset = index - self.snapshot_index - 1
        dropped = max(0, len(self._log) - offset)
        del self._log[offset:]
        del self._seqs[offset:]
        return dropped

    def compact(self, index: int, term: int) -> None:
        """Fold the run through ``index`` (maybe past its end) into the snapshot."""
        covered = index - self.snapshot_index
        del self._log[:covered]
        del self._seqs[:covered]
        self.snapshot_index = index
        self.snapshot_term = term

    def save_snapshot(self, last_index: int, last_term: int, state: dict) -> None:
        """Persist a state-machine snapshot and drop covered log entries."""
        if last_index < self.snapshot_index:
            return  # stale
        self.compact(last_index, last_term)
        self.snapshot = state

    def recover(self) -> None:
        """Crash recovery: drop the run above the watermark.

        The run ends before its first non-durable entry — bytes past a torn
        write are unreadable; staged ones dropped count in ``lost_on_recovery``.
        """
        self.recoveries += 1
        seqs = self._seqs
        kept = next((i for i, seq in enumerate(seqs) if seq > self._durable_seq), len(seqs))
        self.lost_on_recovery += sum(1 for seq in seqs[kept:] if seq != UNSTAGED)
        self.truncate(self.snapshot_index + 1 + kept)

    # ------------------------------------------------------------------
    # Staging and fsync
    # ------------------------------------------------------------------
    def stage_entries(self, entries) -> None:
        """Record entries written to the WAL buffer (not yet fsynced).

        Each takes a fresh seq. It must sit in the run at the same term
        (first staging, or fresh bytes in the same slot) or be the run's
        next index, above no unstaged entry (the WAL is written in index
        order); ``RaftLog.append_or_overwrite`` resolves conflicts.
        """
        log, seqs, first = self._log, self._seqs, self.snapshot_index + 1
        for entry in entries:
            offset = entry.index - first
            if not 0 <= offset <= len(log) or offset < len(log) and log[offset].term != entry.term:
                raise ValueError(
                    f"{self.node_id}: cannot stage index {entry.index} (term {entry.term}) against"
                    f" the retained run {first}..{first + len(log) - 1}"
                )
            if offset and seqs[offset - 1] == UNSTAGED:
                raise ValueError(f"{self.node_id}: stage index {entry.index - 1} before {entry.index}")
            if offset == len(log):  # the run's next index: the bounds check proved it
                log.append(entry)
                seqs.append(UNSTAGED)
            self._seq = seqs[offset] = self._seq + 1

    def begin_sync(self) -> int:
        """The token of an fsync about to start: it covers all staged so far.
        Pass it back verbatim to :meth:`commit_sync` when the fsync completes."""
        return self._seq

    def commit_sync(self, token: int) -> None:
        """The fsync that took ``token`` completed: its prefix is durable.

        Entries staged after ``begin_sync`` handed out the token carry a
        larger seq and stay non-durable — that flush never saw them.
        """
        self._durable_seq = max(self._durable_seq, token)

    def has_state(self) -> bool:
        return bool(self._log) or self.snapshot is not None or self.term > 0

    def durable_count(self) -> int:
        return sum(1 for seq in self._seqs if seq <= self._durable_seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<DurableRaftState {self.node_id} term={self.term} "
            f"snap@{self.snapshot_index} entries={len(self._log)}>"
        )
