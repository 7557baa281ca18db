"""The Raft log a running node reads: a volatile face over its durable run.

The entries live once, in the retained run of the node's
:class:`~repro.storage.durable.DurableRaftState`, which outlives the process
(``RaftLog()`` without a store gets a private one). The face keeps only what
dies with the process: a TiDB-style entry cache of the ``cache_entries``
most recently appended indices, which decides whether *reading* an old
entry is free (hit) or costs a disk read (miss) — the distinction at the
heart of the TiDB root cause and of DepFastRaft's non-blocking repair path.

The cache holds no copy: appends are its only puts and always land at
``last_index() + 1``, so every index appended after a live index *i* lies in
(i, H], where H is the larger of ``last_index()`` and the highest index cut
by a truncation made since *i* was appended. *i* hits iff ``H - i <
cache_entries``; one ``(first cut, highest cut)`` pair per truncation is
all the bookkeeping that needs.

The log's *base* is the store's snapshot boundary; followers behind it are
caught up by snapshot install rather than entry replay. Only the newest
face over a store may write: a restarted process opens a new one, and the
crashed process's face then raises on any write.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.raft.types import LogEntry, entries_size
from repro.storage.durable import DurableRaftState


class RaftLog:
    """Append-only log with term queries, conflict truncation, compaction."""

    def __init__(self, cache_entries: int = 4096, store: Optional[DurableRaftState] = None):
        if cache_entries < 1:
            raise ValueError("cache must hold at least one entry")
        self._store = store if store is not None else DurableRaftState("log")
        self._store.incarnation = self._incarnation = self._store.incarnation + 1
        self.cache_entries = cache_entries
        self.cache_hits = 0
        self.cache_misses = 0
        # (first cut, highest cut) per truncate_from, ascending; a cut merges
        # every pair at or above its first index (see the module docstring).
        self._cuts: List[Tuple[int, int]] = []

    def _writable(self) -> DurableRaftState:
        if self._store.incarnation != self._incarnation:
            raise RuntimeError(f"{self._store.node_id}: a newer process owns this log")
        return self._store

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def base_index(self) -> int:
        return self._store.snapshot_index

    @property
    def base_term(self) -> int:
        return self._store.snapshot_term

    def last_index(self) -> int:
        return self._store.snapshot_index + len(self._store._log)

    def last_term(self) -> int:
        return self.term_at(self.last_index())

    def live_entries(self) -> int:
        """Entries currently held above the snapshot base."""
        return len(self._store._log)

    def term_at(self, index: int) -> Optional[int]:
        """Term at ``index``; the base's term at the base; None if absent
        (beyond the end, or compacted away below the base)."""
        store = self._store
        offset = index - store.snapshot_index - 1
        if 0 <= offset < len(store._log):
            return store._log[offset].term
        return store.snapshot_term if offset == -1 else None

    def entry_at(self, index: int) -> LogEntry:
        store = self._store
        offset = index - store.snapshot_index - 1
        if not 0 <= offset < len(store._log):
            raise IndexError(f"log has no live index {index} (base {store.snapshot_index})")
        return store._log[offset]

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def append(self, entry: LogEntry) -> None:
        self._writable().append(entry)

    def truncate_from(self, index: int) -> int:
        """Drop entries at ``index`` and beyond; returns how many dropped."""
        store = self._writable()
        if index <= store.snapshot_index:
            raise ValueError(f"cannot truncate into the snapshot (base={store.snapshot_index})")
        highest = self.last_index()
        dropped = store.truncate(index)
        if dropped:
            cuts = self._cuts
            while cuts and cuts[-1][0] >= index:
                highest = max(highest, cuts.pop()[1])
            cuts.append((index, highest))
        return dropped

    def append_or_overwrite(self, entries: Sequence[LogEntry]) -> int:
        """Follower-side install: truncate conflicts, append the new suffix.

        Entries at or below the snapshot base are skipped (the snapshot
        already covers them). Returns the number of genuinely new/changed
        entries (the ones that must hit the WAL).
        """
        changed = 0
        base = self.base_index
        for entry in entries:
            if entry.index <= base:
                continue
            existing_term = self.term_at(entry.index)
            if existing_term is None:
                self.append(entry)
                changed += 1
            elif existing_term != entry.term:
                self.truncate_from(entry.index)
                self.append(entry)
                changed += 1
            # else: duplicate of what we already have; skip.
        return changed

    def truncate_prefix(self, new_base_index: int) -> int:
        """Fold everything up to ``new_base_index`` into the snapshot.

        Returns the number of entries compacted away. The new base must be
        a live index (its term is recorded as the snapshot's term).
        """
        store = self._writable()
        base = store.snapshot_index
        if new_base_index <= base:
            return 0
        if new_base_index > self.last_index():
            raise ValueError(f"cannot compact to {new_base_index}: last is {self.last_index()}")
        store.compact(new_base_index, self.term_at(new_base_index))
        self._cuts = [cut for cut in self._cuts if cut[0] > new_base_index]
        return new_base_index - base

    def reset_to_snapshot(self, last_index: int, last_term: int) -> None:
        """Replace the whole log with a received snapshot boundary."""
        store = self._writable()
        store.truncate(store.snapshot_index + 1)
        store.compact(last_index, last_term)
        self._cuts.clear()

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def slice(self, first: int, last: int) -> List[LogEntry]:
        """Live entries in [first, last], clamped to the live range."""
        store = self._store
        offset = store.snapshot_index + 1
        first = max(offset, first)
        last = min(offset + len(store._log) - 1, last)
        if first > last:
            return []
        return store._log[first - offset : last - offset + 1]

    def slice_cached(self, first: int, last: int) -> Tuple[List[LogEntry], int, int]:
        """Like :meth:`slice` but reports what must come back from disk.

        Returns (entries, disk_bytes, miss_count): a non-zero miss count
        means some requested entries were evicted from the entry cache and
        a disk read is required before they can be sent. ``disk_bytes`` is
        the entries' raw size; callers model read amplification (page-
        granular random reads) on top of the miss count.
        """
        entries = self.slice(first, last)
        # H - i falls as i rises, so the misses are a prefix of the slice.
        misses = 0
        for entry in entries:
            if not self._evicted(entry.index):
                break
            misses += 1
        self.cache_misses += misses
        self.cache_hits += len(entries) - misses
        return entries, entries_size(entries[:misses]), misses

    def _evicted(self, index: int) -> bool:
        """Live ``index`` has fallen out of the entry cache."""
        highest = self.last_index()
        for cut_first, cut_highest in reversed(self._cuts):
            if cut_first <= index:
                break
            highest = max(highest, cut_highest)
        return highest - index >= self.cache_entries

    def matches(self, prev_index: int, prev_term: int) -> bool:
        """Raft's log-matching check for an incoming AppendEntries.

        Anything below our snapshot base is committed state we already
        hold, so it matches by construction.
        """
        if prev_index < self.base_index:
            return True
        term = self.term_at(prev_index)
        return term is not None and term == prev_term

    def up_to_date(self, other_last_term: int, other_last_index: int) -> bool:
        """True if (other_term, other_index) is at least as recent as ours."""
        if other_last_term != self.last_term():
            return other_last_term > self.last_term()
        return other_last_index >= self.last_index()
