"""The Raft log: in-memory entries, entry cache, and log compaction.

The simulation keeps live entries in memory (state is cheap); a TiDB-style
entry cache of the ``cache_entries`` most recently appended indices decides
whether *reading* an old entry is free (cache hit) or costs a disk read
(miss) — the distinction at the heart of the TiDB root cause and of
DepFastRaft's non-blocking repair path.

The cache holds no copy: appends are its only puts and always land at
``last_index() + 1``, so every index appended after a live index *i* lies in
(i, H], where H is the larger of ``last_index()`` and the highest index cut
by a truncation made since *i* was appended. *i* hits iff ``H - i <
cache_entries``; one ``(first cut, highest cut)`` pair per truncation is
all the bookkeeping that needs.

Compaction gives the log a *base*: everything at or below ``base_index``
has been folded into a snapshot. Entries are then 1-based above the base;
followers that fall behind the base are caught up by snapshot install
rather than entry replay.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.raft.types import LogEntry, entries_size


class RaftLog:
    """Append-only log with term queries, conflict truncation, compaction."""

    def __init__(self, cache_entries: int = 4096):
        if cache_entries < 1:
            raise ValueError("cache must hold at least one entry")
        self._entries: List[LogEntry] = []
        self.cache_entries = cache_entries
        self.cache_hits = 0
        self.cache_misses = 0
        # (first cut, highest cut) per truncate_from, ascending; a cut merges
        # every pair at or above its first index (see the module docstring).
        self._cuts: List[Tuple[int, int]] = []
        # Snapshot boundary: indices <= base_index live in the snapshot.
        self.base_index = 0
        self.base_term = 0

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    def last_index(self) -> int:
        return self.base_index + len(self._entries)

    def last_term(self) -> int:
        if self._entries:
            return self._entries[-1].term
        return self.base_term

    def live_entries(self) -> int:
        """Entries currently held in memory (above the snapshot base)."""
        return len(self._entries)

    def term_at(self, index: int) -> Optional[int]:
        """Term at ``index``; the base's term at the base; None if absent
        (beyond the end, or compacted away below the base)."""
        if index == self.base_index:
            return self.base_term
        if self.base_index < index <= self.last_index():
            return self._entries[index - self.base_index - 1].term
        return None

    def entry_at(self, index: int) -> LogEntry:
        if not self.base_index < index <= self.last_index():
            raise IndexError(
                f"log has no live index {index} "
                f"(base={self.base_index}, last={self.last_index()})"
            )
        return self._entries[index - self.base_index - 1]

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def append(self, entry: LogEntry) -> None:
        expected = self.last_index() + 1
        if entry.index != expected:
            raise ValueError(f"appending index {entry.index}, expected {expected}")
        self._entries.append(entry)

    def truncate_from(self, index: int) -> int:
        """Drop entries at ``index`` and beyond; returns how many dropped."""
        if index <= self.base_index:
            raise ValueError(f"cannot truncate into the snapshot (base={self.base_index})")
        offset = index - self.base_index - 1
        dropped = max(0, len(self._entries) - offset)
        if dropped:
            cuts, highest = self._cuts, self.last_index()
            while cuts and cuts[-1][0] >= index:
                highest = max(highest, cuts.pop()[1])
            cuts.append((index, highest))
        del self._entries[offset:]
        return dropped

    def append_or_overwrite(self, entries: Sequence[LogEntry]) -> int:
        """Follower-side install: truncate conflicts, append the new suffix.

        Entries at or below the snapshot base are skipped (the snapshot
        already covers them). Returns the number of genuinely new/changed
        entries (the ones that must hit the WAL).
        """
        changed = 0
        for entry in entries:
            if entry.index <= self.base_index:
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

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def truncate_prefix(self, new_base_index: int) -> int:
        """Fold everything up to ``new_base_index`` into the snapshot.

        Returns the number of entries compacted away. The new base must be
        a live index (its term is recorded as the snapshot's term).
        """
        if new_base_index <= self.base_index:
            return 0
        if new_base_index > self.last_index():
            raise ValueError(
                f"cannot compact to {new_base_index}: last is {self.last_index()}"
            )
        new_base_term = self.term_at(new_base_index)
        dropped = new_base_index - self.base_index
        del self._entries[:dropped]
        self._cuts = [cut for cut in self._cuts if cut[0] > new_base_index]
        self.base_index = new_base_index
        self.base_term = new_base_term if new_base_term is not None else 0
        return dropped

    def reset_to_snapshot(self, last_index: int, last_term: int) -> None:
        """Replace the whole log with a received snapshot boundary."""
        self._entries.clear()
        self._cuts.clear()
        self.base_index = last_index
        self.base_term = last_term

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def slice(self, first: int, last: int) -> List[LogEntry]:
        """Live entries in [first, last], clamped to the live range."""
        if first > last:
            return []
        first = max(self.base_index + 1, first)
        last = min(self.last_index(), last)
        if first > last:
            return []
        offset = self.base_index + 1
        return self._entries[first - offset : last - offset + 1]

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
