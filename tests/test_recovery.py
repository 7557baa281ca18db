"""Crash–recovery: durable state, WAL replay, session dedup, injector fixes."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.cluster.cluster import Cluster
from repro.faults.catalog import TABLE1
from repro.faults.injector import FaultInjector
from repro.raft.config import RaftConfig
from repro.raft.log import RaftLog
from repro.raft.service import (
    deploy_depfast_raft,
    find_leader,
    restart_raft_node,
    wait_for_leader,
)
from repro.raft.types import LogEntry, entries_size
from repro.storage.durable import UNSTAGED, DurableRaftState
from repro.storage.kvstore import KvStore
from repro.workload.driver import ClosedLoopDriver, KvServiceClient
from repro.workload.ycsb import YcsbWorkload


class _Entry:
    def __init__(self, index, term, op=("noop",)):
        self.index = index
        self.term = term
        self.op = op


class _PerEntryModel:
    """Test oracle: the per-entry algorithm the watermark replaced.

    A durable bit per retained entry, a table of staging sequences so an
    overlapping fsync can tell its capture went stale, ``begin_sync``
    capturing every non-durable ``(index, seq)`` and every removal
    filtering all keys — no assumption about which indices are retained.
    """

    def __init__(self):
        self.snapshot_index = self.snapshot_term = 0
        self.snapshot = None
        self.entries = {}  # index -> (entry, durable?)
        self.staged_seq = {}
        self.seq = 0
        self.lost_on_recovery = 0

    def _drop(self, doomed):
        for index in [i for i in self.entries if doomed(i)]:
            del self.entries[index]
            del self.staged_seq[index]

    def stage_entries(self, entries):
        for entry in entries:
            existing = self.entries.get(entry.index)
            if existing is not None and existing[0].term != entry.term:
                self._drop(lambda i: i >= entry.index)
            self.entries[entry.index] = (entry, False)
            self.seq += 1
            self.staged_seq[entry.index] = self.seq

    def begin_sync(self):
        return [
            (index, self.staged_seq[index])
            for index, (_e, durable) in self.entries.items()
            if not durable
        ]

    def commit_sync(self, covered):
        for index, seq in covered:
            if self.staged_seq.get(index) == seq:
                self.entries[index] = (self.entries[index][0], True)

    def save_snapshot(self, last_index, last_term, state):
        if last_index < self.snapshot_index:
            return
        self.snapshot_index, self.snapshot_term, self.snapshot = last_index, last_term, state
        self._drop(lambda i: i <= last_index)

    def clear_log(self):
        self._drop(lambda i: True)

    def recovered_entries(self):
        entries = []
        index = self.snapshot_index + 1
        while index in self.entries and self.entries[index][1]:
            entries.append(self.entries[index][0])
            index += 1
        self.lost_on_recovery += sum(1 for i in self.entries if i >= index)
        self._drop(lambda i: i >= index)
        return entries

    def durable_count(self):
        return sum(1 for _e, durable in self.entries.values() if durable)

    def replay_into(self, log):
        """Recovery as a replay into a fresh log: the snapshot boundary,
        then every recovered entry appended in order."""
        if self.snapshot is not None:
            log.reset_to_snapshot(self.snapshot_index, self.snapshot_term)
        for entry in self.recovered_entries():
            log.append(entry)
        return log


class _TwoStoreLog:
    """The log that kept its own list of entries beside the durable store,
    before the store's run became the only copy: the reference the one log
    must answer like, paired with :class:`_PerEntryModel` for the store."""

    def __init__(self, cache_entries):
        self._entries, self._cuts = [], []
        self.cache_entries, self.cache_hits, self.cache_misses = cache_entries, 0, 0
        self.base_index = self.base_term = 0

    def last_index(self):
        return self.base_index + len(self._entries)

    def last_term(self):
        return self._entries[-1].term if self._entries else self.base_term

    def term_at(self, index):
        if index == self.base_index:
            return self.base_term
        if self.base_index < index <= self.last_index():
            return self._entries[index - self.base_index - 1].term
        return None

    def append(self, entry):
        assert entry.index == self.last_index() + 1
        self._entries.append(entry)

    def truncate_from(self, index):
        offset = index - self.base_index - 1
        dropped = max(0, len(self._entries) - offset)
        if dropped:
            cuts, highest = self._cuts, self.last_index()
            while cuts and cuts[-1][0] >= index:
                highest = max(highest, cuts.pop()[1])
            cuts.append((index, highest))
        del self._entries[offset:]
        return dropped

    def append_or_overwrite(self, entries):
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
        return changed

    def truncate_prefix(self, new_base_index):
        new_base_term = self.term_at(new_base_index)
        del self._entries[: new_base_index - self.base_index]
        self._cuts = [cut for cut in self._cuts if cut[0] > new_base_index]
        self.base_index, self.base_term = new_base_index, new_base_term

    def reset_to_snapshot(self, last_index, last_term):
        self._entries.clear()
        self._cuts.clear()
        self.base_index, self.base_term = last_index, last_term

    def slice(self, first, last):
        first, last = max(self.base_index + 1, first), min(self.last_index(), last)
        if first > last:
            return []
        return self._entries[first - self.base_index - 1 : last - self.base_index]

    def slice_cached(self, first, last):
        entries = self.slice(first, last)
        misses = 0
        for entry in entries:
            highest = self.last_index()
            for cut_first, cut_highest in reversed(self._cuts):
                if cut_first <= entry.index:
                    break
                highest = max(highest, cut_highest)
            if highest - entry.index < self.cache_entries:
                break
            misses += 1
        self.cache_misses += misses
        self.cache_hits += len(entries) - misses
        return entries, entries_size(entries[:misses]), misses


_small = st.integers(min_value=0, max_value=6)
# One step of a durable-store schedule; operands are reduced modulo what
# the retained run allows, so every step is one a Raft caller could take.
_append = st.tuples(st.just("append"), st.integers(min_value=1, max_value=4))
_begin_sync = st.tuples(st.just("begin_sync"))
_commit = st.tuples(st.just("commit"), _small)  # any pending fsync: out of order too
_schedule_steps = st.lists(
    st.one_of(
        *[_append, _begin_sync, _commit] * 3,  # the common path, three times as likely
        st.tuples(st.just("overwrite"), _small, st.integers(min_value=1, max_value=3)),
        st.tuples(st.just("rewrite"), _small),  # same term: fresh bytes, same slot
        st.tuples(st.just("drop"), _small),  # that fsync's callback never arrives
        st.tuples(st.just("compact"), _small),
        st.tuples(st.just("stale_snapshot"), _small),
        st.tuples(st.just("install_snapshot"), _small),
        st.tuples(st.just("recover")),
    ),
    max_size=40,
)


def _recovered(durable):
    """Recover ``durable``; the (index, term) pairs its run keeps."""
    durable.recover()
    return [(entry.index, entry.term) for entry in durable._log]


def _counting(column, walks):
    """``column`` (a list or an array) appending to ``walks`` on every
    whole-column walk; indexing, slicing, appends and deletes are free."""
    base = type(column)

    def _counted(name):
        def method(self, *args):
            walks.append(name)
            return getattr(base, name)(self, *args)

        return method

    class Counting(base):
        __iter__, __contains__, index, count = map(
            _counted, ("__iter__", "__contains__", "index", "count")
        )

    return Counting(column) if base is list else Counting(column.typecode, column)


class TestDurableRaftState:
    def test_staged_entries_become_durable_only_after_sync(self):
        durable = DurableRaftState("s1")
        durable.stage_entries([_Entry(1, 1), _Entry(2, 1)])
        assert durable.durable_count() == 0
        covered = durable.begin_sync()
        durable.stage_entries([_Entry(3, 1)])  # staged after the fsync cut
        durable.commit_sync(covered)
        assert durable.durable_count() == 2
        assert _recovered(durable) == [(1, 1), (2, 1)]

    def test_unsynced_suffix_is_lost_on_recovery(self):
        durable = DurableRaftState("s1")
        durable.stage_entries([_Entry(1, 1)])
        covered = durable.begin_sync()
        durable.stage_entries([_Entry(2, 1), _Entry(3, 1)])
        durable.commit_sync(covered)  # only entry 1 made it to disk
        assert _recovered(durable) == [(1, 1)]
        assert durable.lost_on_recovery == 2

    def test_conflicting_term_invalidates_suffix(self):
        durable = DurableRaftState("s1")
        durable.stage_entries([_Entry(1, 1), _Entry(2, 1), _Entry(3, 1)])
        durable.commit_sync(durable.begin_sync())
        # A new leader overwrites index 2 with a higher-term entry.
        assert RaftLog(store=durable).append_or_overwrite([_Entry(2, 2)]) == 1
        durable.stage_entries([_Entry(2, 2)])
        durable.commit_sync(durable.begin_sync())
        assert _recovered(durable) == [(1, 1), (2, 2)]

    def test_restaged_entry_not_marked_durable_by_stale_sync(self):
        """A sync that began before a conflicting restage must not mark
        the restaged entry durable when it lands (overlapping
        begin_sync/commit_sync guard)."""
        durable = DurableRaftState("s1")
        durable.stage_entries([_Entry(1, 1), _Entry(2, 1)])
        covered = durable.begin_sync()
        # A new leader overwrites index 2 while that fsync is in flight.
        RaftLog(store=durable).append_or_overwrite([_Entry(2, 2)])
        durable.stage_entries([_Entry(2, 2)])
        durable.commit_sync(covered)  # index 2's seq is stale: skip it
        assert durable.durable_count() == 1
        # The next sync cut covers the restaged entry for real.
        durable.commit_sync(durable.begin_sync())
        assert _recovered(durable) == [(1, 1), (2, 2)]

    def test_snapshot_drops_covered_entries(self):
        durable = DurableRaftState("s1")
        durable.stage_entries([_Entry(i, 1) for i in range(1, 6)])
        durable.commit_sync(durable.begin_sync())
        durable.save_snapshot(3, 1, {"data": {}, "applied": 3})
        assert _recovered(durable) == [(4, 1), (5, 1)]
        durable.save_snapshot(2, 1, {"data": {}, "applied": 2})  # stale: ignored
        assert durable.snapshot_index == 3

    def test_later_sync_landing_alone_covers_the_earlier_capture(self):
        """Overlapping fsyncs: the second completes, the first's callback
        never arrives (or arrives late) — everything staged before the
        second began is on disk either way."""
        durable = DurableRaftState("s1")
        durable.stage_entries([_Entry(1, 1), _Entry(2, 1)])
        first = durable.begin_sync()
        durable.stage_entries([_Entry(3, 1)])
        second = durable.begin_sync()
        durable.stage_entries([_Entry(4, 1)])  # after both cuts
        durable.commit_sync(second)
        assert durable.durable_count() == 3
        durable.commit_sync(first)  # late and smaller: the watermark stays
        assert durable.durable_count() == 3
        assert _recovered(durable) == [(1, 1), (2, 1), (3, 1)]
        assert durable.lost_on_recovery == 1

    @given(steps=_schedule_steps)
    @example(  # a pre-crash fsync's callback fires after the restart
        steps=[("append", 2), ("begin_sync",), ("recover",), ("append", 3)]
        + [("commit", 0), ("recover",)]
    )
    @example(  # a slot overwritten while the fsync that saw its old bytes is in flight
        steps=[("append", 3), ("begin_sync",), ("overwrite", 1, 2), ("commit", 0), ("recover",)]
    )
    @settings(max_examples=1000, deadline=None)
    def test_watermark_agrees_with_per_entry_model(self, steps):
        """Any interleaving of staging, overlapping fsyncs (landing in
        order, out of order, never, or after a recovery), compaction and
        recovery leaves the watermark and the per-entry oracle agreeing.
        Conflicts and installs go through the log face, as they do in Raft."""
        durable, model = DurableRaftState("s1"), _PerEntryModel()
        log = RaftLog(store=durable)
        pending = []  # (token, model capture) of fsyncs still in flight
        term = 1

        def both(method, *args):
            return getattr(durable, method)(*args), getattr(model, method)(*args)

        for step in steps:
            kind = step[0]
            base = model.snapshot_index
            last = max(model.entries, default=base)
            if kind == "append":
                both("stage_entries", [_Entry(last + 1 + i, term) for i in range(step[1])])
            elif kind == "overwrite":
                if last == base:
                    continue
                term += 1  # a new leader: conflicts with whatever is there
                first = last - step[1] % (last - base)
                entries = [_Entry(first + i, term) for i in range(step[2])]
                assert log.append_or_overwrite(entries) == len(entries)
                both("stage_entries", entries)
            elif kind == "rewrite":
                if last == base:
                    continue
                index = last - step[1] % (last - base)
                both("stage_entries", [_Entry(index, model.entries[index][0].term)])
            elif kind == "begin_sync":
                pending.append(both("begin_sync"))
            elif kind in ("commit", "drop"):
                if not pending:
                    continue
                token, capture = pending.pop(step[1] % len(pending))
                if kind == "commit":
                    durable.commit_sync(token)
                    model.commit_sync(capture)
            elif kind == "compact":
                both("save_snapshot", last - step[1] % (last - base + 1), term, {})
            elif kind == "stale_snapshot":
                both("save_snapshot", base - 1 - step[1], term, {})
            elif kind == "install_snapshot":
                log.reset_to_snapshot(last + 1 + step[1], term)
                model.clear_log()
                both("save_snapshot", last + 1 + step[1], term, {})
            else:
                log = RaftLog(store=durable)  # the restarted process's face
                assert _recovered(durable) == [
                    (e.index, e.term) for e in model.recovered_entries()
                ]
            assert durable.durable_count() == model.durable_count()
            assert durable.lost_on_recovery == model.lost_on_recovery
            assert durable.snapshot_index == model.snapshot_index

    def test_sync_path_never_walks_the_retained_log(self):
        """Staging, the fsync token, its completion and compaction touch
        only the entries they add or remove, however many are retained."""
        durable = DurableRaftState("s1")
        durable.stage_entries([_Entry(i, 1) for i in range(1, 5_001)])
        durable.commit_sync(durable.begin_sync())
        walks = []
        durable._log, durable._seqs = _counting(durable._log, walks), _counting(durable._seqs, walks)
        for cycle in range(50):
            first = 5_001 + 4 * cycle
            durable.stage_entries([_Entry(first + i, 1) for i in range(4)])
            durable.commit_sync(durable.begin_sync())
        RaftLog(store=durable).append_or_overwrite([_Entry(5_100, 2)])  # cuts 5_100..5_200
        durable.stage_entries([_Entry(5_100, 2)])
        durable.save_snapshot(2_500, 1, {})
        assert len(walks) == 0
        assert durable.durable_count() == 5_099 - 2_500
        assert len(walks) == 1  # the counter does see a walk

    def test_staging_outside_the_retained_run_raises(self):
        """The store is one contiguous run from ``snapshot_index + 1``:
        staging past its end, below its start or over a conflicting term
        names the index and run; the log face resolves conflicts."""
        durable = DurableRaftState("s1")
        durable.stage_entries([_Entry(i, 1) for i in range(1, 6)])
        durable.save_snapshot(2, 1, {})
        with pytest.raises(ValueError, match=r"s1: cannot stage index 7 .* run 3\.\.5"):
            durable.stage_entries([_Entry(7, 1)])
        with pytest.raises(ValueError, match=r"cannot stage index 2 .* run 3\.\.5"):
            durable.stage_entries([_Entry(2, 1)])
        durable.stage_entries([_Entry(6, 1)])  # the end
        with pytest.raises(ValueError, match=r"cannot stage index 3 \(term 2\) .* run 3\.\.6"):
            durable.stage_entries([_Entry(3, 2)])
        RaftLog(store=durable).append_or_overwrite([_Entry(3, 2)])
        durable.stage_entries([_Entry(3, 2)])
        assert durable.durable_count() == 0 and _recovered(durable) == []
        assert durable.lost_on_recovery == 1


class TestOneLog:
    def test_staging_above_an_unstaged_entry_raises(self):
        """The WAL is written in index order. A batch appended but not yet
        staged cannot sit under a staged entry, where recovery would drop
        the durable entries above it that ``durable_count`` counts."""
        durable = DurableRaftState("s1")
        log = RaftLog(store=durable)
        log.append(_put(1, 1))
        log.append(_put(1, 2))  # appended, not yet staged
        log.append(_put(2, 3))
        with pytest.raises(ValueError, match=r"s1: stage index 2 before 3"):
            durable.stage_entries([log.entry_at(3)])
        with pytest.raises(ValueError, match=r"s1: stage index 3 before 4"):
            durable.stage_entries([_put(2, 4)])
        assert log.last_index() == 3  # a refused stage changes nothing
        durable.stage_entries([log.entry_at(i) for i in (1, 2, 3)])
        durable.commit_sync(durable.begin_sync())
        assert durable.durable_count() == 3
        assert _recovered(durable) == [(1, 1), (2, 1), (3, 2)]


def _put(term, index):
    return LogEntry(term, index, ("put", "k", "v"), 40 + index % 5)


class OneLogAgainstTwoStores(RuleBasedStateMachine):
    """One log — a face over the durable run — answers every step a Raft
    node takes exactly as the two-store pair it replaced: its own entry list
    beside the per-entry durable model, recovered by replay."""

    CACHE = 5  # small, so reads cross the entry cache's floor

    def __init__(self):
        super().__init__()
        self.store = DurableRaftState("s1")
        self.store.save_term(1, None)
        self.log = RaftLog(self.CACHE, store=self.store)
        self.old_log, self.model = _TwoStoreLog(self.CACHE), _PerEntryModel()
        self.term, self.leading = 1, False
        # (term, entries) appended as leader whose batch-build computes have
        # not ended; the CPU ends them in this order.
        self.batches = []
        self.pending = []  # (token, model capture) of fsyncs in flight

    def _both_stage(self, entries):
        self.store.stage_entries(entries)
        self.model.stage_entries(entries)

    def _end_build(self):
        """The oldest batch build ends: leading or deposed, the batcher
        stages what the log still holds of its batch."""
        term, batch = self.batches.pop(0)
        base = self.log.base_index
        held = [e for e in batch if e.index > base and self.log.term_at(e.index) == term]
        if held:
            self._both_stage(held)

    @rule(n=st.integers(min_value=1, max_value=4))
    def lead(self, n):
        """Append a batch as leader. With a build still running, this node
        was deposed and re-elected meanwhile: a new term's batch above it."""
        if self.batches or not self.leading:
            self.term += 1
        self.leading = True
        first = self.log.last_index() + 1
        batch = [_put(self.term, first + i) for i in range(n)]
        for entry in batch:
            self.log.append(entry)
            self.old_log.append(entry)
        self.batches.append((self.term, batch))

    @precondition(lambda self: self.batches)
    @rule()
    def build_ends(self):
        self._end_build()

    @rule(back=_small, dups=_small, n=st.integers(min_value=0, max_value=3))
    def follow(self, back, dups, n):
        """A newer leader's AppendEntries. Its compute queues behind every
        batch build, so those end first. It repeats some of this log (the
        newer leader may hold a failed batch through repair) and cuts what
        conflicts with its new entries; the changed suffix is staged."""
        while self.batches:
            self._end_build()
        self.term += 1
        self.leading = False
        base, last = self.log.base_index, self.log.last_index()
        first = last + 1 - back % (last - base + 1)
        sent = [self.log.entry_at(i) for i in range(max(base + 1, first - dups), first)]
        sent += [_put(self.term, first + i) for i in range(n)]
        changed = self.log.append_or_overwrite(sent)
        assert self.old_log.append_or_overwrite(sent) == changed
        if changed:
            self._both_stage(sent[-changed:])

    @rule()
    def begin_sync(self):
        self.pending.append((self.store.begin_sync(), self.model.begin_sync()))

    @precondition(lambda self: self.pending)
    @rule(pick=_small, lands=st.booleans())
    def fsync_ends(self, pick, lands):  # out of order, or its callback never comes
        token, capture = self.pending.pop(pick % len(self.pending))
        if lands:
            self.store.commit_sync(token)
            self.model.commit_sync(capture)

    @rule(back=_small)
    def compact(self, back):  # through applied entries: never past an unstaged one
        base = self.log.base_index
        top = base + sum(1 for seq in self.store._seqs if seq != UNSTAGED)
        if top > base:
            new_base = top - back % (top - base)
            self.log.truncate_prefix(new_base)
            self.old_log.truncate_prefix(new_base)
            self.store.save_snapshot(new_base, self.log.base_term, {"applied": new_base})
            self.model.save_snapshot(new_base, self.old_log.base_term, {"applied": new_base})

    @rule(ahead=st.integers(min_value=-3, max_value=3))
    def install_snapshot(self, ahead):
        """A newer leader's snapshot: the handler takes no CPU, so it may
        land while batch builds still run."""
        self.term += 1
        self.leading = False
        index = self.log.last_index() + ahead
        if index > self.log.base_index:
            self.log.reset_to_snapshot(index, self.term)
            self.store.save_snapshot(index, self.term, {"applied": index})
            self.old_log.reset_to_snapshot(index, self.term)
            self.model.clear_log()
            self.model.save_snapshot(index, self.term, {"applied": index})

    @rule()
    def crash_and_recover(self):
        dead, self.batches, self.leading = self.log, [], False
        self.log = RaftLog(self.CACHE, store=self.store)
        self.store.recover()
        self.old_log = self.model.replay_into(_TwoStoreLog(self.CACHE))
        with pytest.raises(RuntimeError, match="a newer process owns this log"):
            dead.truncate_from(dead.base_index + 1)

    @rule(back=st.integers(min_value=0, max_value=12), n=_small)
    def read(self, back, n):
        first = self.log.last_index() - back
        assert self.log.slice_cached(first, first + n) == self.old_log.slice_cached(
            first, first + n
        )

    @invariant()
    def both_sides_agree(self):
        log, old = self.log, self.old_log
        assert (log.base_index, log.base_term, log.last_index(), log.last_term()) == (
            old.base_index, old.base_term, old.last_index(), old.last_term()
        )
        assert [log.term_at(i) for i in range(log.base_index - 1, log.last_index() + 2)] == [
            old.term_at(i) for i in range(old.base_index - 1, old.last_index() + 2)
        ]
        assert log.slice(0, log.last_index()) == old.slice(0, old.last_index())
        assert (log.cache_hits, log.cache_misses) == (old.cache_hits, old.cache_misses)
        assert self.store.durable_count() == self.model.durable_count()
        assert self.store.lost_on_recovery == self.model.lost_on_recovery

    @invariant()
    def recovery_keeps_what_is_counted_durable(self):
        seqs, watermark = self.store._seqs, self.store._durable_seq
        staged = sum(1 for seq in seqs if seq != UNSTAGED)
        assert all(seq == UNSTAGED for seq in seqs[staged:])  # unstaged only as the tail
        kept = next((i for i, seq in enumerate(seqs) if seq > watermark), len(seqs))
        assert self.store.durable_count() == kept


TestOneLogAgainstTwoStores = OneLogAgainstTwoStores.TestCase
TestOneLogAgainstTwoStores.settings = settings(
    max_examples=300, stateful_step_count=40, deadline=None
)


class TestSessionDedup:
    def test_duplicate_retry_returns_cached_result_without_reapplying(self):
        kv = KvStore()
        first = kv.apply(("csess", "c1", 1, ("put", "k", "v1")))
        again = kv.apply(("csess", "c1", 1, ("put", "k", "v1")))
        assert first == again
        assert kv.duplicates_deduped == 1
        assert kv.exactly_once_violations() == 0
        assert kv.get("k") == "v1"

    def test_sessions_survive_snapshot_roundtrip(self):
        kv = KvStore()
        kv.apply(("csess", "c1", 1, ("put", "k", "v1")))
        clone = KvStore()
        clone.restore_state(kv.snapshot_state())
        clone.apply(("csess", "c1", 1, ("put", "k", "v1")))
        assert clone.duplicates_deduped == 1
        assert clone.exactly_once_violations() == 0

    @given(
        ops=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=6),  # request id
                st.sampled_from(["a", "b"]),  # key
                st.integers(min_value=1, max_value=3),  # duplicate count
            ),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_duplicated_retries_apply_exactly_once(self, ops):
        """However a committed log duplicates a session's requests, each
        request id mutates the state machine at most once."""
        kv = KvStore()
        reference = {}
        highest = 0
        for rid, key, copies in sorted(ops):
            if rid <= highest:
                continue  # session rids are issued in order
            highest = rid
            value = f"v{rid}"
            for _ in range(copies):
                kv.apply(("csess", "sess", rid, ("put", key, value)))
            reference[key] = value
        assert kv.exactly_once_violations() == 0
        for key, value in reference.items():
            assert kv.get(key) == value


class TestInjectorFixes:
    def test_scheduled_overlap_queues_instead_of_raising(self):
        cluster = Cluster(seed=1)
        cluster.add_node("s1")
        injector = FaultInjector(cluster)
        injector.inject_transient("s1", "cpu_slow", at_ms=100.0, duration_ms=500.0)
        injector.inject_transient("s1", "disk_slow", at_ms=300.0, duration_ms=400.0)
        cluster.run(350.0)  # second fault fired while the first is active
        assert injector.fault_on("s1").fault_type.value == "cpu_slow"
        assert injector.queued_count("s1") == 1
        cluster.run(700.0)  # first cleared at 600 -> queued fault applied
        assert injector.fault_on("s1").fault_type.value == "disk_slow"
        cluster.run(1200.0)  # queued fault keeps its full duration (600..1000)
        assert injector.fault_on("s1") is None
        actions = [action for _, _, _, action in injector.history]
        assert "queued" in actions

    def test_clear_restores_saved_memory_limit_not_default(self):
        cluster = Cluster(seed=1)
        node = cluster.add_node("s1")
        tightened = int(node.spec.memory_bytes * 0.8)
        node.memory.set_limit(tightened)  # operator-configured, non-default
        injector = FaultInjector(cluster)
        injector.inject("s1", TABLE1["memory_contention"])
        assert node.memory.limit_bytes < tightened
        injector.clear("s1")
        assert node.memory.limit_bytes == tightened

    def test_clear_restores_cpu_quota_under_background_jitter_value(self):
        cluster = Cluster(seed=1)
        node = cluster.add_node("s1")
        node.cpu.set_quota(0.9)  # ambient, non-default value
        injector = FaultInjector(cluster)
        injector.inject("s1", TABLE1["cpu_slow"])
        injector.clear("s1")
        assert node.cpu.quota == pytest.approx(0.9)


def _deploy(n=3, seed=7, **kwargs):
    cluster = Cluster(seed=seed)
    group = [f"s{i + 1}" for i in range(n)]
    config = RaftConfig(preferred_leader="s1", **kwargs)
    raft = deploy_depfast_raft(cluster, group, config=config)
    return cluster, raft, group


def _start_writer(cluster, group, n_ops=40):
    """One client putting k0..k<n> in turn; returns the dict of acked writes."""
    client_node = cluster.add_client("c1")
    client_node.start()
    client = KvServiceClient(client_node, group, session_id="c1#0")
    acked = {}

    def script():
        for i in range(n_ops):
            ok, _ = yield from client.execute(("put", f"k{i}", f"v{i}"), size_bytes=64)
            if ok:
                acked[f"k{i}"] = f"v{i}"

    client_node.runtime.spawn(script())
    return acked


class TestCrashRecovery:
    def test_crash_during_inflight_commits_acked_writes_survive(self):
        """Kill the leader mid-stream; every acknowledged write must still
        be in every replica's state machine after reboot + convergence."""
        cluster, raft, group = _deploy(seed=11)
        wait_for_leader(cluster, raft)
        acked = _start_writer(cluster, group)
        # Crash the leader while writes are in flight, reboot 2s later.
        cluster.kernel.schedule_at(
            2_500.0, lambda: cluster.node("s1").crash("test-kill")
        )
        cluster.run(4_500.0)
        assert cluster.node("s1").crashed
        recovered = restart_raft_node(cluster, raft, "s1")
        assert recovered.recovered
        assert recovered.durable.recoveries == 1
        cluster.run(40_000.0)

        assert acked, "client made no progress"
        assert find_leader(raft) is not None
        for raft_node in raft.values():
            assert not raft_node.node.crashed
            for key, value in acked.items():
                assert raft_node.kv.get(key) == value, (
                    f"{raft_node.id} lost acked write {key}"
                )
            assert raft_node.kv.exactly_once_violations() == 0

    @pytest.mark.parametrize("reboot_after_ms", [0.0, 2_000.0])
    def test_crash_between_overlapping_fsyncs_keeps_what_landed(self, reboot_after_ms):
        """A leader on a slow disk commits on its followers' acks, so its
        own fsyncs pile up in flight. Crash it with some landed and some
        not: replay holds exactly the bytes the WAL saw reach the platter.
        Rebooting at once lets the orphaned fsyncs land *after* recovery,
        where their stale callbacks must change nothing."""
        from repro.raft.types import entries_size

        cluster, raft, group = _deploy(seed=11)
        wait_for_leader(cluster, raft)
        machine = cluster.node("s1")
        machine.disk.set_cap_fraction(0.001)  # ~20 ms per fsync, ~2 ms per commit
        acked = _start_writer(cluster, group)
        io = machine.runtime.io
        landed_before = io.completed
        while not (io.completed >= landed_before + 3 and io.inflight >= 2):
            cluster.run(cluster.kernel.now + 1.0)
        old = raft["s1"]
        on_platter = machine.wal.durable_bytes
        staged = old.log.last_index()
        assert 0 < old.durable.durable_count() < staged
        assert acked, "the slow local disk must not gate commits"

        machine.crash("between overlapping fsyncs")
        cluster.run(cluster.kernel.now + reboot_after_ms)
        recovered = restart_raft_node(cluster, raft, "s1")
        replayed = recovered.log.slice(1, recovered.log.last_index())
        assert entries_size(replayed) == on_platter
        assert recovered.durable.lost_on_recovery == staged - len(replayed) > 0
        machine.disk.set_cap_fraction(1.0)
        cluster.run(cluster.kernel.now + 40_000.0)
        assert io.inflight == 0  # the orphaned fsyncs did land
        for raft_node in raft.values():
            for key, value in acked.items():
                assert raft_node.kv.get(key) == value, f"{raft_node.id} lost {key}"
        assert len({r.kv.stable_digest() for r in raft.values()}) == 1

    def test_restarted_follower_catches_up_via_replay_and_repair(self):
        cluster, raft, group = _deploy(seed=5)
        wait_for_leader(cluster, raft)
        from tests.test_raft import run_client_ops

        run_client_ops(cluster, group, [("put", f"a{i}", i) for i in range(10)])
        cluster.node("s3").crash("test")
        run_client_ops(cluster, group, [("put", f"b{i}", i) for i in range(10)])
        restarted = restart_raft_node(cluster, raft, "s3")
        assert restarted.recovered
        # The replayed log already holds the pre-crash entries...
        assert restarted.log.last_index() >= 10
        cluster.run(cluster.kernel.now + 15_000.0)
        # ...and repair delivers the rest; states converge exactly.
        digests = {r.kv.stable_digest() for r in raft.values()}
        assert len(digests) == 1

    def test_partition_heal_convergence(self):
        """Majority keeps committing while the old leader is partitioned
        away; after the heal the minority rejoins the same history."""
        cluster, raft, group = _deploy(seed=9)
        wait_for_leader(cluster, raft)
        from tests.test_raft import run_client_ops

        run_client_ops(cluster, group, [("put", "x", 1)])
        cluster.network.isolate("s1")
        results = run_client_ops(cluster, group, [("put", "y", 2), ("put", "z", 3)])
        assert all(ok for ok, _ in results)
        new_leader = find_leader(raft)
        assert new_leader is not None and new_leader.id != "s1"
        cluster.network.heal()
        cluster.run(cluster.kernel.now + 15_000.0)
        leaders = [r for r in raft.values() if r.role.value == "leader"]
        assert len(leaders) == 1
        digests = {r.kv.stable_digest() for r in raft.values()}
        assert len(digests) == 1
        assert raft["s1"].kv.get("z") == 3


    def test_a_crashed_incarnation_cannot_change_the_shared_run(self):
        """The durable run outlives the process, and the dead process's log
        face still points at it: a follower crashed mid-load and restarted
        reads exactly the run at every sample, and the dead face cannot
        write it."""
        cluster, raft, group = _deploy(seed=5)
        wait_for_leader(cluster, raft)
        workload = YcsbWorkload(cluster.rng.stream("ycsb"), record_count=64, value_size=32)
        driver = ClosedLoopDriver(cluster, group, workload, n_clients=4)
        driver.start()
        cluster.run(cluster.kernel.now + 300.0)
        dead = raft["s3"]
        cluster.node("s3").crash("mid-load")
        cluster.run(cluster.kernel.now + 200.0)
        live = restart_raft_node(cluster, raft, "s3")
        assert live.durable is dead.durable
        crash_last = live.log.last_index()
        for _ in range(100):
            cluster.run(cluster.kernel.now + 10.0)
            store, log = live.durable, live.log
            assert log.last_index() == store.snapshot_index + len(store._log)
            seen = log.slice(log.base_index + 1, log.last_index())
            assert seen == store._log
            for write in (
                lambda: dead.log.truncate_from(dead.log.base_index + 1),
                lambda: dead.log.append(_put(dead.term, dead.log.last_index() + 1)),
                lambda: dead.log.truncate_prefix(dead.log.last_index()),
                lambda: dead.log.reset_to_snapshot(dead.log.last_index() + 5, dead.term),
            ):
                with pytest.raises(RuntimeError, match="s3: a newer process owns this log"):
                    write()
            assert log.slice(log.base_index + 1, log.last_index()) == seen
        driver.stop()
        assert live.log.last_index() > crash_last  # it kept replicating


class TestCrashWhileBreakerTripped:
    @pytest.mark.slow
    def test_queued_entries_lost_but_group_converges(self):
        """Reboot under a tripped breaker: the write-behind queue dies with
        the process, recovery reflects only what was actually fsynced, and
        the majority (which kept real-fsyncing) re-replicates the rest."""
        from repro.bench.breaker import BACKEND_CONTENTION
        from repro.breaker import (
            AttributionConfig,
            BreakerState,
            install_breaker_wals,
        )
        from repro.detector.mitigation import MitigationConfig, MitigationController
        from repro.workload.driver import ClosedLoopDriver
        from repro.workload.ycsb import YcsbWorkload

        cluster, raft, group = _deploy(seed=13)
        install_breaker_wals(cluster, group)
        controller = MitigationController(
            cluster,
            raft,
            detectors=[],
            config=MitigationConfig(
                window_ms=250.0,
                attribution=AttributionConfig(suspect_windows=1, min_samples=3),
            ),
        )
        controller.start()
        wait_for_leader(cluster, raft)
        workload = YcsbWorkload(
            cluster.rng.stream("ycsb"), record_count=1_000, value_size=200
        )
        driver = ClosedLoopDriver(cluster, group, workload, n_clients=8)
        driver.start()

        FaultInjector(cluster).inject_transient("s3", BACKEND_CONTENTION, 500.0, 2_500.0)
        cluster.run(2_500.0)
        wal = cluster.node("s3").wal
        assert wal.state == BreakerState.OPEN
        assert wal.queued_bytes > 0  # acked-from-memory bytes at risk

        cluster.node("s3").crash("crash while breaker tripped")
        assert wal.dropped_entries_on_retire > 0  # the queue died unfsynced
        cluster.run(4_000.0)
        restarted = restart_raft_node(cluster, raft, "s3")
        assert restarted.recovered
        assert restarted.durable.lost_on_recovery > 0  # honest recovery
        # Keep client traffic flowing: the crashed node was demoted to
        # learner, and learners catch up by riding live replication.
        cluster.run(12_000.0)
        driver.stop()
        cluster.run(25_000.0)

        # The majority kept real fsyncs, so nothing acked to clients was
        # lost: the group converges to one identical history.
        digests = {r.kv.stable_digest() for r in raft.values()}
        assert len(digests) == 1
        assert {r.last_applied for r in raft.values()} != {0}
        for raft_node in raft.values():
            assert raft_node.kv.exactly_once_violations() == 0
