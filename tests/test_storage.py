"""Unit tests for WAL, entry cache and the KV state machine."""

from collections import OrderedDict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.raft.log import RaftLog
from repro.raft.types import LogEntry
from repro.runtime.io_helper import IoHelperPool
from repro.sim.kernel import Kernel
from repro.sim.resources import DiskResource
from repro.storage.kvstore import KvStore
from repro.storage.wal import WriteAheadLog


def make_wal(bandwidth=1.0, latency=1.0):
    kernel = Kernel()
    disk = DiskResource(kernel, bandwidth_mbps=bandwidth, op_latency_ms=latency)
    return kernel, WriteAheadLog(IoHelperPool(disk, node="n0"))


class TestWal:
    def test_append_and_sync_durability(self):
        kernel, wal = make_wal()
        wal.append(1000)
        assert wal.buffered_bytes == 1000
        assert wal.durable_bytes == 0
        event = wal.sync()
        kernel.run_until_idle()
        assert event.ready()
        assert wal.durable_bytes == 1000
        assert wal.buffered_bytes == 0

    def test_group_commit_batches_bytes(self):
        kernel, wal = make_wal()
        for _ in range(10):
            wal.append(100)
        wal.sync()
        kernel.run_until_idle()
        assert wal.durable_bytes == 1000
        assert wal.syncs == 1
        assert wal.appended_entries == 10

    def test_append_and_sync_shortcut(self):
        kernel, wal = make_wal()
        wal.append_and_sync(500)
        kernel.run_until_idle()
        assert wal.durable_bytes == 500

    def test_sync_time_scales_with_bytes(self):
        kernel, wal = make_wal(bandwidth=1.0, latency=0.0)  # 1000 B/ms
        wal.append(10_000)
        event = wal.sync()
        kernel.run_until_idle()
        # 10000 bytes + fsync barrier bytes at 1000 B/ms.
        assert event.triggered_at > 10.0

    def test_read_goes_to_disk(self):
        kernel, wal = make_wal(bandwidth=1.0, latency=2.0)
        event = wal.read(3000)
        kernel.run_until_idle()
        assert event.triggered_at == pytest.approx(5.0)

    def test_empty_buffer_sync_completes_without_disk_trip(self):
        kernel, wal = make_wal()
        event = wal.sync()  # nothing buffered: no platter traffic
        assert event.ready()  # pre-completed, no virtual time consumed
        assert wal.noop_syncs == 1
        assert wal.syncs == 0
        assert kernel.now == 0.0

    def test_empty_sync_fires_on_durable_immediately(self):
        _, wal = make_wal()
        fired = []
        wal.sync(on_durable=lambda: fired.append(True))
        assert fired == [True]

    def test_negative_sizes_rejected(self):
        _, wal = make_wal()
        with pytest.raises(ValueError):
            wal.append(-1)
        with pytest.raises(ValueError):
            wal.read(-1)


class _LruByAppend:
    """The entry cache as an object — the ``put`` / ``get`` of the class the
    derived rule replaced, kept as the reference it must equal."""

    def __init__(self, max_entries):
        self.max_entries = max_entries
        self.entries = OrderedDict()
        self.hits = self.misses = 0

    def put(self, index, entry):
        self.entries[index] = entry
        self.entries.move_to_end(index)
        while len(self.entries) > self.max_entries:
            self.entries.popitem(last=False)

    def get(self, index):
        hit = index in self.entries
        self.hits += hit
        self.misses += not hit
        return hit


class _ModelledLog(RaftLog):
    """A RaftLog whose every append is also a put into the reference LRU."""

    def __init__(self, cache_entries):
        super().__init__(cache_entries=cache_entries)
        self.model = _LruByAppend(cache_entries)

    def append(self, entry):
        super().append(entry)
        self.model.put(entry.index, entry)


def _entry(term, index):
    return LogEntry(term, index, ("put", "k", "v"), 10 + index % 7)


_small = st.integers(min_value=0, max_value=12)
_log_steps = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.integers(min_value=1, max_value=5)),
        st.tuples(st.just("overwrite"), _small, _small, st.integers(min_value=1, max_value=4)),
        st.tuples(st.just("truncate"), _small),
        st.tuples(st.just("compact"), _small),
        st.tuples(st.just("reset"), st.integers(min_value=-8, max_value=4)),
        st.tuples(st.just("read"), st.integers(min_value=-2, max_value=14), _small),
    ),
    max_size=50,
)


class TestEntryCacheFromAppendOrder:
    """``RaftLog`` keeps no copy of its cached entries: hits are worked out
    from append order and the cuts since. It must answer as the LRU did."""

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            RaftLog(cache_entries=0)

    @given(cache_entries=st.integers(min_value=1, max_value=8), steps=_log_steps)
    @example(  # a cut made before a reset must not count against what follows it
        cache_entries=8,
        steps=[("append", 5)] * 4 + [("truncate", 6), ("reset", -4), ("append", 3), ("read", 1, 0)],
    )
    @settings(max_examples=400, deadline=None)
    def test_slice_cached_agrees_with_the_lru(self, cache_entries, steps):
        log, term = _ModelledLog(cache_entries), 1
        for step in steps:
            kind, base, last = step[0], log.base_index, log.last_index()
            if kind == "append":
                for offset in range(step[1]):
                    log.append(_entry(term, last + 1 + offset))
            elif kind == "overwrite":  # a new leader's entries: duplicates, then a conflict
                term += 1
                first = last + 1 - step[1] % (last - base + 1)
                dups = [_entry(log.term_at(i) or 0, i) for i in range(first - step[2], first)]
                new = [_entry(term, first + offset) for offset in range(step[3])]
                log.append_or_overwrite(dups + new)
            elif kind == "truncate":
                log.truncate_from(last + 1 - step[1] % (last - base + 1))
            elif kind == "compact":
                log.truncate_prefix(base + step[1] % (last - base + 1))
            elif kind == "reset":
                log.reset_to_snapshot(max(0, last + step[1]), term)
            else:
                first = base + step[1]
                entries, disk_bytes, misses = log.slice_cached(first, first + step[2])
                assert entries == log.slice(first, first + step[2])
                missed = [entry for entry in entries if not log.model.get(entry.index)]
                assert (disk_bytes, misses) == (sum(e.size_bytes for e in missed), len(missed))
            assert (log.cache_hits, log.cache_misses) == (log.model.hits, log.model.misses)


class TestKvStore:
    def test_put_get_delete_cycle(self):
        store = KvStore()
        store.apply(("put", "k", "v1"))
        assert store.apply(("get", "k")) == "v1"
        store.apply(("put", "k", "v2"))
        assert store.apply(("delete", "k")) == "v2"
        assert store.apply(("get", "k")) is None
        assert store.applied == 5

    def test_noop(self):
        store = KvStore()
        assert store.apply(("noop",)) is None

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            KvStore().apply(("frobnicate", "x"))

    def test_checksum_equal_for_same_state(self):
        a, b = KvStore(), KvStore()
        a.apply(("put", "x", 1))
        a.apply(("put", "y", 2))
        b.apply(("put", "y", 2))
        b.apply(("put", "x", 1))
        assert a.checksum() == b.checksum()

    def test_checksum_differs_for_different_state(self):
        a, b = KvStore(), KvStore()
        a.apply(("put", "x", 1))
        b.apply(("put", "x", 2))
        assert a.checksum() != b.checksum()
