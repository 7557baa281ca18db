"""Crash–recovery: durable state, WAL replay, session dedup, injector fixes."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import Cluster
from repro.faults.catalog import TABLE1
from repro.faults.injector import FaultInjector
from repro.raft.config import RaftConfig
from repro.raft.service import (
    deploy_depfast_raft,
    find_leader,
    restart_raft_node,
    wait_for_leader,
)
from repro.storage.durable import DurableRaftState
from repro.storage.kvstore import KvStore
from repro.workload.driver import KvServiceClient


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
        self.snapshot_index = 0
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

    def save_snapshot(self, last_index, _last_term, _state):
        if last_index < self.snapshot_index:
            return
        self.snapshot_index = last_index
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


class _CountingDict(dict):
    """Counts whole-store iterations (lookups and deletes by key are free)."""

    full_iterations = 0

    def _counted(name):
        def method(self, *args):
            self.full_iterations += 1
            return getattr(dict, name)(self, *args)

        return method

    __iter__, keys, values, items = map(_counted, ("__iter__", "keys", "values", "items"))


class TestDurableRaftState:
    def test_staged_entries_become_durable_only_after_sync(self):
        durable = DurableRaftState("s1")
        durable.stage_entries([_Entry(1, 1), _Entry(2, 1)])
        assert durable.durable_count() == 0
        covered = durable.begin_sync()
        durable.stage_entries([_Entry(3, 1)])  # staged after the fsync cut
        durable.commit_sync(covered)
        assert durable.durable_count() == 2
        assert [e.index for e in durable.recovered_entries()] == [1, 2]

    def test_unsynced_suffix_is_lost_on_recovery(self):
        durable = DurableRaftState("s1")
        durable.stage_entries([_Entry(1, 1)])
        covered = durable.begin_sync()
        durable.stage_entries([_Entry(2, 1), _Entry(3, 1)])
        durable.commit_sync(covered)  # only entry 1 made it to disk
        recovered = durable.recovered_entries()
        assert [e.index for e in recovered] == [1]
        assert durable.lost_on_recovery == 2

    def test_conflicting_term_invalidates_suffix(self):
        durable = DurableRaftState("s1")
        durable.stage_entries([_Entry(1, 1), _Entry(2, 1), _Entry(3, 1)])
        durable.commit_sync(durable.begin_sync())
        # A new leader overwrites index 2 with a higher-term entry.
        durable.stage_entries([_Entry(2, 2)])
        durable.commit_sync(durable.begin_sync())
        assert [(e.index, e.term) for e in durable.recovered_entries()] == [
            (1, 1),
            (2, 2),
        ]

    def test_restaged_entry_not_marked_durable_by_stale_sync(self):
        """A sync that began before a conflicting restage must not mark
        the restaged entry durable when it lands (overlapping
        begin_sync/commit_sync guard)."""
        durable = DurableRaftState("s1")
        durable.stage_entries([_Entry(1, 1), _Entry(2, 1)])
        covered = durable.begin_sync()
        # A new leader overwrites index 2 while that fsync is in flight.
        durable.stage_entries([_Entry(2, 2)])
        durable.commit_sync(covered)  # index 2's seq is stale: skip it
        assert durable.durable_count() == 1
        # The next sync cut covers the restaged entry for real.
        durable.commit_sync(durable.begin_sync())
        assert [(e.index, e.term) for e in durable.recovered_entries()] == [
            (1, 1),
            (2, 2),
        ]

    def test_snapshot_drops_covered_entries(self):
        durable = DurableRaftState("s1")
        durable.stage_entries([_Entry(i, 1) for i in range(1, 6)])
        durable.commit_sync(durable.begin_sync())
        durable.save_snapshot(3, 1, {"data": {}, "applied": 3})
        assert [e.index for e in durable.recovered_entries()] == [4, 5]
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
        assert [e.index for e in durable.recovered_entries()] == [1, 2, 3]
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
        recovery leaves the watermark and the per-entry oracle agreeing."""
        durable, model = DurableRaftState("s1"), _PerEntryModel()
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
                both("stage_entries", [_Entry(first + i, term) for i in range(step[2])])
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
                both("clear_log")
                both("save_snapshot", last + 1 + step[1], term, {})
            else:
                ours, theirs = both("recovered_entries")
                assert [(e.index, e.term) for e in ours] == [
                    (e.index, e.term) for e in theirs
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
        durable._entries = counting = _CountingDict(durable._entries)
        for cycle in range(50):
            first = 5_001 + 4 * cycle
            durable.stage_entries([_Entry(first + i, 1) for i in range(4)])
            durable.commit_sync(durable.begin_sync())
        durable.stage_entries([_Entry(5_100, 2)])  # conflict: truncates 5_100..5_200
        durable.save_snapshot(2_500, 1, {})
        assert counting.full_iterations == 0
        assert durable.durable_count() == 5_099 - 2_500
        assert counting.full_iterations == 1  # the counter does see a walk


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
