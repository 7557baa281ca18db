"""What a finished wait leaves behind: nothing for the cyclic collector.

Every object on the wait / compute / quorum / timer path must die by
reference count the moment its wait is over. These tests switch the
collector off, run, and look: a *garbage budget* (``gc.collect()``'s
return value against the kernel's event count) over whole Raft runs, and
one test per lifetime. None reads a clock.

The hot-path classes are slotted without ``__weakref__`` (a slot per
event would be paid ~100 000 times per simulated second), so liveness is
read from ``gc.get_objects()``, which runs no collection; the coroutine
is an ordinary object and gets a real ``weakref``.
"""

import gc
import weakref

import pytest

from repro.bench.matrix import deploy_cell
from repro.cluster.cluster import Cluster
from repro.events.base import Event
from repro.events.basic import CpuEvent, DiskEvent, RpcEvent, TimerEvent, ValueEvent
from repro.events.compound import AndEvent, OrEvent, QuorumEvent
from repro.faults.chaos import Nemesis
from repro.net.rpc import QuorumCall
from repro.raft.config import RaftConfig
from repro.runtime.runtime import Runtime
from repro.runtime.scheduler import _PendingWait
from repro.sim.kernel import _COMPACT_MIN_SIZE, Kernel
from repro.sim.resources import CpuResource, DiskResource, ResourceJob


@pytest.fixture
def collector_off():
    """Start from a collected heap, keep the collector out of the test."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def live(*types) -> int:
    """Instances of ``types`` alive right now (no collection is run)."""
    return sum(1 for obj in gc.get_objects() if isinstance(obj, types))


def make_runtime():
    kernel = Kernel()
    return Runtime(kernel, node="n0", cpu=CpuResource(kernel, base_rate=1.0))


# ----------------------------------------------------------------------
# Garbage budgets over whole runs
# ----------------------------------------------------------------------
class TestGarbageBudget:
    """Unreachable-but-uncollected objects per kernel event.

    Before the cycles were broken a run left ~2.4 such objects *per
    event* (every compute, timed wait, quorum round and sleep ended as a
    cycle); now the steady state leaves none.
    """

    def test_raft_read_index_run_leaves_no_cycles(self, collector_off):
        cell = deploy_cell(
            7,
            RaftConfig(read_mode="read_index"),
            n_clients=8,
            record_count=1_000,
            value_size=100,
            update_fraction=0.05,
            request_timeout_ms=2_000.0,
        )
        kernel = cell.cluster.kernel
        events_before = kernel.events_executed
        gc.collect()
        cell.driver.start()
        cell.cluster.run(kernel.now + 300.0)
        events = kernel.events_executed - events_before
        assert events > 10_000
        assert len(cell.cluster.tracer.records) > 5_000
        assert gc.collect() < 0.01 * events  # measured: 0 of 24 922 (60 064 before)

    def test_chaos_style_run_stays_within_its_budget(self, collector_off):
        cell = deploy_cell(
            11,
            RaftConfig(
                heartbeat_interval_ms=50.0,
                election_timeout_min_ms=300.0,
                election_timeout_max_ms=600.0,
                client_commit_timeout_ms=1_000.0,
                read_mode="read_index",
            ),
            n_clients=6,
            record_count=32,
            value_size=16,
            update_fraction=0.6,
            request_timeout_ms=400.0,
            backoff_ms=20.0,  # clients sleep between retries
            max_attempts=40,
        )
        cluster, kernel = cell.cluster, cell.cluster.kernel
        start = kernel.now
        nemesis = Nemesis(cluster, cell.raft)
        nemesis.schedule_crash_restart("__leader__", start + 200.0, 400.0)
        nemesis.schedule_isolation(cell.group[2], start + 900.0, 300.0)
        events_before = kernel.events_executed
        gc.collect()
        cell.driver.start()
        cluster.run(start + 1_500.0)
        events = kernel.events_executed - events_before
        assert nemesis.crashes == 1 and nemesis.restarts == 1 and nemesis.partitions == 1
        assert events > 10_000
        # A crash kills coroutines mid-wait and a partition leaves RPCs
        # unanswered; what those strand is the residual, not the path.
        # Measured: 95 objects in 37 127 events — the crashed leader's old
        # process image (RaftNode, Runtime, endpoint, two killed coroutines),
        # once per crash, not per event. 88 212 before the cycles were broken.
        assert gc.collect() < 0.01 * events


# ----------------------------------------------------------------------
# One test per lifetime
# ----------------------------------------------------------------------
class TestLifetimes:
    def test_compute_leaves_no_event_and_no_job(self, collector_off):
        rt = make_runtime()
        seen = []

        def task():
            yield rt.compute(1.0)
            seen.append((live(CpuEvent), live(ResourceJob)))
            yield rt.compute(1.0)

        rt.spawn(task())
        rt.kernel.run_until_idle()
        # Between the computes only the resumed wait's result still names
        # the first event (the frame drops it at the next resume). There is
        # no ResourceJob at all: the CpuEvent is the job on the CPU's queue.
        assert seen == [(1, 0)]
        assert live(CpuEvent, ResourceJob) == 0
        assert rt.kernel.now == 2.0

    def test_timed_wait_resumed_by_the_trigger_leaves_only_a_dead_timer(self, collector_off):
        rt = make_runtime()
        kernel = rt.kernel
        results = []

        def task():
            event = ValueEvent(source="n1")
            kernel.schedule(5.0, event.set, "v", 5.0)
            result = yield event.wait(timeout_ms=50.0)
            results.append((result.timed_out, result.waited_ms))

        coro_ref = weakref.ref(rt.spawn(task()))
        kernel.run(10.0)
        assert results == [(False, 5.0)]
        assert coro_ref() is None
        assert live(_PendingWait, ValueEvent) == 0
        # The cancelled timeout is still queued (lazy deletion) until its
        # due time, and holds nothing.
        assert kernel.pending() == 0 and not kernel._ready
        (dead,) = kernel._heap
        assert dead.time == 50.0 and dead.cancelled and dead.fn is None and dead.args is None
        kernel.run(60.0)
        assert kernel._heap == []

    def test_timed_wait_that_times_out_is_gone_too(self, collector_off):
        rt = make_runtime()
        results = []

        def task():
            result = yield ValueEvent().wait(timeout_ms=50.0)
            results.append(result.timed_out)

        coro_ref = weakref.ref(rt.spawn(task()))
        rt.kernel.run_until_idle()
        assert results == [True]
        assert coro_ref() is None
        assert live(_PendingWait, ValueEvent) == 0

    def test_quorum_round_is_gone_once_the_straggler_replied(self, collector_off):
        cluster = Cluster(seed=1)
        nodes = [cluster.add_node(f"s{i + 1}") for i in range(4)]
        caller, servers = nodes[0], nodes[1:]
        for server, delay in zip(servers, (1.0, 2.0, 50.0)):
            def handler(payload, src, _rt=server.runtime, _delay=delay):
                yield _rt.sleep(_delay)
                return {"granted": True}

            server.endpoint.register("vote", handler)
        for node in nodes:
            node.start()
        seen = []

        def logic():
            call = QuorumCall(
                caller.endpoint, ["s2", "s3", "s4"], "vote", quorum=2,
                discard_on_quorum=False,
            )
            yield call.wait()
            seen.append((cluster.kernel.now < 50.0, len(call.replies())))
            yield caller.runtime.sleep(100.0)
            seen.append(len(call.replies()))  # the late reply still lands

        caller.runtime.spawn(logic())
        cluster.run(until_ms=500.0)
        assert seen == [(True, 2), 3]
        assert live(QuorumEvent, RpcEvent, QuorumCall) == 0

    def test_sleep_leaves_no_timer_event(self, collector_off):
        rt = make_runtime()
        seen = []

        def task():
            yield rt.sleep(1.0)
            seen.append(live(TimerEvent))
            yield rt.sleep(1.0)

        rt.spawn(task())
        rt.kernel.run_until_idle()
        assert seen == [1]
        assert live(TimerEvent) == 0


# ----------------------------------------------------------------------
# The semantics that must survive
# ----------------------------------------------------------------------
class TestScheduledCallCancel:
    def test_cancel_after_execution_and_cancel_twice_leave_the_live_count_alone(self):
        kernel = Kernel()
        ran = []
        first = kernel.schedule(1.0, ran.append, "first")
        second = kernel.schedule(2.0, ran.append, "second")
        kernel.run(1.5)
        assert kernel.pending() == 1
        first.cancel()  # already ran
        assert kernel.pending() == 1 and not first.cancelled
        second.cancel()
        second.cancel()
        assert kernel.pending() == 0
        kernel.run_until_idle()
        assert ran == ["first"]

    def test_cancelled_call_never_runs_and_compaction_still_drops_it(self):
        kernel = Kernel()
        ran = []
        calls = [kernel.schedule(10.0 + i, ran.append, i) for i in range(2 * _COMPACT_MIN_SIZE)]
        keep = calls[::4]
        for call in calls:
            if call not in keep:
                call.cancel()
                assert call.fn is None and call.args is None
        # Cancelled entries outnumbered live ones on the way: compacted.
        assert kernel.pending() == len(keep) <= len(kernel._heap) < _COMPACT_MIN_SIZE
        kernel.run_until_idle()
        assert ran == [call.args[0] for call in keep]


class TestTimerEventCancel:
    def test_cancel_before_firing_stops_the_timer(self, collector_off):
        kernel = Kernel()
        timer = TimerEvent(kernel, 5.0)
        timer.cancel()
        timer.cancel()
        assert kernel.pending() == 0
        kernel.run_until_idle()
        assert not timer.ready()
        del timer
        assert live(TimerEvent) == 0

    def test_cancel_after_firing_is_a_no_op(self):
        kernel = Kernel()
        timer = TimerEvent(kernel, 5.0)
        other = kernel.schedule(9.0, lambda: None)
        kernel.run(6.0)
        assert timer.ready() and timer.triggered_at == 5.0
        timer.cancel()
        assert timer.ready() and kernel.pending() == 1 and not other.cancelled


class _CountingCompound(OrEvent):
    """An OrEvent that counts child notifications and can meddle."""

    __slots__ = ("notified", "evict")

    def __init__(self, *children):
        self.notified = 0
        self.evict = None
        super().__init__(*children)

    def child_triggered(self, child):
        self.notified += 1
        if self.evict is not None:
            child.remove_parent(self.evict)
        super().child_triggered(child)


class TestParentsAndWaiters:
    def test_child_shared_by_two_compounds_notifies_each_exactly_once(self):
        child = Event()
        first, second = _CountingCompound(child), _CountingCompound(child)
        child.trigger(1.0)
        child.trigger(2.0)
        assert (first.notified, second.notified) == (1, 1)
        assert first.ready() and second.ready()

    def test_a_parent_evicting_another_mid_notification_does_not_silence_it(self):
        child = Event()
        first, second = _CountingCompound(child), _CountingCompound(child)
        first.evict = second
        child.trigger(1.0)
        assert (first.notified, second.notified) == (1, 1)

    def test_unsubscribe_and_remove_parent_without_a_subscription_are_no_ops(self):
        fresh, parent = Event(), AndEvent()
        fresh.unsubscribe(print)
        fresh.remove_parent(parent)
        fired = Event()
        fired.trigger(1.0)
        fired.unsubscribe(print)
        fired.remove_parent(parent)
        got = []
        waited = Event()
        waited.subscribe(got.append)
        waited.unsubscribe(print)  # some other callback: still a no-op
        waited.trigger(1.0)
        assert got == [waited]

    def test_triggered_child_no_longer_points_at_its_compound(self, collector_off):
        children = [Event(source=f"s{i}") for i in range(3)]
        quorum = QuorumEvent(2)
        for child in children:
            quorum.add(child)
        for child in children:
            child.trigger(1.0)
        assert quorum.ready() and quorum.n_ok == 3
        del quorum
        assert live(QuorumEvent) == 0


class TestResourceJobCancel:
    def test_cancelled_job_never_fires(self, collector_off):
        kernel = Kernel()
        cpu = CpuResource(kernel, base_rate=1.0)
        fired = []
        in_service = cpu.submit(5.0, lambda: fired.append("a"))
        queued = cpu.submit(5.0, lambda: fired.append("b"))
        cpu.submit(5.0, lambda: fired.append("c"))
        in_service.cancel()
        queued.cancel()
        assert in_service.on_done is None and queued.on_done is None
        kernel.run_until_idle()
        assert fired == ["c"]
        assert kernel.now == 10.0  # the cancelled in-service job still occupied the CPU

    def test_reconfigure_mid_service_completes_the_job_exactly_once(self):
        kernel = Kernel()
        cpu = CpuResource(kernel, base_rate=1.0)
        done_at = []
        job = cpu.submit(10.0, lambda: done_at.append(kernel.now))
        kernel.schedule(5.0, cpu.set_quota, 0.5)
        kernel.schedule(7.0, cpu.set_quota, 1.0)
        kernel.run_until_idle()
        assert done_at == [pytest.approx(11.0)]
        assert job.done and job.on_done is None

    def test_cancelled_disk_event_never_triggers_and_is_not_kept(self, collector_off):
        kernel = Kernel()
        disk = DiskResource(kernel, 100.0, op_latency_ms=0.5)
        event = DiskEvent(disk, 4096, op="fsync", source="n0")
        event.cancel()
        kernel.run_until_idle()
        assert not event.ready()
        del event
        assert live(DiskEvent, ResourceJob) == 0


class TestSharedEdges:
    def test_events_with_one_source_share_one_immutable_edge_set(self):
        first, second = ValueEvent(source="s2"), RpcEvent("append", to_node="s2")
        edges = first.wait_edges()
        assert edges == (("s2", 1, 1),)
        assert second.wait_edges() is edges
        assert Event(source="s3").wait_edges() is not edges
        assert Event().wait_edges() is Event().wait_edges() == ()
        with pytest.raises(TypeError):
            edges[0] = ("s9", 1, 1)
        with pytest.raises(AttributeError):
            edges.append(("s9", 1, 1))

    def test_compound_edges_are_tuples_too(self):
        a, b = Event(source="s1"), Event(source="s2")
        quorum = QuorumEvent(1)
        quorum.add(a).add(b)
        for compound in (AndEvent(a, b), OrEvent(a, b), quorum):
            assert isinstance(compound.wait_edges(), tuple)
