"""Unit tests for coroutines, the scheduler and the runtime instance."""

import sys
import weakref

import pytest

from repro.cluster.cluster import Cluster
from repro.events.base import YIELD, EventError, WaitResult
from repro.events.basic import NeverEvent, ValueEvent
from repro.events.compound import QuorumEvent
from repro.runtime.coroutine import CoroutineState
from repro.runtime.runtime import Runtime
from repro.sim.kernel import Kernel
from repro.sim.resources import CpuResource, DiskResource
from repro.trace.tracepoints import Tracer


def make_runtime(kernel=None):
    kernel = kernel or Kernel()
    cpu = CpuResource(kernel, base_rate=1.0)
    disk = DiskResource(kernel, bandwidth_mbps=100.0, op_latency_ms=0.5)
    return Runtime(kernel, node="n0", cpu=cpu, disk=disk)


class TestBasicExecution:
    def test_coroutine_runs_to_completion(self):
        rt = make_runtime()
        log = []

        def task():
            log.append("start")
            yield rt.sleep(10.0)
            log.append(rt.now)
            return "done"

        coro = rt.spawn(task(), name="t")
        rt.kernel.run_until_idle()
        assert log == ["start", 10.0]
        assert coro.state == CoroutineState.FINISHED
        assert coro.result == "done"

    def test_spawn_requires_generator(self):
        rt = make_runtime()

        def not_a_gen():
            return 42

        with pytest.raises(Exception):
            rt.spawn(not_a_gen)  # passed the function, not a generator

    def test_multiple_coroutines_interleave(self):
        rt = make_runtime()
        log = []

        def task(name, delay):
            yield rt.sleep(delay)
            log.append((name, rt.now))

        rt.spawn(task("slow", 20.0))
        rt.spawn(task("fast", 5.0))
        rt.kernel.run_until_idle()
        assert log == [("fast", 5.0), ("slow", 20.0)]

    def test_yield_sentinel_reschedules_same_time(self):
        rt = make_runtime()
        log = []

        def task():
            log.append("a")
            yield YIELD
            log.append(("b", rt.now))

        rt.spawn(task())
        rt.kernel.run_until_idle()
        assert log == ["a", ("b", 0.0)]

    def test_wait_on_already_ready_event_resumes_immediately(self):
        rt = make_runtime()
        ev = ValueEvent()
        ev.set("early")
        got = []

        def task():
            result = yield ev.wait()
            got.append((result.ready, rt.now))

        rt.spawn(task())
        rt.kernel.run_until_idle()
        assert got == [(True, 0.0)]


class TestWaitsAndTimeouts:
    def test_wait_returns_result_with_waited_time(self):
        rt = make_runtime()
        ev = ValueEvent()
        rt.kernel.schedule(30.0, ev.set, "x")
        results = []

        def task():
            result = yield ev.wait()
            results.append(result)

        rt.spawn(task())
        rt.kernel.run_until_idle()
        (result,) = results
        assert result.ready
        assert not result.timed_out
        assert result.waited_ms == pytest.approx(30.0)

    def test_timeout_resumes_without_trigger(self):
        rt = make_runtime()
        ev = NeverEvent()
        results = []

        def task():
            result = yield ev.wait(timeout_ms=50.0)
            results.append((result.timed_out, ev.timed_out, rt.now))

        rt.spawn(task())
        rt.kernel.run_until_idle()
        assert results == [(True, True, 50.0)]

    def test_trigger_before_timeout_cancels_timer(self):
        rt = make_runtime()
        ev = ValueEvent()
        rt.kernel.schedule(10.0, ev.set, "x")
        results = []

        def task():
            result = yield ev.wait(timeout_ms=1000.0)
            results.append((result.timed_out, rt.now))

        rt.spawn(task())
        rt.kernel.run_until_idle()
        assert results == [(False, 10.0)]
        assert not ev.timed_out

    @pytest.mark.parametrize("trigger_queued_first", [True, False])
    def test_trigger_and_timeout_at_one_instant_resume_once(self, trigger_queued_first):
        rt = make_runtime()
        ev = ValueEvent()
        results = []

        def task():
            result = yield ev.wait(timeout_ms=10.0)
            results.append((result.timed_out, ev.timed_out, ev.ready(), rt.now))

        if trigger_queued_first:
            rt.kernel.schedule(10.0, ev.set, "x")
        rt.spawn(task())
        rt.kernel.run(until_ms=0.0)  # parked: the timeout timer is queued for t=10
        if not trigger_queued_first:
            rt.kernel.schedule(10.0, ev.set, "x")
        rt.kernel.run_until_idle()
        # Kernel (time, seq) order decides; the loser finds the wait closed.
        timed_out = not trigger_queued_first
        assert results == [(timed_out, timed_out, True, 10.0)]

    def test_waiters_resume_in_subscription_order_after_the_trigger_returns(self):
        rt = make_runtime()
        ev = ValueEvent()
        log = []

        def task(name):
            yield ev.wait()
            log.append(name)

        def fire():
            log.append("set")
            ev.set("x")
            log.append("set returned")

        rt.spawn(task("first"))
        rt.spawn(task("second"))
        rt.kernel.schedule(5.0, fire)
        rt.kernel.run_until_idle()
        assert log == ["set", "set returned", "first", "second"]

    def test_wait_on_ready_event_still_costs_one_kernel_hop(self):
        rt = make_runtime()
        ev = ValueEvent()
        ev.set("early")
        log = []

        def task():
            log.append("before")
            yield ev.wait()
            log.append("after")

        rt.spawn(task())
        rt.kernel.call_soon(log.append, "queued behind the first step")
        rt.kernel.run_until_idle()
        assert log == ["before", "queued behind the first step", "after"]
        assert rt.kernel.events_executed == 3  # first step, the append, the resume

    def test_waiter_subscribed_during_notification_is_not_lost(self):
        rt = make_runtime()
        ev = ValueEvent()
        log = []

        def late_task():
            result = yield ev.wait()
            log.append(("late task", result.ready))

        def parked():
            yield ev.wait()
            log.append("parked")

        def first_waiter(_event):
            ev.subscribe(lambda _e: log.append("late callback"))
            rt.spawn(late_task())

        ev.subscribe(first_waiter)
        rt.spawn(parked())
        rt.kernel.schedule(1.0, ev.set, "x")
        rt.kernel.run_until_idle()
        assert log == ["late callback", "parked", ("late task", True)]

    def test_coroutine_receives_a_wait_result(self):
        rt = make_runtime()
        ev = ValueEvent()
        rt.kernel.schedule(4.0, ev.set, "x")
        results = []

        def task():
            results.append((yield ev.wait(timeout_ms=100.0)))
            results.append((yield NeverEvent().wait(timeout_ms=6.0)))

        rt.spawn(task())
        rt.kernel.run_until_idle()
        fired, expired = results
        assert isinstance(fired, WaitResult) and isinstance(expired, WaitResult)
        assert (fired.event, fired.timed_out, fired.waited_ms) == (ev, False, 4.0)
        assert fired.ready
        assert (expired.timed_out, expired.waited_ms) == (True, 6.0)
        assert not expired.ready

    def test_quorum_wait_ignores_straggler(self):
        rt = make_runtime()
        quorum = QuorumEvent(quorum=2, n_total=3)
        fast1, fast2, slow = ValueEvent(), ValueEvent(), ValueEvent()
        for child in (fast1, fast2, slow):
            quorum.add(child)
        rt.kernel.schedule(5.0, fast1.set, 1)
        rt.kernel.schedule(8.0, fast2.set, 1)
        rt.kernel.schedule(10_000.0, slow.set, 1)  # the fail-slow child
        done_at = []

        def task():
            yield quorum.wait()
            done_at.append(rt.now)

        rt.spawn(task())
        rt.kernel.run_until_idle()
        assert done_at == [8.0]  # unaffected by the 10s straggler

    def test_cpu_compute_charges_virtual_time(self):
        rt = make_runtime()
        rt.cpu.set_quota(0.5)
        done_at = []

        def task():
            yield rt.compute(10.0)
            done_at.append(rt.now)

        rt.spawn(task())
        rt.kernel.run_until_idle()
        assert done_at == [pytest.approx(20.0)]

    def test_io_helper_fsync(self):
        rt = make_runtime()
        done = []

        def task():
            ev = rt.io.fsync(pending_bytes=100_000)
            yield ev.wait()
            done.append(rt.now)

        rt.spawn(task())
        rt.kernel.run_until_idle()
        assert done and done[0] > 0.0
        assert rt.io.completed == 1
        assert rt.io.inflight == 0


class TestBareEventIsAWait:
    """``yield event`` parks like ``yield event.wait()``, minus the descriptor."""

    @staticmethod
    def _run(make_yieldable):
        kernel = Kernel()
        tracer = Tracer(kernel)
        rt = Runtime(kernel, node="n0", tracer=tracer)
        event = ValueEvent(name="gate", source="n1")
        kernel.schedule(5.0, event.set, "open", 5.0)
        resumed = []

        def task():
            result = yield make_yieldable(event)
            resumed.append((kernel.now, result.timed_out, result.waited_ms, result.event is event))

        rt.spawn(task(), name="t")
        kernel.run_until_idle()
        return resumed, tracer.records, kernel.events_executed

    def test_bare_event_and_untimed_wait_give_the_same_record_and_resume_time(self):
        bare = self._run(lambda event: event)
        described = self._run(lambda event: event.wait())
        assert bare[0] == described[0] == [(5.0, False, 5.0, True)]
        (bare_record,), (described_record,) = bare[1], described[1]
        fields = type(bare_record).__slots__
        assert [getattr(bare_record, f) for f in fields] == [
            getattr(described_record, f) for f in fields
        ]
        assert bare[2] == described[2]  # same hops

    def test_timed_wait_still_times_out(self):
        resumed, records, _events = self._run(lambda event: event.wait(2.0))
        assert resumed == [(2.0, True, 2.0, True)]
        assert records[0].timed_out

    def test_yielding_a_non_waitable_still_raises(self):
        rt = make_runtime()

        def task():
            yield 42

        rt.spawn(task())
        with pytest.raises(EventError):
            rt.kernel.run_until_idle()

    def test_coroutine_is_slotted_and_weakly_referenceable(self):
        rt = make_runtime()

        def task():
            yield rt.compute(1.0)

        coro = rt.spawn(task())
        assert not hasattr(coro, "__dict__")
        ref = weakref.ref(coro)
        rt.kernel.run_until_idle()
        assert ref() is coro and coro.state == CoroutineState.FINISHED


class TestFailuresAndCrash:
    def test_task_exception_propagates_by_default(self):
        rt = make_runtime()

        def task():
            yield rt.sleep(1.0)
            raise ValueError("boom")

        rt.spawn(task())
        with pytest.raises(ValueError, match="boom"):
            rt.kernel.run_until_idle()

    def test_on_error_hook_captures_failure(self):
        rt = make_runtime()
        failures = []
        rt.scheduler.on_error = failures.append

        def task():
            yield rt.sleep(1.0)
            raise ValueError("boom")

        coro = rt.spawn(task())
        rt.kernel.run_until_idle()
        assert failures == [coro]
        assert coro.state == CoroutineState.FAILED
        assert isinstance(coro.exception, ValueError)

    def test_crash_kills_waiting_coroutines(self):
        rt = make_runtime()
        cleanup = []

        def task():
            try:
                yield NeverEvent().wait()
            finally:
                cleanup.append("closed")

        coro = rt.spawn(task())
        rt.kernel.run(until_ms=5.0)
        rt.crash()
        assert coro.state == CoroutineState.KILLED
        assert cleanup == ["closed"]
        assert rt.crashed

    def test_crashed_runtime_rejects_spawn(self):
        rt = make_runtime()
        rt.crash()

        def task():
            yield rt.sleep(1.0)

        with pytest.raises(Exception):
            rt.spawn(task())

    def test_killed_coroutine_not_resumed_by_late_trigger(self):
        rt = make_runtime()
        ev = ValueEvent()
        resumed = []

        def task():
            yield ev.wait()
            resumed.append(True)

        rt.spawn(task())
        rt.kernel.run(until_ms=1.0)
        rt.crash()
        ev.set("late")
        rt.kernel.run_until_idle()
        assert resumed == []

    @pytest.mark.xfail(
        strict=True,
        reason="pinned, not fixed: a wait parked by a coroutine that was then "
        "killed still completes (one WaitRecord, one no-op step); fixing it moves "
        "trace.wait_records / events_per_op on chaos_open and breaker_disk",
    )
    def test_killed_coroutine_does_not_finish_its_wait(self):
        kernel = Kernel()
        tracer = Tracer(kernel)
        rt = Runtime(kernel, node="n0", tracer=tracer)

        def task():
            yield rt.sleep(10.0)

        rt.spawn(task(), name="g")
        kernel.run(until_ms=5.0)
        rt.crash()
        executed = kernel.events_executed
        kernel.run(until_ms=20.0)
        assert tracer.records == []
        assert kernel.events_executed == executed + 1  # the timer alone

    def test_finished_coroutines_are_not_retained(self):
        rt = make_runtime()
        cleanup = []

        def short():
            yield rt.sleep(1.0)

        def waiter():
            try:
                yield NeverEvent().wait()
            finally:
                cleanup.append("closed")

        for _ in range(1_000):
            rt.spawn(short())
        parked = rt.spawn(waiter())
        rt.kernel.run_until_idle()
        assert list(rt.scheduler._live.values()) == [parked]
        rt.scheduler.stop()
        assert parked.state == CoroutineState.KILLED
        assert cleanup == ["closed"]
        assert rt.scheduler.live_count() == 0


class TestAccounting:
    def test_wait_statistics_accumulate(self):
        rt = make_runtime()

        def task():
            yield rt.sleep(10.0)
            yield rt.sleep(15.0)

        coro = rt.spawn(task())
        rt.kernel.run_until_idle()
        assert coro.wait_count == 2
        assert coro.total_wait_ms == pytest.approx(25.0)

    def test_live_count(self):
        rt = make_runtime()

        def forever():
            yield NeverEvent().wait()

        def quick():
            yield rt.sleep(1.0)

        rt.spawn(forever())
        rt.spawn(quick())
        rt.kernel.run(until_ms=10.0)
        assert rt.scheduler.live_count() == 1


class TestTracerAttachment:
    @staticmethod
    def _timeline(make_tracer):
        kernel = Kernel()
        tracer = make_tracer(kernel)
        rt = Runtime(kernel, node="n0", cpu=CpuResource(kernel), tracer=tracer)
        gate = ValueEvent()
        timeline = []

        def worker(name, cost):
            yield rt.compute(cost)
            yield gate.wait(timeout_ms=3.0)
            yield rt.sleep(1.0)
            timeline.append((name, rt.now))

        rt.spawn(worker("a", 2.0))
        rt.spawn(worker("b", 0.5))
        kernel.schedule(4.0, gate.set, "open")
        kernel.run_until_idle()
        return timeline, kernel.events_executed, tracer

    def test_absent_and_disabled_tracers_record_nothing_and_change_no_timing(self):
        traced = self._timeline(Tracer)
        assert len(traced[2].records) == 6
        untraced = self._timeline(lambda kernel: None)
        disabled = self._timeline(lambda kernel: Tracer(kernel, enabled=False))
        assert untraced[:2] == traced[:2] == disabled[:2]
        assert disabled[2].records == []


needs_cpython_311 = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="the call count is exact for CPython 3.11; other versions emit other c_call events",
)


def count_calls(run):
    """Python + C calls made while ``run()`` executes (``sys.setprofile``)."""
    calls = 0

    def count(_frame, event, _arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    sys.setprofile(count)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


@needs_cpython_311
def test_suspend_resume_pair_stays_within_its_call_budget():
    """Timing-free guard on the wait path: per-wait closures, a second
    tracer round trip or a separate result object each add calls.

    The ladder's switch shape with a tracer attached makes 27.05 Python +
    C calls per suspend/resume pair on CPython 3.11 (29.17 before the
    kernel's heap + FIFO queue, 42.2 before the one-object,
    one-tracer-call wait); the budget is that plus ~10%.
    """
    kernel = Kernel()
    tracer = Tracer(kernel)
    rt = Runtime(kernel, node="n0", tracer=tracer)
    coroutines, cycles = 50, 100

    def sleeper():
        for _ in range(cycles):
            yield rt.sleep(1.0)

    for index in range(coroutines):
        rt.spawn(sleeper(), name=f"sleeper-{index}")
    calls = count_calls(kernel.run_until_idle)
    pairs = coroutines * cycles
    assert len(tracer.records) == pairs
    assert calls / pairs <= 29.8


@needs_cpython_311
def test_rpc_round_trip_stays_within_its_call_budget():
    """Timing-free guard on send -> deliver -> dispatch -> parse -> handle
    -> reply: a per-message f-string, property, ``max()``, wait descriptor
    or a job object beside the CpuEvent each add calls.

    A sequential echo round trip (handler does one ``compute``) with the
    cluster tracer attached makes 201.3 Python + C calls on CPython 3.11
    (252.9 before the kernel's heap + FIFO queue, 315.0 before the message
    path went on its diet); the budget is that plus 5%. The hops and
    records are pinned beside it, so a "saving" that drops a kernel event
    or a wait record fails here too.
    """
    cluster = Cluster(seed=1)
    client, server = cluster.add_node("a"), cluster.add_node("b")

    def echo(payload, _src):
        yield server.runtime.compute(0.05)
        return payload

    server.endpoint.register("echo", echo)
    client.start()
    server.start()
    cluster.run(1.0)  # both dispatchers parked on their inboxes
    trips = 2_000

    def caller():
        for index in range(trips):
            rpc = client.endpoint.call("b", "echo", {"i": index})
            yield rpc.wait(50.0)
            assert rpc.ok and rpc.reply == {"i": index}

    kernel, tracer = cluster.kernel, cluster.tracer
    events_before, records_before = kernel.events_executed, len(tracer.records)
    coro = client.runtime.spawn(caller())
    calls = count_calls(kernel.run_until_idle)
    assert coro.state == CoroutineState.FINISHED
    # Per trip: request and reply deliveries, two parse computes and the
    # handler's (start of service is inline, completion is an event), and
    # one resume hop per wait — dispatcher x2, parse x2, handler, caller;
    # the extra event overall is the caller's own spawn step.
    assert kernel.events_executed - events_before == 12 * trips + 1
    assert len(tracer.records) - records_before == 6 * trips
    assert calls / trips <= 211.4


@needs_cpython_311
def test_compute_stays_within_its_call_budget():
    """One ``yield rt.compute(ms)`` on a contended CPU, no tracer: 24.06
    Python + C calls from the ``compute`` to the resume (32.06 before the
    kernel's heap + FIFO queue, 38.1 when the CpuEvent carried a
    ResourceJob and was yielded through a WaitDescriptor); the budget is
    that plus 5%.
    """
    kernel = Kernel()
    rt = Runtime(kernel, node="n0", cpu=CpuResource(kernel))
    coroutines, cycles = 50, 100

    def worker():
        for _ in range(cycles):
            yield rt.compute(0.01)

    for _ in range(coroutines):
        rt.spawn(worker())
    calls = count_calls(kernel.run_until_idle)
    computes = coroutines * cycles
    assert kernel.now == pytest.approx(computes * 0.01)
    assert calls / computes <= 25.3


@needs_cpython_311
def test_timer_and_cancelled_timeout_stay_within_their_call_budget():
    """A timer at a timestamp of its own, scheduled and fired, plus a
    timeout that is scheduled and cancelled: the shape of nearly every
    future call (a raft_read episode opens a new timestamp with each of
    its 88 942 schedules). 9.99 Python + C calls per pair on CPython 3.11
    (21.0 with a per-timestamp bucket index and a Python-``__init__``
    handle); the budget is that plus 5%. A per-call object with a Python
    constructor, a bucket or a hop through ``schedule_at`` each add calls.
    """
    kernel = Kernel()
    timers = 5_000
    fired = []

    def program():
        for index in range(timers):
            kernel.schedule(index + 1.0, fired.append, index)
            kernel.schedule(index + 1.5, fired.append, -1).cancel()
        kernel.run_until_idle()

    calls = count_calls(program)
    assert fired == list(range(timers))
    assert kernel.events_executed == timers and kernel.pending() == 0
    assert calls / timers <= 10.5
