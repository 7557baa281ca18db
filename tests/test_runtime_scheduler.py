"""Unit tests for coroutines, the scheduler and the runtime instance."""

import pytest

from repro.events.base import YIELD
from repro.events.basic import NeverEvent, ValueEvent
from repro.events.compound import QuorumEvent
from repro.runtime.coroutine import CoroutineState
from repro.runtime.runtime import Runtime
from repro.sim.kernel import Kernel
from repro.sim.resources import CpuResource, DiskResource


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
