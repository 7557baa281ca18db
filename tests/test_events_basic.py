"""Unit tests for basic events and the event protocol."""

import pytest

from repro.events.base import Event, EventError, as_wait
from repro.events.basic import (
    CpuEvent,
    DiskEvent,
    NeverEvent,
    RpcEvent,
    SharedIntEvent,
    TimerEvent,
    ValueEvent,
)
from repro.sim.kernel import Kernel
from repro.sim.resources import CpuResource, DiskResource


class TestEventBase:
    def test_trigger_is_idempotent_and_sticky(self):
        ev = Event("e")
        seen = []
        ev.subscribe(seen.append)
        ev.trigger(now=1.0)
        ev.trigger(now=2.0)
        assert ev.ready()
        assert ev.triggered_at == 1.0
        assert len(seen) == 1

    def test_subscribe_after_trigger_fires_immediately(self):
        ev = Event()
        ev.trigger()
        seen = []
        ev.subscribe(seen.append)
        assert seen == [ev]

    def test_unsubscribe_prevents_notification(self):
        ev = Event()
        seen = []
        ev.subscribe(seen.append)
        ev.unsubscribe(seen.append)
        ev.trigger()
        assert seen == []

    def test_wait_rejects_negative_timeout(self):
        with pytest.raises(EventError):
            Event().wait(timeout_ms=-1.0)

    def test_as_wait_normalizes_events(self):
        ev = Event()
        descriptor = as_wait(ev)
        assert descriptor.event is ev
        assert descriptor.timeout_ms is None

    def test_as_wait_rejects_garbage(self):
        with pytest.raises(EventError):
            as_wait(42)

    def test_basic_event_rejects_children(self):
        with pytest.raises(EventError):
            Event().child_triggered(Event())

    def test_wait_edges_for_sourced_event(self):
        ev = Event(source="s2")
        assert ev.wait_edges() == (("s2", 1, 1),)

    def test_wait_edges_empty_without_source(self):
        assert Event().wait_edges() == ()


class TestTimerEvent:
    def test_fires_after_delay(self):
        kernel = Kernel()
        timer = TimerEvent(kernel, 25.0)
        kernel.run_until_idle()
        assert timer.ready()
        assert timer.triggered_at == 25.0

    def test_cancel_prevents_fire(self):
        kernel = Kernel()
        timer = TimerEvent(kernel, 25.0)
        timer.cancel()
        kernel.run_until_idle()
        assert not timer.ready()

    def test_negative_delay_rejected(self):
        with pytest.raises(EventError):
            TimerEvent(Kernel(), -5.0)


class TestValueEvent:
    def test_set_carries_value(self):
        ev = ValueEvent()
        ev.set({"ok": True}, now=3.0)
        assert ev.ready()
        assert ev.value == {"ok": True}
        assert ev.triggered_at == 3.0

    def test_double_set_rejected(self):
        ev = ValueEvent()
        ev.set(1)
        with pytest.raises(EventError):
            ev.set(2)


class TestSharedIntEvent:
    def test_triggers_at_target(self):
        ev = SharedIntEvent(target=3)
        ev.add()
        ev.add()
        assert not ev.ready()
        ev.add()
        assert ev.ready()

    def test_set_jumps_to_value(self):
        ev = SharedIntEvent(target=5)
        ev.set(7)
        assert ev.ready()

    def test_custom_predicate(self):
        ev = SharedIntEvent(predicate=lambda v: v <= -2)
        ev.add(-1)
        assert not ev.ready()
        ev.add(-1)
        assert ev.ready()

    def test_zero_target_triggers_immediately(self):
        assert SharedIntEvent(target=0).ready()

    def test_exactly_one_condition_required(self):
        with pytest.raises(EventError):
            SharedIntEvent()
        with pytest.raises(EventError):
            SharedIntEvent(target=1, predicate=lambda v: True)


class TestRpcEvent:
    def test_complete_carries_reply(self):
        ev = RpcEvent("AppendEntries", to_node="s2")
        ev.issued_at = 10.0
        ev.complete("reply", now=15.0)
        assert ev.ok
        assert ev.reply == "reply"
        assert ev.latency_ms() == pytest.approx(5.0)
        assert ev.source == "s2"

    def test_fail_carries_error(self):
        ev = RpcEvent("Vote", to_node="s3")
        ev.fail("connection reset")
        assert ev.ready()
        assert not ev.ok
        assert ev.error == "connection reset"

    def test_late_duplicate_reply_ignored(self):
        ev = RpcEvent("m", to_node="s2")
        ev.complete("first")
        ev.complete("second")
        ev.fail("late error")
        assert ev.reply == "first"
        assert ev.error is None


class TestDiskAndCpuEvents:
    def test_disk_event_completes_via_resource(self):
        kernel = Kernel()
        disk = DiskResource(kernel, bandwidth_mbps=1.0, op_latency_ms=1.0)
        ev = DiskEvent(disk, 1000, op="write", source="n0")
        kernel.run_until_idle()
        assert ev.ready()
        assert ev.triggered_at == pytest.approx(2.0)

    def test_disk_event_cancel(self):
        kernel = Kernel()
        disk = DiskResource(kernel, bandwidth_mbps=1.0)
        first = DiskEvent(disk, 1000)
        second = DiskEvent(disk, 1000)
        second.cancel()
        kernel.run_until_idle()
        assert first.ready()
        assert not second.ready()

    def test_negative_io_size_rejected(self):
        with pytest.raises(EventError):
            DiskEvent(DiskResource(Kernel()), -1)

    def test_cpu_event_waits_through_queue(self):
        kernel = Kernel()
        cpu = CpuResource(kernel, base_rate=1.0)
        first = CpuEvent(cpu, 5.0)
        second = CpuEvent(cpu, 5.0)
        kernel.run(until_ms=6.0)
        assert first.ready()
        assert not second.ready()
        kernel.run_until_idle()
        assert second.triggered_at == pytest.approx(10.0)

    def test_negative_cpu_cost_rejected(self):
        with pytest.raises(EventError):
            CpuEvent(CpuResource(Kernel()), -1.0)

    # The event is the job: it sits on the resource's queue itself, and
    # cancelling it is what cancelling its ResourceJob used to be.
    def test_cpu_event_cancelled_while_queued_is_skipped_and_never_triggers(self):
        kernel = Kernel()
        cpu = CpuResource(kernel, base_rate=1.0)
        first = CpuEvent(cpu, 5.0)
        skipped = CpuEvent(cpu, 5.0)
        last = CpuEvent(cpu, 5.0)
        assert cpu.queue_depth() == 3
        skipped.cancel()
        assert cpu.queue_depth() == 2
        kernel.run_until_idle()
        assert first.triggered_at == 5.0
        assert not skipped.ready() and skipped.started_at is None and not skipped.done
        assert last.triggered_at == 10.0  # no CPU time went to the skipped one

    def test_cpu_event_cancelled_in_service_holds_the_cpu_until_its_completion_time(self):
        kernel = Kernel()
        cpu = CpuResource(kernel, base_rate=1.0)
        abandoned = CpuEvent(cpu, 5.0)
        following = CpuEvent(cpu, 5.0)
        kernel.run(until_ms=2.0)
        abandoned.cancel()
        assert cpu.queue_depth() == 1  # in service still, but nobody waits for it
        kernel.run(until_ms=5.0)
        assert abandoned.done and not abandoned.ready()
        assert following.started_at == 5.0
        kernel.run_until_idle()
        assert not abandoned.ready()
        assert following.triggered_at == 10.0

    def test_reconfigure_mid_service_completes_an_event_job_exactly_once(self):
        kernel = Kernel()
        cpu = CpuResource(kernel, base_rate=1.0)
        event = CpuEvent(cpu, 10.0)
        fired_at = []
        event.subscribe(lambda ev: fired_at.append(kernel.now))
        kernel.schedule(5.0, cpu.set_quota, 0.5)
        kernel.schedule(7.0, cpu.set_quota, 1.0)
        kernel.run_until_idle()
        assert fired_at == [pytest.approx(11.0)]
        assert event.done and event.remaining == 0.0
        assert kernel.pending() == 0 and cpu.queue_depth() == 0


def test_never_event_stays_pending():
    kernel = Kernel()
    ev = NeverEvent()
    kernel.run(until_ms=1000.0)
    assert not ev.ready()
