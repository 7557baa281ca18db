"""Unit tests for the DES kernel: ordering, cancellation, time semantics."""

import pytest

from repro.sim.kernel import Kernel, SimulationError


def test_time_starts_at_zero():
    assert Kernel().now == 0.0


def test_schedule_and_run_advances_clock():
    kernel = Kernel()
    fired = []
    kernel.schedule(10.0, lambda: fired.append(kernel.now))
    kernel.run(until_ms=100.0)
    assert fired == [10.0]
    assert kernel.now == 100.0


def test_callbacks_fire_in_time_order():
    kernel = Kernel()
    order = []
    kernel.schedule(30.0, order.append, "c")
    kernel.schedule(10.0, order.append, "a")
    kernel.schedule(20.0, order.append, "b")
    kernel.run_until_idle()
    assert order == ["a", "b", "c"]


def test_ties_broken_by_insertion_order():
    kernel = Kernel()
    order = []
    for tag in ("first", "second", "third"):
        kernel.schedule(5.0, order.append, tag)
    kernel.run_until_idle()
    assert order == ["first", "second", "third"]


def test_cancelled_callback_does_not_fire():
    kernel = Kernel()
    fired = []
    call = kernel.schedule(5.0, fired.append, "x")
    call.cancel()
    kernel.run_until_idle()
    assert fired == []


def test_cancel_is_idempotent():
    kernel = Kernel()
    call = kernel.schedule(5.0, lambda: None)
    call.cancel()
    call.cancel()
    kernel.run_until_idle()


def test_negative_delay_rejected():
    with pytest.raises(SimulationError):
        Kernel().schedule(-1.0, lambda: None)


def test_schedule_in_past_rejected():
    kernel = Kernel()
    kernel.schedule(10.0, lambda: None)
    kernel.run(until_ms=20.0)
    with pytest.raises(SimulationError):
        kernel.schedule_at(5.0, lambda: None)


def test_call_soon_runs_at_current_time():
    kernel = Kernel()
    seen = []
    kernel.schedule(7.0, lambda: kernel.call_soon(seen.append, kernel.now))
    kernel.run_until_idle()
    assert seen == [7.0]


def test_nested_scheduling_from_callback():
    kernel = Kernel()
    times = []

    def first():
        times.append(kernel.now)
        kernel.schedule(5.0, second)

    def second():
        times.append(kernel.now)

    kernel.schedule(1.0, first)
    kernel.run_until_idle()
    assert times == [1.0, 6.0]


def test_run_stops_at_boundary_leaving_future_events():
    kernel = Kernel()
    fired = []
    kernel.schedule(10.0, fired.append, "early")
    kernel.schedule(50.0, fired.append, "late")
    kernel.run(until_ms=20.0)
    assert fired == ["early"]
    assert kernel.now == 20.0
    kernel.run(until_ms=60.0)
    assert fired == ["early", "late"]


def test_run_backwards_rejected():
    kernel = Kernel()
    kernel.run(until_ms=10.0)
    with pytest.raises(SimulationError):
        kernel.run(until_ms=5.0)


def test_stop_interrupts_run():
    kernel = Kernel()
    fired = []
    kernel.schedule(1.0, lambda: (fired.append("a"), kernel.stop()))
    kernel.schedule(2.0, fired.append, "b")
    kernel.run(until_ms=100.0)
    assert fired == ["a"]
    assert kernel.now == 1.0  # clock not forced forward after stop
    kernel.run(until_ms=100.0)
    assert "b" in fired


def test_pending_excludes_cancelled():
    kernel = Kernel()
    kernel.schedule(1.0, lambda: None)
    call = kernel.schedule(2.0, lambda: None)
    call.cancel()
    assert kernel.pending() == 1


def test_next_event_time_skips_cancelled():
    kernel = Kernel()
    call = kernel.schedule(1.0, lambda: None)
    kernel.schedule(3.0, lambda: None)
    call.cancel()
    assert kernel.next_event_time() == 3.0


def test_next_event_time_none_when_idle():
    assert Kernel().next_event_time() is None


def test_cancelled_head_beyond_safety_bound_is_garbage_not_work():
    """Only *live* events count toward the run_until_idle safety bound.

    Regression guard for the old duplicated lazy-pop logic in run() /
    run_until_idle(): a cancelled far-future timer (an expired wait
    timeout) must not trip the bound or advance the clock.
    """
    kernel = Kernel()
    fired = []
    kernel.schedule(1.0, fired.append, "near")
    far = kernel.schedule(5_000_000.0, fired.append, "far")
    far.cancel()
    kernel.run_until_idle(max_time_ms=10_000.0)
    assert fired == ["near"]
    assert kernel.now == 1.0  # the cancelled far event never advanced time


def test_callback_cancels_same_timestamp_event_behind_it():
    """A batch event can cancel a same-timestamp event queued behind it."""
    kernel = Kernel()
    fired = []
    victim = kernel.schedule(5.0, fired.append, "victim")
    # victim is cancelled before the run; straggler is cancelled from
    # *inside* the 5.0 batch by an event ahead of it (the lazy-pop path).
    kernel.schedule_at(5.0, lambda: straggler.cancel())
    straggler = kernel.schedule_at(5.0, fired.append, "straggler")
    victim.cancel()
    kernel.schedule_at(5.0, fired.append, "kept")
    kernel.run_until_idle()
    assert fired == ["kept"]


def test_run_is_not_reentrant():
    """Calling run()/run_until_idle() from a callback is kernel misuse.

    The old loop silently allowed it and corrupted the _running flag and
    the outer run's until_ms boundary; now it raises.
    """
    kernel = Kernel()
    errors = []

    def naughty():
        try:
            kernel.run_until_idle()
        except SimulationError as exc:
            errors.append(str(exc))

    kernel.schedule(1.0, naughty)
    kernel.run(until_ms=10.0)
    assert len(errors) == 1 and "not reentrant" in errors[0]


def test_stop_mid_batch_preserves_same_time_remainder():
    """stop() between two same-timestamp events leaves the rest queued."""
    kernel = Kernel()
    fired = []
    kernel.schedule(5.0, lambda: (fired.append("a"), kernel.stop()))
    kernel.schedule(5.0, fired.append, "b")
    kernel.schedule(5.0, fired.append, "c")
    kernel.run(until_ms=100.0)
    assert fired == ["a"]
    assert kernel.pending() == 2
    kernel.run(until_ms=100.0)
    assert fired == ["a", "b", "c"]


def test_compaction_preserves_order_and_counts():
    """Cancelling most of a large queue compacts it without reordering."""
    kernel = Kernel()
    fired = []
    calls = [
        kernel.schedule(float(i % 13), fired.append, i) for i in range(500)
    ]
    for i, call in enumerate(calls):
        if i % 10 != 0:
            call.cancel()
    survivors = [i for i in range(500) if i % 10 == 0]
    assert kernel.pending() == len(survivors)
    kernel.run_until_idle()
    expected = sorted(survivors, key=lambda i: (i % 13, i))
    assert fired == expected


def test_cancel_during_run_defers_compaction_safely():
    """Mass-cancelling from inside a callback must not corrupt the queue."""
    kernel = Kernel()
    fired = []
    victims = [kernel.schedule(50.0, fired.append, f"v{i}") for i in range(200)]
    kernel.schedule(10.0, lambda: [v.cancel() for v in victims])
    kernel.schedule(60.0, fired.append, "end")
    kernel.run_until_idle()
    assert fired == ["end"]
    assert kernel.pending() == 0


def test_events_executed_counts_only_live_events():
    kernel = Kernel()
    kernel.schedule(1.0, lambda: None)
    dead = kernel.schedule(2.0, lambda: None)
    dead.cancel()
    kernel.schedule(3.0, lambda: None)
    kernel.run_until_idle()
    assert kernel.events_executed == 2


def test_heap_holds_exactly_the_pending_future_calls():
    """Timing-free guard on the queue's shape: one heap entry per pending
    future call, and none for same-instant work.

    Nearly every future call opens a timestamp of its own (a raft_read
    episode: 88 942 schedules, every one a new due-time), so the heap is
    keyed by call, not by timestamp; ``call_soon``, ``schedule(0)`` and
    ``schedule_at(now)`` join the FIFO of the current instant instead.
    """
    kernel = Kernel()
    for i in range(20_000):
        kernel.schedule(float(i % 97 + 1), lambda: None)
    cancelled = kernel.schedule(500.0, lambda: None)
    cancelled.cancel()
    kernel.call_soon(lambda: None)
    kernel.schedule(0.0, lambda: None)
    kernel.schedule_at(kernel.now, lambda: None)
    assert len(kernel._heap) == 20_001 and len(kernel._ready) == 3
    assert all(call.time > kernel.now for call in kernel._heap)  # the cancelled one is lazy
    assert kernel.pending() == 20_003
    kernel.run_until_idle()
    assert kernel.events_executed == 20_003
    assert kernel._heap == [] and not kernel._ready and kernel.pending() == 0


def test_call_soon_cascade_adds_no_heap_entries():
    """Same-time work joins the FIFO of the current instant, not the heap."""
    kernel = Kernel()
    added = []

    def burst():
        before = len(kernel._heap)
        for _ in range(1_000):
            kernel.call_soon(lambda: None)
            kernel.schedule(0.0, lambda: None)
        added.append(len(kernel._heap) - before)

    kernel.schedule(5.0, burst)
    kernel.schedule(9.0, lambda: None)
    kernel.run(until_ms=5.0)
    assert added == [0]
    assert kernel.events_executed == 2_001
    assert len(kernel._heap) == kernel.pending() == 1


def test_cancel_after_execution_is_a_noop():
    """Cancelling an already-executed call must not corrupt live counts."""
    kernel = Kernel()
    call = kernel.schedule(1.0, lambda: None)
    kernel.schedule(2.0, lambda: None)
    kernel.run(until_ms=1.5)
    call.cancel()  # already ran
    call.cancel()
    assert kernel.pending() == 1
    kernel.run_until_idle()  # would exit early if _live went negative
    assert kernel.events_executed == 2


def test_callback_cancelling_its_own_handle_is_a_noop():
    kernel = Kernel()
    holder = {}
    holder["call"] = kernel.schedule(1.0, lambda: holder["call"].cancel())
    kernel.schedule(2.0, lambda: None)
    kernel.run_until_idle()
    assert kernel.pending() == 0
    assert kernel.events_executed == 2


def test_run_until_idle_safety_bound():
    kernel = Kernel()

    def reschedule():
        kernel.schedule(1000.0, reschedule)

    kernel.schedule(0.0, reschedule)
    with pytest.raises(SimulationError):
        kernel.run_until_idle(max_time_ms=10_000.0)
