"""Property-based tests for the simulation substrate."""

import heapq
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.buffers import SendBuffer
from repro.net.message import Message
from repro.sim.kernel import Kernel
from repro.sim.metrics import LatencyRecorder
from repro.sim.resources import CpuResource, MemoryResource
from repro.workload.distributions import ZipfianKeys


# ---------------------------------------------------------------------------
# Kernel ordering
# ---------------------------------------------------------------------------
@given(
    delays=st.lists(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=100
    ),
    cancel_mask=st.lists(st.booleans(), min_size=1, max_size=100),
)
def test_kernel_fires_in_nondecreasing_time_order(delays, cancel_mask):
    kernel = Kernel()
    fired = []
    calls = []
    for i, delay in enumerate(delays):
        calls.append(kernel.schedule(delay, lambda d=delay: fired.append(d)))
    for call, cancel in zip(calls, cancel_mask):
        if cancel:
            call.cancel()
    kernel.run_until_idle(max_time_ms=2e6)
    assert fired == sorted(fired)
    expected = sorted(
        delay
        for delay, (call, cancel) in zip(delays, zip(calls, cancel_mask + [False] * len(calls)))
        if not call.cancelled
    )
    assert sorted(fired) == expected


@given(
    delays=st.lists(
        st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
        min_size=1,
        max_size=50,
    )
)
def test_kernel_clock_never_goes_backwards(delays):
    kernel = Kernel()
    observed = []
    for delay in delays:
        kernel.schedule(delay, lambda: observed.append(kernel.now))
    kernel.run_until_idle()
    assert observed == sorted(observed)
    assert kernel.now == max(delays)


# ---------------------------------------------------------------------------
# Heap + FIFO queue vs. reference heapq kernel
# ---------------------------------------------------------------------------
class _Boom(Exception):
    """Raised by a callback in the middle of an instant."""


class _ReferenceKernel:
    """A kernel reduced to its semantics: one (time, seq) heap with
    lazy-deletion flags, ``call_soon`` being a zero-delay schedule.
    The production heap + FIFO queue must be observationally identical to
    this under any interleaving of schedule / call_soon / cancel /
    reschedule / stop / raise / run, from outside a run or from inside a
    callback."""

    def __init__(self):
        self.now = 0.0
        self._heap = []
        self._seq = 0
        self._stopped = False
        self.fired = []
        self.handles = []

    def schedule_at(self, time_ms, tag, action=None):
        self._seq += 1
        entry = [time_ms, self._seq, tag, action, False]
        heapq.heappush(self._heap, entry)
        return entry

    def schedule(self, delay, tag, action=None):
        return self.schedule_at(self.now + delay, tag, action)

    @staticmethod
    def cancel(entry):
        entry[4] = True

    def pending(self):
        return sum(1 for entry in self._heap if not entry[4])

    def run(self, until_ms):
        self._stopped = False
        while self._heap and self._heap[0][0] <= until_ms and not self._stopped:
            time_ms, _seq, tag, action, cancelled = heapq.heappop(self._heap)
            if cancelled:
                continue
            self.now = time_ms
            self.fired.append((tag, time_ms))
            if action is not None:
                self._act(tag, action)
        if not self._stopped:
            self.now = max(self.now, until_ms)

    def _act(self, tag, action):
        kind = action[0]
        if kind == "chain":
            self.handles.append(self.schedule(action[1], f"{tag}>chain"))
        elif kind == "soon":
            self.schedule(0.0, f"{tag}>soon")
        elif kind == "zero":
            self.handles.append(self.schedule(0.0, f"{tag}>zero"))
        elif kind == "at_now":
            self.handles.append(self.schedule_at(self.now, f"{tag}>at"))
        elif kind == "cancel":
            if self.handles:
                self.cancel(self.handles[action[1] % len(self.handles)])
        elif kind == "stop":
            self._stopped = True
        else:
            raise _Boom(tag)


# Small palette with repeats so same-timestamp batches actually happen.
_DELAYS = st.sampled_from([0.0, 0.25, 1.0, 1.0, 2.5, 5.0, 10.0]) | st.floats(
    min_value=0.0, max_value=20.0, allow_nan=False
)
# What a callback does when it fires, in the middle of its instant.
_ACTIONS = st.one_of(
    st.none(),
    st.tuples(st.just("chain"), _DELAYS),
    st.tuples(st.sampled_from(["soon", "zero", "at_now", "stop", "raise"])),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=1_000)),
)


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_indexed_queue_equivalent_to_reference_heapq(data):
    """Random programs, run from outside and from inside callbacks: the
    heap + FIFO queue fires what a (time, seq) heap fires, in its order,
    at its times, and ``pending()`` agrees after every run — also after a
    ``stop()`` or an exception left the rest of an instant queued."""
    kernel = Kernel()
    ref = _ReferenceKernel()
    fired = []
    handles = []  # ScheduledCalls, in the order ref.handles gets entries

    def fire(tag, action):
        fired.append((tag, kernel.now))
        if action is None:
            return
        kind = action[0]
        if kind == "chain":
            handles.append(kernel.schedule(action[1], fire, f"{tag}>chain", None))
        elif kind == "soon":
            assert kernel.call_soon(fire, f"{tag}>soon", None) is None
        elif kind == "zero":
            handles.append(kernel.schedule(0.0, fire, f"{tag}>zero", None))
        elif kind == "at_now":
            handles.append(kernel.schedule_at(kernel.now, fire, f"{tag}>at", None))
        elif kind == "cancel":
            if handles:
                handles[action[1] % len(handles)].cancel()
        elif kind == "stop":
            kernel.stop()
        else:
            raise _Boom(tag)

    def both_run(until):
        outcomes = []
        for run in (kernel.run, ref.run):
            try:
                run(until)
                outcomes.append(None)
            except _Boom as boom:
                outcomes.append(str(boom))
        assert outcomes[0] == outcomes[1]
        assert fired == ref.fired
        assert kernel.now == ref.now
        assert kernel.pending() == ref.pending()
        assert kernel.events_executed == len(fired)

    n_ops = data.draw(st.integers(min_value=1, max_value=40))
    for op_index in range(n_ops):
        op = data.draw(
            st.sampled_from(
                ["schedule", "schedule", "at", "soon", "cancel", "resched", "run", "run"]
            )
        )
        tag = f"e{op_index}"
        if op == "schedule" or (op in ("cancel", "resched") and not handles):
            delay = data.draw(_DELAYS)
            action = data.draw(_ACTIONS)
            handles.append(kernel.schedule(delay, fire, tag, action))
            ref.handles.append(ref.schedule(delay, tag, action))
        elif op == "at":
            time_ms = kernel.now + data.draw(_DELAYS)
            action = data.draw(_ACTIONS)
            handles.append(kernel.schedule_at(time_ms, fire, tag, action))
            ref.handles.append(ref.schedule_at(time_ms, tag, action))
        elif op == "soon":
            action = data.draw(_ACTIONS)
            kernel.call_soon(fire, tag, action)
            ref.schedule(0.0, tag, action)
        elif op == "cancel":
            index = data.draw(st.integers(min_value=0, max_value=len(handles) - 1))
            handles[index].cancel()
            ref.cancel(ref.handles[index])
        elif op == "resched":
            # Reschedule = cancel + schedule again at a fresh delay.
            index = data.draw(st.integers(min_value=0, max_value=len(handles) - 1))
            handles[index].cancel()
            ref.cancel(ref.handles[index])
            delay = data.draw(_DELAYS)
            handles.append(kernel.schedule(delay, fire, f"{tag}r", None))
            ref.handles.append(ref.schedule(delay, f"{tag}r"))
        else:  # run
            both_run(kernel.now + data.draw(_DELAYS))
        assert kernel.pending() == ref.pending()

    # Drain: a stop() or a raise ends a run early, so keep running.
    for _ in range(4 * n_ops + 2):
        both_run(kernel.now + 1000.0)
        if not kernel.pending():
            break
    assert kernel.pending() == ref.pending() == 0


# ---------------------------------------------------------------------------
# CPU resource conservation
# ---------------------------------------------------------------------------
@given(
    costs=st.lists(
        st.floats(min_value=0.01, max_value=50.0, allow_nan=False),
        min_size=1,
        max_size=20,
    ),
    quota=st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
)
def test_cpu_fifo_completion_time_is_work_over_rate(costs, quota):
    kernel = Kernel()
    cpu = CpuResource(kernel, base_rate=1.0)
    cpu.set_quota(quota)
    completions = []
    for cost in costs:
        cpu.submit(cost, on_done=lambda c=cost: completions.append((c, kernel.now)))
    kernel.run_until_idle(max_time_ms=1e9)
    # FIFO: completion order == submission order.
    assert [c for c, _t in completions] == costs
    # Total time == total work / rate (no idling between queued jobs).
    total_work = sum(costs)
    assert completions[-1][1] == math.isclose(
        completions[-1][1], total_work / quota, rel_tol=1e-6
    ) and completions[-1][1] > 0 or math.isclose(
        completions[-1][1], total_work / quota, rel_tol=1e-6
    )


@given(
    cost=st.floats(min_value=1.0, max_value=100.0, allow_nan=False),
    changes=st.lists(
        st.tuples(
            st.floats(min_value=0.1, max_value=10.0),   # at fraction of cost
            st.floats(min_value=0.05, max_value=1.0),   # new quota
        ),
        max_size=5,
    ),
)
def test_cpu_retiming_conserves_work(cost, changes):
    """However the rate changes mid-job, the job does exactly `cost` work."""
    kernel = Kernel()
    cpu = CpuResource(kernel, base_rate=1.0)
    done_at = []
    cpu.submit(cost, on_done=lambda: done_at.append(kernel.now))
    schedule_time = 0.0
    for at_offset, new_quota in changes:
        schedule_time += at_offset
        kernel.schedule(schedule_time, cpu.set_quota, new_quota)
    kernel.run_until_idle(max_time_ms=1e9)
    assert len(done_at) == 1
    # Reconstruct the work integral over the piecewise-constant rate.
    events = [(0.0, 1.0)]
    time_acc = 0.0
    for at_offset, new_quota in changes:
        time_acc += at_offset
        events.append((time_acc, new_quota))
    end = done_at[0]
    work = 0.0
    for (start, rate), (next_start, _next_rate) in zip(events, events[1:] + [(end, 0.0)]):
        span_end = min(next_start, end)
        if span_end > start:
            work += (span_end - start) * rate
    assert math.isclose(work, cost, rel_tol=1e-6, abs_tol=1e-6)


# ---------------------------------------------------------------------------
# Memory accounting
# ---------------------------------------------------------------------------
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["alloc", "free"]), st.integers(min_value=0, max_value=10_000)),
        max_size=100,
    )
)
def test_memory_accounting_never_negative_and_balances(ops):
    memory = MemoryResource(capacity_bytes=10**9)
    expected = 0
    for op, size in ops:
        if op == "alloc":
            memory.allocate(size, owner="x")
            expected += size
        else:
            size = min(size, memory.usage_of("x"))
            memory.free(size, owner="x")
            expected -= size
        assert memory.used == expected
        assert memory.used >= 0
        assert memory.peak >= memory.used


# ---------------------------------------------------------------------------
# Send buffer byte conservation
# ---------------------------------------------------------------------------
@given(data=st.data())
def test_send_buffer_conserves_bytes(data):
    memory = MemoryResource(capacity_bytes=10**12)
    buffer = SendBuffer("a", "b", memory=memory)
    live = []
    n_ops = data.draw(st.integers(min_value=1, max_value=60))
    for _ in range(n_ops):
        op = data.draw(st.sampled_from(["push", "pop", "discard", "drain"]))
        if op == "push":
            message = Message("a", "b", "m", size_bytes=data.draw(st.integers(0, 5000)))
            buffer.push(message)
            live.append(message)
        elif op == "pop":
            popped = buffer.pop()
            if popped is not None:
                live.remove(popped)
        elif op == "discard" and live:
            victim = data.draw(st.sampled_from(live))
            if buffer.discard(victim.msg_id):
                live.remove(victim)
        elif op == "drain":
            buffer.drain_all()
            live.clear()
        expected = sum(message.size_bytes for message in live)
        assert buffer.bytes_queued == expected
        assert memory.used == expected


# ---------------------------------------------------------------------------
# Latency percentiles against a reference implementation
# ---------------------------------------------------------------------------
@given(
    samples=st.lists(
        st.floats(min_value=0.0, max_value=1e5, allow_nan=False), min_size=1, max_size=200
    ),
    p=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
)
def test_percentile_matches_nearest_rank_reference(samples, p):
    recorder = LatencyRecorder()
    for i, latency in enumerate(samples):
        recorder.record(float(i), latency)
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    assert recorder.percentile(p) == ordered[rank - 1]


@given(
    samples=st.lists(
        st.floats(min_value=0.0, max_value=1e5, allow_nan=False), min_size=1, max_size=200
    )
)
def test_summary_invariants(samples):
    recorder = LatencyRecorder()
    for i, latency in enumerate(samples):
        recorder.record(float(i), latency)
    summary = recorder.summary()
    assert summary.minimum <= summary.p50 <= summary.p99 <= summary.maximum
    assert summary.minimum <= summary.mean <= summary.maximum
    assert summary.count == len(samples)


# ---------------------------------------------------------------------------
# Zipfian generator
# ---------------------------------------------------------------------------
@given(
    record_count=st.integers(min_value=2, max_value=10_000),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=50)
def test_zipfian_ranks_in_range_and_skewed(record_count, seed):
    import random

    keys = ZipfianKeys(record_count, random.Random(seed))
    ranks = [keys.next_rank() for _ in range(500)]
    assert all(0 <= rank < record_count for rank in ranks)
    # Skew: the single hottest rank should beat the uniform expectation.
    from collections import Counter

    most_common_count = Counter(ranks).most_common(1)[0][1]
    assert most_common_count >= max(2, 500 // record_count)
