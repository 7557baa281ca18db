"""The discrete-event simulation kernel.

A :class:`Kernel` owns the virtual clock and an indexed priority queue of
scheduled callbacks. Time is a float in *milliseconds*; nothing in the
repository ever reads the wall clock. Ties are broken by insertion order,
which — together with seeded RNG streams (:mod:`repro.sim.rng`) — makes
every simulation run bit-for-bit deterministic.

Queue design (the PR-5 hot-path overhaul, guarded by
``tests/test_determinism.py``):

* the heap holds **distinct timestamps only**; an index (dict) maps each
  timestamp to a FIFO deque of the calls due then. A burst of same-time
  events — ``call_soon`` cascades, quorum broadcasts, batched deliveries —
  costs one heap operation total instead of one per event, and drains as
  a *run batch* without re-heapifying;
* cancellation stays **lazy** (a flag checked at pop time), but the kernel
  now tracks the live count, so :meth:`pending` is O(1) and the queue
  compacts itself when cancelled entries (mostly expired wait-timeout
  timers) outnumber live ones — lazy deletion with a bounded footprint.

The execution order is exactly the classic ``(time, seq)`` heap order:
within one timestamp bucket, append order *is* sequence order.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Dict, Optional

# Compact the queue only once it holds this many entries (and more than
# half of them are cancelled); below this, dead entries are cheaper than
# rebuilds.
_COMPACT_MIN_SIZE = 64


class SimulationError(RuntimeError):
    """Raised for kernel misuse (e.g. scheduling into the past)."""


class ScheduledCall:
    """A handle to a pending callback; supports cancellation.

    Instances are ordered by (time, sequence number), the order in which
    the kernel executes them.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "executed", "_kernel")

    def __init__(
        self,
        time: float,
        seq: int,
        fn: Callable[..., Any],
        args: tuple,
        kernel: Optional["Kernel"] = None,
    ):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.executed = False
        self._kernel = kernel

    def cancel(self) -> None:
        """Prevent the callback from running; safe to call repeatedly.

        Cancelling a call that already ran (or is running right now) is a
        no-op — in particular it must not disturb the kernel's live-count
        accounting. A cancelled call lets go of its callback at once: it
        may sit in its bucket until its due time (lazy deletion), and must
        not keep whatever it would have resumed alive until then.
        """
        if self.cancelled or self.executed:
            return
        self.cancelled = True
        self.fn = self.args = None
        if self._kernel is not None:
            self._kernel._on_cancel()

    def __lt__(self, other: "ScheduledCall") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<ScheduledCall t={self.time:.3f} seq={self.seq} {state}>"


class Kernel:
    """Single-threaded virtual-time event loop.

    The kernel is shared by every simulated node in a cluster: one run of a
    distributed experiment is one kernel. Components schedule callbacks with
    :meth:`schedule` (relative delay) or :meth:`schedule_at` (absolute time)
    and the driver advances time with :meth:`run` / :meth:`run_until_idle`.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        # Indexed lazy-deletion queue: heap of distinct due-times plus a
        # time -> FIFO-deque index. Invariant: _times holds exactly the
        # keys of _buckets, each once; every bucket is non-empty except
        # (transiently) the one currently being drained.
        self._buckets: Dict[float, deque] = {}
        self._times: list = []
        self._seq = 0
        self._live = 0  # scheduled, not cancelled, not yet executed
        self._size = 0  # total queued entries, cancelled included
        self._running = False
        self._stopped = False
        self._compact_pending = False
        self.events_executed = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay_ms: float, fn: Callable[..., Any], *args: Any) -> ScheduledCall:
        """Run ``fn(*args)`` after ``delay_ms`` simulated milliseconds."""
        if delay_ms < 0:
            raise SimulationError(f"cannot schedule {delay_ms}ms into the past")
        time_ms = self.now + delay_ms
        self._seq += 1
        call = ScheduledCall(time_ms, self._seq, fn, args, self)
        bucket = self._buckets.get(time_ms)
        if bucket is None:
            self._buckets[time_ms] = bucket = deque()
            heapq.heappush(self._times, time_ms)
        bucket.append(call)
        self._live += 1
        self._size += 1
        return call

    def schedule_at(self, time_ms: float, fn: Callable[..., Any], *args: Any) -> ScheduledCall:
        """Run ``fn(*args)`` at absolute virtual time ``time_ms``."""
        if time_ms < self.now:
            raise SimulationError(
                f"cannot schedule at t={time_ms} (now is t={self.now})"
            )
        self._seq += 1
        call = ScheduledCall(time_ms, self._seq, fn, args, self)
        bucket = self._buckets.get(time_ms)
        if bucket is None:
            self._buckets[time_ms] = bucket = deque()
            heapq.heappush(self._times, time_ms)
        bucket.append(call)
        self._live += 1
        self._size += 1
        return call

    def call_soon(self, fn: Callable[..., Any], *args: Any) -> ScheduledCall:
        """Run ``fn(*args)`` at the current time, after already-queued work.

        Every coroutine resume comes through here, so this is the enqueue
        body itself (``now`` cannot be in the past), not a hop through
        :meth:`schedule_at`.
        """
        now = self.now
        self._seq += 1
        call = ScheduledCall(now, self._seq, fn, args, self)
        bucket = self._buckets.get(now)
        if bucket is None:
            self._buckets[now] = bucket = deque()
            heapq.heappush(self._times, now)
        bucket.append(call)
        self._live += 1
        self._size += 1
        return call

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next pending callback. Returns False if none remain."""
        call = self._pop_next_live()
        if call is None:
            return False
        if call.time < self.now:  # pragma: no cover - defensive
            raise SimulationError("queue produced an event from the past")
        self.now = call.time
        self._live -= 1
        self.events_executed += 1
        call.executed = True
        call.fn(*call.args)
        return True

    def run(self, until_ms: float) -> None:
        """Advance virtual time to ``until_ms``, executing everything due.

        The clock always lands exactly on ``until_ms`` even if the queue
        drains earlier, so measurement windows have exact lengths.
        """
        if until_ms < self.now:
            raise SimulationError(f"cannot run backwards to t={until_ms}")
        self._enter_run()
        times, buckets = self._times, self._buckets
        try:
            while times and not self._stopped:
                if self._compact_pending:
                    self._compact()
                    if not times:
                        break
                due = times[0]
                if due > until_ms:
                    break
                self._drain_bucket(due, buckets.get(due))
        finally:
            self._running = False
        if not self._stopped:
            self.now = max(self.now, until_ms)

    def run_until_idle(self, max_time_ms: float = 1e12) -> None:
        """Run until the queue drains (or the safety bound is hit)."""
        self._enter_run()
        times, buckets = self._times, self._buckets
        try:
            while self._live and not self._stopped:
                if self._compact_pending:
                    self._compact()
                    if not times:
                        break
                due = times[0]
                bucket = buckets.get(due)
                if due > max_time_ms:
                    # Only live work counts toward the safety bound;
                    # cancelled leftovers beyond it are just garbage.
                    if bucket is not None and any(not c.cancelled for c in bucket):
                        raise SimulationError(
                            f"simulation still busy past safety bound t={max_time_ms}"
                        )
                    self._retire_bucket(due, bucket)
                    continue
                self._drain_bucket(due, bucket)
        finally:
            self._running = False

    def stop(self) -> None:
        """Stop a :meth:`run` in progress (from inside a callback)."""
        self._stopped = True

    # ------------------------------------------------------------------
    # Queue internals
    # ------------------------------------------------------------------
    def _enter_run(self) -> None:
        if self._running:
            raise SimulationError(
                "kernel.run/run_until_idle is not reentrant; "
                "use schedule()/call_soon() from inside callbacks"
            )
        self._stopped = False
        self._running = True

    def _drain_bucket(self, due: float, bucket: Optional[deque]) -> None:
        """Execute the FIFO batch of callbacks due at ``due``.

        The bucket stays indexed while draining, so callbacks scheduling
        at the *current* time append to this same batch and run in order
        without touching the heap. ``stop()`` or an exception leaves the
        unexecuted remainder queued, exactly like the one-pop-per-step
        loop did.
        """
        if bucket is None:  # pragma: no cover - defensive (stray heap time)
            if self._times and self._times[0] == due:
                heapq.heappop(self._times)
            return
        popleft = bucket.popleft
        self.now = due
        # Batch the queue accounting: counters are reconciled once per
        # batch (and on exceptions), not once per event. ``pending()``
        # is therefore batch-consistent rather than call-consistent —
        # nothing in the tree reads it from inside a callback.
        popped = 0
        executed = 0
        try:
            while bucket and not self._stopped:
                call = popleft()
                popped += 1
                if call.cancelled:
                    continue
                executed += 1
                call.executed = True
                call.fn(*call.args)
        finally:
            self._size -= popped
            self._live -= executed
            self.events_executed += executed
        if not bucket:
            # Drained: drop the bucket and its heap entry (``due`` is the
            # heap minimum — nothing can be scheduled before ``now``).
            del self._buckets[due]
            heapq.heappop(self._times)

    def _retire_bucket(self, due: float, bucket: Optional[deque]) -> None:
        """Drop a drained (or dead) bucket and its heap entry."""
        if bucket is not None:
            self._size -= len(bucket)
            dead = sum(1 for c in bucket if not c.cancelled)
            self._live -= dead  # pragma: no cover - only dead buckets reach here
        self._buckets.pop(due, None)
        if self._times and self._times[0] == due:
            heapq.heappop(self._times)

    def _pop_next_live(self) -> Optional[ScheduledCall]:
        """Pop the earliest non-cancelled call (shared lazy-pop logic)."""
        times, buckets = self._times, self._buckets
        while times:
            due = times[0]
            bucket = buckets.get(due)
            while bucket:
                call = bucket.popleft()
                self._size -= 1
                if not call.cancelled:
                    if not bucket:
                        self._retire_bucket(due, None)
                    return call
            self._retire_bucket(due, None)
        return None

    def _on_cancel(self) -> None:
        """Bookkeeping for a lazily-deleted entry; compacts when bloated."""
        self._live -= 1
        if self._size > _COMPACT_MIN_SIZE and self._size > 2 * self._live:
            if self._running:
                # Rebuilding mid-batch would strand the deque being
                # drained; defer to the next between-bucket point.
                self._compact_pending = True
            else:
                self._compact()

    def _compact(self) -> None:
        """Rebuild the queue without cancelled entries (amortized O(1)).

        Mutates ``_times``/``_buckets`` *in place*: the run loops hold
        local aliases to both across iterations, so rebinding them here
        would strand those loops on stale structures.
        """
        self._compact_pending = False
        survivors: Dict[float, deque] = {}
        for due, bucket in self._buckets.items():
            live = deque(call for call in bucket if not call.cancelled)
            if live:
                survivors[due] = live
        self._buckets.clear()
        self._buckets.update(survivors)
        self._times[:] = survivors
        heapq.heapify(self._times)
        self._size = sum(len(bucket) for bucket in survivors.values())

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def pending(self) -> int:
        """Number of not-yet-cancelled queued callbacks. O(1)."""
        return self._live

    def next_event_time(self) -> Optional[float]:
        """Virtual time of the next live callback, or None if idle."""
        times, buckets = self._times, self._buckets
        while times:
            due = times[0]
            bucket = buckets.get(due)
            while bucket and bucket[0].cancelled:
                bucket.popleft()
                self._size -= 1
            if bucket:
                return due
            self._retire_bucket(due, None)
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Kernel t={self.now:.3f} pending={self.pending()}>"
