"""The discrete-event simulation kernel.

A :class:`Kernel` owns the virtual clock and the queue of scheduled
callbacks. Time is a float in *milliseconds*; nothing in the repository
ever reads the wall clock. Ties are broken by insertion order, which —
together with seeded RNG streams (:mod:`repro.sim.rng`) — makes every
simulation run bit-for-bit deterministic.

The queue is shaped like the traffic it serves (guarded by
``tests/test_determinism.py`` and ``tests/test_property_sim.py``): most
events are coroutine resumes due at the current instant, and nearly every
future call opens a timestamp of its own. So it has two parts:

* ``_ready``, a FIFO of the calls due at ``now``. ``call_soon`` appends a
  bare ``[now, seq, fn, args]`` entry and hands out no handle;
  ``schedule(0)`` and ``schedule_at(now)`` join it too;
* ``_heap``, one :class:`ScheduledCall` per future call — a list
  ``[time, seq, fn, args, kernel]`` that ``heapq`` compares in C.

When the clock advances to T, every heap entry due at T moves into the
FIFO, in ``(time, seq)`` order, before any of them runs; a ``call_soon``
made by one of them therefore cannot overtake a same-time call scheduled
earlier. The execution order is exactly the classic ``(time, seq)`` heap
order. Invariant: the heap holds only calls due after ``now``.

Cancellation is **lazy**: a cancelled entry drops its ``fn`` and ``args``
and stays queued until its turn comes or the queue compacts itself, which
it does once cancelled entries (mostly expired wait-timeout timers)
outnumber live ones. An executed entry drops its ``fn``, so a cancel
after execution is a no-op.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from operator import itemgetter
from typing import Any, Callable, Optional

# Compact the queue once cancelled entries outnumber live ones and number
# more than half of this; below that, dead entries are cheaper than
# rebuilds.
_COMPACT_MIN_SIZE = 64


class SimulationError(RuntimeError):
    """Raised for kernel misuse (e.g. scheduling into the past)."""


class ScheduledCall(list):
    """A handle to a pending callback: ``[time, seq, fn, args, kernel]``.

    A list, so the heap compares entries by ``(time, seq)`` in C (``seq``
    is unique: ``fn`` is never compared). Lists are unhashable, and so are
    handles: key a table by something else.
    """

    __slots__ = ()

    time = property(itemgetter(0))
    seq = property(itemgetter(1))
    fn = property(itemgetter(2))
    args = property(itemgetter(3))

    @property
    def cancelled(self) -> bool:
        return self[3] is None

    def cancel(self) -> None:
        """Prevent the callback from running; safe to call repeatedly.

        Cancelling a call that already ran (or is running right now) is a
        no-op. A cancelled call lets go of its callback at once: it may
        stay queued until its due time (lazy deletion), and must not keep
        whatever it would have resumed alive until then.
        """
        if self[2] is None:
            return
        self[2] = self[3] = None
        kernel = self[4]
        kernel._dead = dead = kernel._dead + 1
        if 2 * dead > _COMPACT_MIN_SIZE and 2 * dead > len(kernel._heap) + len(kernel._ready):
            kernel._compact()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<ScheduledCall t={self[0]:.3f} seq={self[1]} {state}>"


class Kernel:
    """Single-threaded virtual-time event loop.

    The kernel is shared by every simulated node in a cluster: one run of a
    distributed experiment is one kernel. Components schedule callbacks with
    :meth:`schedule` (relative delay) or :meth:`schedule_at` (absolute time)
    and the driver advances time with :meth:`run` / :meth:`run_until_idle`.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._ready: deque = deque()  # calls due at ``now``, in seq order
        self._heap: list = []  # ScheduledCalls due after ``now``
        self._seq = 0  # advances once per scheduled call
        self._dead = 0  # cancelled entries still queued
        self._running = False
        self._stopped = False
        self.events_executed = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay_ms: float, fn: Callable[..., Any], *args: Any) -> ScheduledCall:
        """Run ``fn(*args)`` after ``delay_ms`` simulated milliseconds."""
        if delay_ms < 0:
            raise SimulationError(f"cannot schedule {delay_ms}ms into the past")
        now = self.now
        time_ms = now + delay_ms
        self._seq = seq = self._seq + 1
        call = ScheduledCall((time_ms, seq, fn, args, self))
        if time_ms > now:
            heappush(self._heap, call)
        else:
            self._ready.append(call)
        return call

    def schedule_at(self, time_ms: float, fn: Callable[..., Any], *args: Any) -> ScheduledCall:
        """Run ``fn(*args)`` at absolute virtual time ``time_ms``."""
        now = self.now
        if time_ms < now:
            raise SimulationError(f"cannot schedule at t={time_ms} (now is t={now})")
        self._seq = seq = self._seq + 1
        call = ScheduledCall((time_ms, seq, fn, args, self))
        if time_ms > now:
            heappush(self._heap, call)
        else:
            self._ready.append(call)
        return call

    def call_soon(self, fn: Callable[..., Any], *args: Any) -> None:
        """Run ``fn(*args)`` at the current time, after already-queued work.

        Every coroutine resume comes through here, so it appends a bare
        entry to the FIFO and returns no handle.
        """
        self._seq = seq = self._seq + 1
        self._ready.append([self.now, seq, fn, args])

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until_ms: float) -> None:
        """Advance virtual time to ``until_ms``, executing everything due.

        The clock always lands exactly on ``until_ms`` even if the queue
        drains earlier, so measurement windows have exact lengths.
        """
        if until_ms < self.now:
            raise SimulationError(f"cannot run backwards to t={until_ms}")
        self._drain(until_ms)
        if not self._stopped:
            self.now = until_ms

    def run_until_idle(self, max_time_ms: float = 1e12) -> None:
        """Run until the queue drains (or the safety bound is hit)."""
        self._drain(max_time_ms)
        if self._stopped or not self._heap:
            return
        # Only live work counts toward the safety bound; cancelled
        # leftovers beyond it are just garbage.
        if self.pending():
            raise SimulationError(f"simulation still busy past safety bound t={max_time_ms}")
        self._heap.clear()
        self._dead = 0

    def stop(self) -> None:
        """Stop a :meth:`run` in progress (from inside a callback)."""
        self._stopped = True

    def _drain(self, until_ms: float) -> None:
        """Execute every call due at or before ``until_ms`` in ``(time, seq)`` order.

        ``stop()`` or an exception leaves the unexecuted remainder queued:
        the rest of the current instant stays in the FIFO.
        """
        if self._running:
            raise SimulationError(
                "kernel.run/run_until_idle is not reentrant; "
                "use schedule()/call_soon() from inside callbacks"
            )
        self._stopped = False
        self._running = True
        heap, ready = self._heap, self._ready
        popleft = ready.popleft
        executed = 0
        try:
            while not self._stopped:
                if ready:
                    entry = popleft()
                    fn = entry[2]
                    if fn is None:
                        self._dead -= 1
                        continue
                elif heap and heap[0][0] <= until_ms:
                    entry = heappop(heap)
                    fn = entry[2]
                    if fn is None:  # cancelled: dropped, the clock stays
                        self._dead -= 1
                        continue
                    # The clock advances to this entry's time: whatever else
                    # is due then joins the FIFO behind it before any runs.
                    self.now = time_ms = entry[0]
                    while heap and heap[0][0] == time_ms:
                        ready.append(heappop(heap))
                else:
                    break
                entry[2] = None
                executed += 1
                fn(*entry[3])
        finally:
            self._running = False
            self.events_executed += executed

    # ------------------------------------------------------------------
    # Queue internals
    # ------------------------------------------------------------------
    def _compact(self) -> None:
        """Drop cancelled entries (amortized O(1) per cancel).

        Rebuilds ``_heap`` and ``_ready`` *in place*, so a drain in
        progress (which holds both) carries on with the survivors.
        """
        heap, ready = self._heap, self._ready
        heap[:] = [entry for entry in heap if entry[2] is not None]
        heapify(heap)
        live = [entry for entry in ready if entry[2] is not None]
        ready.clear()
        ready.extend(live)
        self._dead = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def pending(self) -> int:
        """Number of not-yet-cancelled queued callbacks. O(1)."""
        return len(self._heap) + len(self._ready) - self._dead

    def next_event_time(self) -> Optional[float]:
        """Virtual time of the next live callback, or None if idle."""
        heap, ready = self._heap, self._ready
        while ready and ready[0][2] is None:
            ready.popleft()
            self._dead -= 1
        if ready:
            return self.now
        while heap and heap[0][2] is None:
            heappop(heap)
            self._dead -= 1
        return heap[0][0] if heap else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Kernel t={self.now:.3f} pending={self.pending()}>"
