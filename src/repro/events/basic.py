"""Basic (non-compound) DepFast events.

Basic events wrap the sim substrate's callbacks into waitable conditions:
timers, value/condition variables, shared counters, RPC completions, disk
completions and CPU-consumption completions. Per §3.2 these are "mostly for
network and disk I/O events as well as other simple conditions such as
waiting for a variable to be set [to a] certain value".
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.events.base import Event, EventError
from repro.sim.kernel import Kernel
from repro.sim.resources import CpuResource, DiskResource


class TimerEvent(Event):
    """Triggers after a fixed virtual delay."""

    kind = "timer"

    __slots__ = ("delay_ms", "_call", "_kernel")

    def __init__(self, kernel: Kernel, delay_ms: float, name: str = "timer"):
        super().__init__(name=name)
        if delay_ms < 0:
            raise EventError(f"negative timer delay {delay_ms}")
        self.delay_ms = delay_ms
        self._call = kernel.schedule(delay_ms, self.trigger, None)
        self._kernel = kernel

    def trigger(self, now: Optional[float] = None) -> None:
        # The scheduled call holds this bound method, hence this event:
        # let go of it now that it has fired.
        self._call = None
        super().trigger(self._kernel.now if now is None else now)

    def cancel(self) -> None:
        """Stop the timer; the event will never trigger (no-op once fired)."""
        if self._call is not None:
            self._call.cancel()


class ValueEvent(Event):
    """Triggers when a value is set; carries the value.

    The one-shot analog of a future/promise. RPC replies and handler
    results ride on these.
    """

    kind = "value"

    __slots__ = ("value",)

    def __init__(self, name: str = "value", source: Optional[str] = None):
        # Event's seven slots, set here rather than through its
        # constructor: one of these is made per message received.
        self.name = name
        self.source = source
        self.timed_out = False
        self._triggered = False
        self._waiters = None
        self._parents = None
        self.triggered_at: Optional[float] = None
        self.value: Any = None

    def set(self, value: Any, now: Optional[float] = None) -> None:
        if self._triggered:
            raise EventError(f"ValueEvent {self.name!r} set twice")
        self.value = value
        self.trigger(now)


class SharedIntEvent(Event):
    """Triggers when a shared integer satisfies a condition.

    Defaults to "counter reaches ``target``" — the building block DepFast
    uses for simple barrier-like conditions. A custom predicate may be
    supplied instead.
    """

    kind = "shared_int"

    __slots__ = ("value", "_predicate")

    def __init__(
        self,
        target: Optional[int] = None,
        predicate: Optional[Callable[[int], bool]] = None,
        name: str = "shared_int",
    ):
        super().__init__(name=name)
        if (target is None) == (predicate is None):
            raise EventError("provide exactly one of target / predicate")
        self.value = 0
        self._predicate = predicate if predicate is not None else (lambda v: v >= target)
        self._maybe_trigger()

    def add(self, n: int = 1, now: Optional[float] = None) -> None:
        self.value += n
        self._maybe_trigger(now)

    def set(self, n: int, now: Optional[float] = None) -> None:
        self.value = n
        self._maybe_trigger(now)

    def _maybe_trigger(self, now: Optional[float] = None) -> None:
        if not self.ready() and self._predicate(self.value):
            self.trigger(now)


class RpcEvent(Event):
    """Completion of one outbound RPC; carries the reply or an error.

    ``source`` is the callee node id — the SPG edge target. The RPC layer
    completes the event via :meth:`complete` / :meth:`fail`; a wait timeout
    does *not* complete it (the reply may still arrive later and is then
    ignored by the already-resumed caller).
    """

    kind = "rpc"

    __slots__ = ("method", "to_node", "reply", "error", "issued_at", "cancel_send")

    def __init__(self, method: str, to_node: str, name: str = ""):
        # Event's seven slots first (see ValueEvent): one per outbound RPC.
        self.name = name or f"rpc:{method}->{to_node}"
        self.source = to_node
        self.timed_out = False
        self._triggered = False
        self._waiters = None
        self._parents = None
        self.triggered_at: Optional[float] = None
        self.method = method
        self.to_node = to_node
        self.reply: Any = None
        self.error: Optional[str] = None
        self.issued_at: Optional[float] = None
        self.cancel_send: Optional[Callable[[], bool]] = None

    def complete(self, reply: Any, now: Optional[float] = None) -> None:
        if self._triggered:
            return  # late duplicate reply; first one wins
        self.reply = reply
        self.trigger(now)

    def fail(self, error: str, now: Optional[float] = None) -> None:
        if self._triggered:
            return
        self.error = error
        self.trigger(now)

    @property
    def ok(self) -> bool:
        return self._triggered and self.error is None

    def latency_ms(self) -> Optional[float]:
        if self.issued_at is None or self.triggered_at is None:
            return None
        return self.triggered_at - self.issued_at


class _ResourceEvent(Event):
    """One job on a FIFO resource and its completion, in one object.

    The event *is* the job: it carries the job's fields, goes on the
    resource's queue itself and is told :meth:`finished` by the resource
    (see :class:`~repro.sim.resources.ResourceJob` for the callback-style
    shape of the same thing). Only its creator may :meth:`cancel` it.
    """

    __slots__ = ("cost", "remaining", "started_at", "done", "cancelled")

    def __init__(
        self,
        resource: "CpuResource | DiskResource",
        cost: float,
        name: str = "",
        source: Optional[str] = None,
    ):
        if cost < 0:
            raise EventError(f"negative {self.kind} cost {cost}")
        # Event's seven slots (see ValueEvent), then the job's five: one
        # of these is made per compute, ~9 per replicated operation.
        self.name = name or self.kind
        self.source = source
        self.timed_out = False
        self._triggered = False
        self._waiters = None
        self._parents = None
        self.triggered_at: Optional[float] = None
        self.cost = self.remaining = cost
        self.started_at: Optional[float] = None
        self.done = False
        self.cancelled = False
        resource.enqueue(self)

    def finished(self, now: float) -> None:
        """The resource completed the work: trigger, unless abandoned."""
        if not self.cancelled:
            self.trigger(now)

    def cancel(self) -> None:
        """Abandon the job (e.g. the issuing node crashed).

        Never triggers afterwards. A queued job is skipped when its turn
        comes; one already in service still occupies the resource until
        its completion time.
        """
        self.cancelled = True


class DiskEvent(_ResourceEvent):
    """Completion of one disk operation (write/read/fsync)."""

    kind = "disk"

    __slots__ = ("op", "n_bytes")

    def __init__(
        self,
        disk: DiskResource,
        n_bytes: int,
        op: str = "write",
        name: str = "",
        source: Optional[str] = None,
    ):
        if n_bytes < 0:
            raise EventError(f"negative I/O size {n_bytes}")
        self.op = op
        self.n_bytes = n_bytes
        super().__init__(disk, float(n_bytes), name or f"disk:{op}", source)


class CpuEvent(_ResourceEvent):
    """Completion of a slice of CPU work submitted to a node's CPU queue.

    ``CpuEvent(cpu, cost_ms, name="cpu", source=None)``. This is how handler
    compute cost is modelled: a coroutine that does ``cost_ms`` of
    processing yields a CpuEvent, which both delays it and occupies the
    (possibly throttled) CPU resource. The constructor is the shared one:
    no frame of its own on the hottest allocation in a run.
    """

    kind = "cpu"

    __slots__ = ()


class NeverEvent(Event):
    """An event that never triggers on its own — timeouts and tests."""

    kind = "never"

    __slots__ = ()

    def __init__(self, name: str = "never"):
        super().__init__(name=name)
