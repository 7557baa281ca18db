"""Event base class and the coroutine⇄scheduler wait protocol.

A coroutine blocks by ``yield``-ing a :class:`WaitDescriptor`, produced by
:meth:`Event.wait` — or the event itself, for a wait without a timeout.
The scheduler parks the coroutine until the event triggers (or the
per-wait timeout fires) and resumes it with a :class:`WaitResult` — the
Python analog of the paper's::

    rpc_event.Wait();           // possible slowness
    if (rpc_event.timeout()) { ... }

Events are single-shot: :meth:`trigger` is idempotent and a triggered event
stays ready forever. Compound events subscribe to their children as
*parents* and re-evaluate their own readiness on each child trigger.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

# Sentinel a coroutine can yield to cooperatively reschedule itself at the
# current virtual time without waiting on any event.
YIELD = object()

# One (source, k, n) dependency, and what wait_edges() returns.
WaitEdges = Tuple[Tuple[str, int, int], ...]

# The 1-of-1 edge set of every basic event with a given source, built once
# per source and handed out to every wait on it (one entry per node id).
_UNIT_EDGES: Dict[str, WaitEdges] = {}


class EventError(RuntimeError):
    """Raised for event-protocol misuse (e.g. waiting on a foreign child)."""


class WaitDescriptor:
    """What a coroutine yields: an event plus an optional timeout."""

    __slots__ = ("event", "timeout_ms")

    def __init__(self, event: "Event", timeout_ms: Optional[float]):
        self.event = event
        self.timeout_ms = timeout_ms

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Wait on {self.event!r} timeout={self.timeout_ms}>"


class WaitResult:
    """What a coroutine receives back when it resumes from a wait.

    The scheduler hands over its own per-wait object (a subclass), so
    rely on these attributes and :attr:`ready` only.
    """

    __slots__ = ("event", "timed_out", "waited_ms")

    def __init__(self, event: "Event", timed_out: bool, waited_ms: float):
        self.event = event
        self.timed_out = timed_out
        self.waited_ms = waited_ms

    @property
    def ready(self) -> bool:
        return self.event.ready()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<WaitResult timed_out={self.timed_out} waited={self.waited_ms:.3f}ms>"


class Event:
    """A single-shot waitable condition — the universal wait point.

    Attributes used by the tracing layer (:mod:`repro.trace`):

    * ``source`` — identifier of the component expected to trigger this
      event (a peer node id for RPCs, the local node for disk/timers).
      This is what slowness-propagation edges are drawn from.
    * ``timed_out`` — set to True whenever a wait on this event expires;
      mirrors the paper's ``event.timeout()`` accessor.
    """

    kind = "event"

    # Events are the most-allocated objects in a run (one per RPC, timer,
    # disk op, inbox receive); slots keep them dict-free. Subclasses must
    # declare their own __slots__ (possibly empty) to stay that way.
    __slots__ = (
        "name",
        "source",
        "timed_out",
        "_triggered",
        "_waiters",
        "_parents",
        "triggered_at",
    )

    def __init__(self, name: str = "", source: Optional[str] = None):
        self.name = name
        self.source = source
        self.timed_out = False
        self._triggered = False
        # Both created on first use: most events get one waiter and no
        # parent, many get neither.
        self._waiters: Optional[List[Callable[["Event"], None]]] = None
        self._parents: Optional[List["Event"]] = None
        self.triggered_at: Optional[float] = None

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    def ready(self) -> bool:
        """True once the event has triggered (never resets)."""
        return self._triggered

    def trigger(self, now: Optional[float] = None) -> None:
        """Fire the event; idempotent. Notifies waiters and parent events."""
        if self._triggered:
            return
        self._triggered = True
        self.triggered_at = now
        # Waiters and parents are both detached before anyone is told, so
        # a callback that (un)subscribes or re-parents cannot disturb this
        # round — and a triggered event points at nobody: the compound
        # that holds it as a child and the waiter that holds it as its
        # event are not held back, so neither pair forms a cycle.
        waiters, parents = self._waiters, self._parents
        self._waiters = self._parents = None
        if parents is not None:
            for parent in parents:
                parent.child_triggered(self)
        if waiters is not None:
            for notify in waiters:
                notify(self)

    # ------------------------------------------------------------------
    # Waiting
    # ------------------------------------------------------------------
    def wait(self, timeout_ms: Optional[float] = None) -> WaitDescriptor:
        """Produce the descriptor a coroutine yields to block on this event."""
        if timeout_ms is not None and timeout_ms < 0:
            raise EventError(f"negative timeout {timeout_ms}")
        return WaitDescriptor(self, timeout_ms)

    def subscribe(self, notify: Callable[["Event"], None]) -> None:
        """Low-level: call ``notify(self)`` on trigger (immediately if ready).

        Used by the scheduler and by callback-style code; coroutines should
        use :meth:`wait` instead.
        """
        if self._triggered:
            notify(self)
        elif self._waiters is None:
            self._waiters = [notify]
        else:
            self._waiters.append(notify)

    def unsubscribe(self, notify: Callable[["Event"], None]) -> None:
        """Remove a subscription added by :meth:`subscribe` (no-op if absent)."""
        waiters = self._waiters
        if waiters is not None and notify in waiters:
            waiters.remove(notify)

    # ------------------------------------------------------------------
    # Compound-event plumbing
    # ------------------------------------------------------------------
    def add_parent(self, parent: "Event") -> None:
        """Register a compound event observing this one."""
        if self._triggered:
            parent.child_triggered(self)
        elif self._parents is None:
            self._parents = [parent]
        else:
            self._parents.append(parent)

    def remove_parent(self, parent: "Event") -> None:
        parents = self._parents
        if parents is not None and parent in parents:
            parents.remove(parent)

    def child_triggered(self, child: "Event") -> None:
        """Hook for compound events; basic events never have children."""
        raise EventError(f"{type(self).__name__} cannot have child events")

    # ------------------------------------------------------------------
    # SPG metadata
    # ------------------------------------------------------------------
    def wait_edges(self) -> WaitEdges:
        """(source, k, n) tuples describing whom a waiter depends on.

        A basic event is a 1/1 dependency on its source; compound events
        override this to express quorum semantics. Events with no source
        (pure local conditions) contribute no edges. The result is
        immutable and, for a basic event, shared by every event with the
        same source: a finished wait's record retains no container of its
        own.
        """
        source = self.source
        if source is None:
            return ()
        try:
            return _UNIT_EDGES[source]
        except KeyError:
            edges = _UNIT_EDGES[source] = ((source, 1, 1),)
            return edges

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "ready" if self._triggered else "pending"
        label = self.name or type(self).__name__
        return f"<{label} {state}>"


def as_wait(target: Any) -> WaitDescriptor:
    """Normalize a yielded value into a WaitDescriptor.

    Coroutines may yield an :class:`Event` directly (shorthand for
    ``event.wait()``) or an explicit descriptor.
    """
    if isinstance(target, WaitDescriptor):
        return target
    if isinstance(target, Event):
        return target.wait()
    raise EventError(f"coroutine yielded non-waitable {target!r}")
