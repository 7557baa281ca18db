"""Compound events: AndEvent, OrEvent and the paper's QuorumEvent (§3.1–3.2).

Compound events observe child events and derive their own readiness; they
nest arbitrarily (an AndEvent of QuorumEvents, an OrEvent of a QuorumEvent
and a TimerEvent, …). ``QuorumEvent`` is the key fail-slow building block:
a coroutine that waits on it proceeds as soon as *any* quorum of children
has triggered acceptably, so no single fail-slow child sits on the critical
path.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.events.base import Event, EventError, WaitEdges


class CompoundEvent(Event):
    """Base for events whose readiness derives from child events.

    Readiness is evaluated *lazily* at observation points (``ready()``,
    ``subscribe``/wait) in addition to eagerly on child triggers. Laziness
    matters during incremental construction: adding an already-triggered
    child to a half-built AndEvent must not fire it before the remaining
    children are attached.
    """

    kind = "compound"

    __slots__ = ("children",)

    def __init__(self, name: str = ""):
        super().__init__(name=name)
        self.children: List[Event] = []

    def add(self, child: Event) -> "CompoundEvent":
        """Attach a child; returns self so adds can be chained."""
        if child is self:
            raise EventError("an event cannot contain itself")
        self.children.append(child)
        self._on_child_added(child)
        if child.ready():
            # Record the child's outcome but defer the readiness decision
            # to the next observation or child trigger.
            self._on_child_triggered(child)
        else:
            child.add_parent(self)
        return self

    def ready(self) -> bool:
        if not self._triggered and self.check_ready():
            self.trigger()
        return self._triggered

    def subscribe(self, notify) -> None:
        self.ready()  # lazy evaluation before parking a waiter
        super().subscribe(notify)

    def check_ready(self) -> bool:
        """Evaluate the composite condition over current child states."""
        raise NotImplementedError

    def child_triggered(self, child: Event) -> None:
        self._on_child_triggered(child)
        if not self._triggered and self.check_ready():
            self.trigger(child.triggered_at)

    # -- subclass hooks -------------------------------------------------
    def _on_child_added(self, child: Event) -> None:
        pass

    def _on_child_triggered(self, child: Event) -> None:
        pass


class AndEvent(CompoundEvent):
    """Triggered when *all* children have triggered."""

    kind = "and"

    __slots__ = ()

    def __init__(self, *children: Event, name: str = "and"):
        super().__init__(name=name)
        for child in children:
            self.add(child)

    def check_ready(self) -> bool:
        return bool(self.children) and all(child.ready() for child in self.children)

    def wait_edges(self) -> WaitEdges:
        edges: List[tuple] = []
        for child in self.children:
            edges.extend(child.wait_edges())
        return tuple(edges)


class OrEvent(CompoundEvent):
    """Triggered when *any* child has triggered.

    After the wait, inspect each child's ``ready()`` to see which branch
    fired — exactly the fast-path/slow-path pattern of §3.2.
    """

    kind = "or"

    __slots__ = ()

    def __init__(self, *children: Event, name: str = "or"):
        super().__init__(name=name)
        for child in children:
            self.add(child)

    def check_ready(self) -> bool:
        return any(child.ready() for child in self.children)

    def wait_edges(self) -> WaitEdges:
        # An Or-wait depends on its alternatives only weakly: the waiter
        # needs 1 of n branches, so each branch's edges get a "1-of-n"
        # discount. Exception: a source that is *critical in every branch*
        # (its edge has k >= total, so that branch cannot complete without
        # it) cannot be routed around by picking another branch — its edges
        # keep their original k/n and stay on the critical path.
        branch_edges = [child.wait_edges() for child in self.children]
        critical_per_branch = [
            {source for source, k, total in edges if k >= total}
            for edges in branch_edges
        ]
        unavoidable = (
            set.intersection(*critical_per_branch) if critical_per_branch else set()
        )
        n = len(self.children)
        edges: List[tuple] = []
        for child_edges in branch_edges:
            for source, k, total in child_edges:
                if source in unavoidable and k >= total:
                    edges.append((source, k, total))
                else:
                    edges.append((source, k, max(total, n)))
        return tuple(edges)


class QuorumEvent(CompoundEvent):
    """Triggered once ``quorum`` children have triggered *acceptably*.

    ``classify(child) -> bool`` decides whether a triggered child counts
    toward the quorum (True → ok, False → reject); the default counts every
    trigger. Rejects are tracked so callers — or a second QuorumEvent over
    the same children with the inverse classifier — can express
    "minority-plus-one-reject" conditions precisely (§3.2).

    ``n_total`` (defaults to the number of children when first waited on)
    enables :meth:`definitely_failed`: true once so many children rejected
    that the quorum can no longer be reached.
    """

    kind = "quorum"

    __slots__ = (
        "quorum",
        "n_total",
        "_classify",
        "n_ok",
        "n_reject",
        "ok_children",
        "reject_children",
    )

    def __init__(
        self,
        quorum: int,
        n_total: Optional[int] = None,
        classify: Optional[Callable[[Event], bool]] = None,
        name: str = "quorum",
    ):
        super().__init__(name=name)
        if quorum < 1:
            raise EventError(f"quorum must be >= 1, got {quorum}")
        if n_total is not None and n_total < quorum:
            raise EventError(f"n_total {n_total} < quorum {quorum}")
        self.quorum = quorum
        self.n_total = n_total
        self._classify = classify
        self.n_ok = 0
        self.n_reject = 0
        self.ok_children: List[Event] = []
        self.reject_children: List[Event] = []

    # -- counting --------------------------------------------------------
    def add_ok(self, now: Optional[float] = None) -> None:
        """Count an acceptance directly (callback-style users)."""
        self.n_ok += 1
        if not self.ready() and self.check_ready():
            self.trigger(now)

    def add_reject(self) -> None:
        """Count a rejection directly."""
        self.n_reject += 1

    def _on_child_triggered(self, child: Event) -> None:
        accepted = True if self._classify is None else bool(self._classify(child))
        if accepted:
            self.n_ok += 1
            self.ok_children.append(child)
        else:
            self.n_reject += 1
            self.reject_children.append(child)

    def check_ready(self) -> bool:
        return self.n_ok >= self.quorum

    # -- state -------------------------------------------------------------
    def total(self) -> int:
        """Population size: explicit n_total, else the child count."""
        if self.n_total is not None:
            return self.n_total
        return max(len(self.children), self.quorum)

    def definitely_failed(self) -> bool:
        """True once the quorum is unreachable (too many rejects)."""
        return self.n_reject > self.total() - self.quorum

    def outstanding(self) -> List[Event]:
        """Children that have not yet triggered (the possibly-slow tail)."""
        return [child for child in self.children if not child.ready()]

    def wait_edges(self) -> WaitEdges:
        k, n = self.quorum, self.total()
        return tuple([
            (source, k, n)
            for child in self.children
            for source, _ck, _cn in child.wait_edges()
        ])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "ready" if self.ready() else "pending"
        return (
            f"<QuorumEvent {self.name!r} {self.n_ok}/{self.quorum} of "
            f"{self.total()} (rejects={self.n_reject}) {state}>"
        )
