"""Event trace points: the scheduler-facing instrumentation.

A :class:`Tracer` receives the scheduler's hooks and logs every completed
wait; ``tracer.records`` (a :class:`repro.trace.records.WaitLog`) reads
back as one :class:`WaitRecord` per wait. Records carry the waiting
coroutine's node, the event's kind, and the event's *wait edges* — the
``(source, k, n)`` dependencies read off the event when the wait ends —
which is all the SPG and the tolerance checker need.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.events.base import Event
from repro.sim.kernel import Kernel
from repro.trace.records import RowLog, WaitLog, WaitRecord


class QuorumArrival:
    """One peer's outcome in one quorum round, observed at trigger time.

    ``in_quorum`` — this peer's reply was among the acceptably-triggered
    children when the quorum fired (rank = 1-based arrival position);
    stragglers get ``in_quorum=False`` and ``rank=None`` — nobody waited
    for them, which is exactly the §5 signal: a peer that is *repeatedly*
    outside the winning quorum is slow relative to its group.
    """

    __slots__ = ("caller", "peer", "in_quorum", "rank", "n_targets", "at")

    def __init__(
        self,
        caller: str,
        peer: str,
        in_quorum: bool,
        rank: Optional[int],
        n_targets: int,
        at: float,
    ):
        self.caller = caller
        self.peer = peer
        self.in_quorum = in_quorum
        self.rank = rank
        self.n_targets = n_targets
        self.at = at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = f"rank {self.rank}" if self.in_quorum else "straggler"
        return f"<QuorumArrival {self.caller}->{self.peer} {status}/{self.n_targets}>"


class Tracer:
    """Collects wait records from every runtime in a cluster.

    One tracer is shared by all runtime instances — "multiple DepFast
    runtime instances will work together for the tracing" (§3.3).
    """

    def __init__(self, kernel: Kernel, enabled: bool = True):
        self.kernel = kernel
        self.enabled = enabled
        self.records = WaitLog()
        # Rows (caller_node, callee_node, method, latency_ms, completed_at):
        # per-RPC latencies reported by the RPC layer. Unlike wait records
        # these cover *every* reply — including replies from quorum
        # stragglers nobody waited on — which is what per-peer slowness
        # detection needs.
        self.rpc_latencies = RowLog()
        # Rows (node, n_bytes, latency_ms, completed_at): per-fsync latencies
        # reported by the WAL. These are *local* trace points — a slow
        # disk inflates them without touching any peer RTT, which is what
        # per-resource attribution keys on.
        self.fsync_latencies = RowLog(counted=True)
        self.spawned = 0
        self.finished = 0
        # Start times of waits opened through on_wait_start, by id(coro).
        self._open_waits: Dict[int, float] = {}
        # Streaming listeners: online detectors subscribe here to consume
        # trace points live instead of post-processing the record lists.
        self._rpc_listeners: List[Callable] = []
        self._quorum_listeners: List[Callable] = []
        self._disk_listeners: List[Callable] = []
        self._fsync_begin_listeners: List[Callable] = []
        self._fsync_abort_listeners: List[Callable] = []

    # ------------------------------------------------------------------
    # Scheduler hooks
    # ------------------------------------------------------------------
    def on_spawn(self, coro, now: float) -> None:
        self.spawned += 1

    def on_wait(self, coro, event: Event, started_at: float, now: float, timed_out: bool) -> None:
        """One finished wait, start and end in one call (the scheduler's hook)."""
        if self.enabled:
            # Edges are read now, at wait end: a quorum child added later must
            # not change what this wait is recorded to have depended on.
            shape = (
                coro.name, coro.node, event.kind, event.name, event.wait_edges(),
                timed_out, coro.dedication,
            )
            log = self.records
            try:
                index = log.shape_ids[shape]
            except KeyError:
                index = log.shape_ids[shape] = len(log.shapes)
                log.shapes.append(shape)
            except TypeError:
                raise TypeError(
                    f"{event!r}.wait_edges() is not WaitEdges (a tuple of tuples): {shape[4]!r}"
                ) from None
            log.shape_of.append(index)
            log.times.append(started_at)
            log.times.append(now)

    def on_wait_start(self, coro, event: Event, now: float, timeout_ms) -> None:
        """With :meth:`on_wait_end`, the two-call form of :meth:`on_wait` for
        callers that do not carry the start time; every start needs its end."""
        if self.enabled:
            self._open_waits[id(coro)] = now

    def on_wait_end(self, coro, event: Event, now: float, timed_out: bool) -> None:
        self.on_wait(coro, event, self._open_waits.pop(id(coro), now), now, timed_out)

    def on_finish(self, coro, now: float) -> None:
        self.finished += 1

    def on_rpc_complete(
        self, node: str, peer: str, method: str, latency_ms: float, now: float
    ) -> None:
        if self.enabled:
            self.rpc_latencies.add((node, peer, method), latency_ms, now)
            for listener in self._rpc_listeners:
                listener(node, peer, method, latency_ms, now)

    def on_fsync_begin(self, node: str, n_bytes: int, now: float) -> None:
        """One real WAL fsync was just issued on ``node``.

        Completion latencies alone starve detection exactly when the
        disk is worst — a stalled fsync delivers no sample until it
        finally lands — so attributors also watch the *age* of the
        in-flight fsync as a censored ("at least this slow") reading.
        """
        if self.enabled:
            for listener in self._fsync_begin_listeners:
                listener(node, n_bytes, now)

    def on_fsync_abort(self, node: str, now: float) -> None:
        """``node``'s WAL retired (crash): its in-flight fsyncs died."""
        if self.enabled:
            for listener in self._fsync_abort_listeners:
                listener(node, now)

    def on_fsync_complete(
        self, node: str, n_bytes: int, latency_ms: float, now: float
    ) -> None:
        """One real WAL fsync finished on ``node`` (write-behind absorbs
        and no-op syncs are *not* reported — only platter traffic)."""
        if self.enabled:
            self.fsync_latencies.add((node,), latency_ms, now, n_bytes)
            for listener in self._disk_listeners:
                listener(node, n_bytes, latency_ms, now)

    def report_quorum_event(self, caller: str, quorum_event, now: float) -> None:
        """Record arrival ranks for one triggered quorum round.

        Called (via subscription) the moment a QuorumEvent fires: RPC
        children that triggered acceptably get their 1-based arrival
        rank; RPC children still outstanding are stragglers the quorum
        did not wait for. Non-RPC children (e.g. the leader's local WAL
        fsync) are skipped — ranks describe *peers*. Arrivals are only
        streamed (``subscribe(sink).on_quorum``), never retained.
        """
        if not self.enabled or not self._quorum_listeners:
            return
        rpc_targets = [
            child for child in quorum_event.children if hasattr(child, "to_node")
        ]
        n_targets = len(rpc_targets)
        if n_targets == 0:
            return
        arrived = set()
        rank = 0
        for child in quorum_event.ok_children:
            to_node = getattr(child, "to_node", None)
            if to_node is None:
                continue
            rank += 1
            arrived.add(id(child))
            self._record_arrival(
                QuorumArrival(caller, to_node, True, rank, n_targets, now)
            )
        for child in rpc_targets:
            if id(child) not in arrived:
                self._record_arrival(
                    QuorumArrival(caller, child.to_node, False, None, n_targets, now)
                )

    def _record_arrival(self, arrival: QuorumArrival) -> None:
        for listener in self._quorum_listeners:
            listener(arrival)

    # ------------------------------------------------------------------
    # Streaming subscriptions (online detectors)
    # ------------------------------------------------------------------
    def subscribe(self, sink) -> None:
        """Stream trace points to whichever hooks ``sink`` defines.

        ``on_rpc(node, peer, method, latency_ms, now)`` per RPC reply,
        ``on_quorum(arrival: QuorumArrival)`` per quorum-round outcome,
        ``on_fsync_begin(node, n_bytes, now)`` per issued fsync,
        ``on_fsync_complete(node, n_bytes, latency_ms, now)`` per
        completed one, ``on_fsync_abort(node, now)`` when a node's WAL
        retires mid-fsync. Bound methods are resolved here, once, so the
        emit paths stay a plain loop over one list.
        """
        for hook, listeners in (
            ("on_rpc", self._rpc_listeners),
            ("on_quorum", self._quorum_listeners),
            ("on_fsync_begin", self._fsync_begin_listeners),
            ("on_fsync_complete", self._disk_listeners),
            ("on_fsync_abort", self._fsync_abort_listeners),
        ):
            listener = getattr(sink, hook, None)
            if listener is not None:
                listeners.append(listener)
