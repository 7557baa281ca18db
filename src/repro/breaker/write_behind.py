"""Write-behind circuit breaker for the WAL.

When a node's *disk* (not its links) fails slow, every fsync on the ack
path drags the whole replica: a follower cannot acknowledge AppendEntries
until the group-commit flush clears the crawling device, so the quorum
that includes it crawls too. The circuit-breaker trade from the
resilience-patterns literature applies cleanly here because Raft already
tolerates a minority losing unacked writes: while the breaker is tripped
the node acknowledges from an **in-memory write-behind queue** — local
durability is deliberately given up, bounded by a staleness budget — and
the *group* still guarantees majority persistence because the other
replicas keep fsyncing for real.

States:

``CLOSED``
    Normal operation; every ``sync`` is a real group-commit fsync. The
    returned ack is a *proxy* for the fsync completion, so a later trip
    can release it early: by trip time the backlog already sitting in
    the sick device's FIFO is what dominates recovery (seconds of dead
    throughput per second of trip latency), and those bytes are in a
    strictly stronger position than the memory queue — they are already
    on the disk and will land as it drains. Durability bookkeeping
    (``on_durable``) still follows the real fsync.
``OPEN``
    Tripped. Acks still waiting on in-flight fsyncs fire immediately
    (see above); ``sync`` captures the buffered bytes into the queue and
    returns a pre-completed ack immediately. ``on_durable`` callbacks are
    *held* with their queue slot and fire only when a drain fsync later
    pushes those bytes through the real disk — so durability bookkeeping
    (and hence crash recovery) stays honest: a reboot while tripped loses
    the queue. A kernel timer trickle-drains the queue head through the
    device every ``probe_interval_ms``; these probe fsyncs double as the
    health samples attribution needs to notice recovery (an absorbed sync
    produces no trace point). If absorbing a sync would exceed
    ``max_queued_bytes`` or hold bytes older than ``max_lag_ms``, the
    breaker **passes through** instead: the whole queue plus the new
    bytes go down in one real fsync and the caller waits — natural
    backpressure at the staleness bound.
``DRAINING``
    Released after probation: one fast flush of the remaining queue; new
    syncs go to the real disk behind it (the device queue is FIFO, so
    ordering holds). Back to ``CLOSED`` when the flush lands.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Optional, Tuple

from repro.events.base import Event
from repro.storage.wal import WriteAheadLog


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    DRAINING = "draining"


@dataclass
class BreakerConfig:
    # Staleness budget: absorbing stops (passthrough backpressure starts)
    # when the queue would exceed either bound.
    max_queued_bytes: int = 64 * 1024 * 1024
    max_lag_ms: float = 30_000.0
    # Trickle-drain cadence while OPEN. Each tick pushes at most
    # ``probe_max_bytes`` of queue head through the real disk (one fsync
    # in flight at a time); with an empty queue it still issues a
    # barrier-only probe so health samples keep flowing.
    probe_interval_ms: float = 100.0
    probe_max_bytes: int = 256 * 1024


class CircuitBreakerWal(WriteAheadLog):
    """A WAL whose fsyncs can be circuit-broken onto a write-behind queue."""

    def __init__(
        self,
        io,
        name: str = "wal",
        node: Optional[str] = None,
        tracer=None,
        config: Optional[BreakerConfig] = None,
    ):
        super().__init__(io, name=name, node=node, tracer=tracer)
        self._proxy_name = f"{name}:sync-proxy"
        self._absorbed_name = f"{name}:sync-absorbed"
        self.config = config or BreakerConfig()
        self.state = BreakerState.CLOSED
        # FIFO of absorbed group commits: (n_bytes, enqueued_at, on_durable).
        self._queue: Deque[Tuple[int, float, Optional[Callable[[], None]]]] = deque()
        self.queued_bytes = 0
        # Proxy acks for real fsyncs still in flight (trip releases them).
        self._pending_acks: list = []
        self._drain_inflight = False
        self._probe_armed = False
        self._retired = False
        # Telemetry.
        self.trips = 0
        self.releases = 0
        self.absorbed_syncs = 0
        self.passthrough_syncs = 0
        self.early_acks_on_trip = 0
        self.probe_fsyncs = 0
        self.queued_bytes_hwm = 0
        self.lag_ms_hwm = 0.0
        self.dropped_entries_on_retire = 0
        self.dropped_bytes_on_retire = 0

    # ------------------------------------------------------------------
    # Breaker control (driven by the mitigation controller)
    # ------------------------------------------------------------------
    def trip(self) -> None:
        """Open the breaker: acknowledge from memory, trickle-drain.

        Acks parked behind fsyncs already in the device FIFO fire now —
        their bytes are committed to the disk queue and will land as it
        drains, so waiting on the sick device buys nothing but coupling.
        """
        if self._retired or self.state == BreakerState.OPEN:
            return
        self.state = BreakerState.OPEN
        self.trips += 1
        when = self._now()
        for proxy in self._pending_acks:
            if not proxy.ready():
                self.early_acks_on_trip += 1
                proxy.trigger(when)
        self._pending_acks.clear()
        self._arm_probe()

    def release(self) -> None:
        """Probation passed: fast-drain the queue, then close."""
        if self._retired or self.state != BreakerState.OPEN:
            return
        self.state = BreakerState.DRAINING
        self.releases += 1
        if not self._queue:
            self.state = BreakerState.CLOSED
            return
        flushing, callbacks = self._take_queue(len(self._queue))

        def _drained() -> None:
            if self._retired:
                return
            for callback in callbacks:
                callback()
            if self.state == BreakerState.DRAINING:
                self.state = BreakerState.CLOSED

        self._issue_fsync(flushing, _drained)

    def retire(self) -> None:
        """Process death: the queue dies unfsynced, timers go inert."""
        super().retire()
        self._retired = True
        self.dropped_entries_on_retire += len(self._queue)
        self.dropped_bytes_on_retire += self.queued_bytes
        self._queue.clear()
        self.queued_bytes = 0
        self._pending_acks.clear()  # their waiters died with the process
        self.state = BreakerState.CLOSED

    # ------------------------------------------------------------------
    # The sync path
    # ------------------------------------------------------------------
    def sync(self, on_durable: Optional[Callable[[], None]] = None) -> Event:
        if self.state != BreakerState.OPEN:
            # CLOSED: real group commit. DRAINING: also real — the disk
            # queue is FIFO, so these land after the release flush. The
            # ack is proxied so a trip can release waiters early; the
            # on_durable callback stays on the real fsync.
            real = super().sync(on_durable)
            if real.ready():
                return real  # no-op sync: nothing was at stake
            proxy = Event(name=self._proxy_name)
            self._pending_acks.append(proxy)

            def _landed(_ev, _proxy=proxy) -> None:
                if _proxy in self._pending_acks:
                    self._pending_acks.remove(_proxy)
                if not _proxy.ready():
                    _proxy.trigger(self._now())

            real.subscribe(_landed)
            return proxy
        flushing = self.buffered_bytes
        if flushing == 0:
            self.noop_syncs += 1
            ack = Event(name=self._noop_name)
            ack.trigger(self._now())
            if on_durable is not None:
                # Nothing new buffered: previous syncs own their slots.
                on_durable()
            return ack
        self.buffered_bytes = 0
        self.syncs += 1
        now = self._now()
        if self._over_budget(flushing, now):
            # Staleness bound reached: flush everything queued plus this
            # sync for real; the caller waits (backpressure).
            self.passthrough_syncs += 1
            queued, callbacks = self._take_queue(len(self._queue))

            def _flushed(_on_durable=on_durable) -> None:
                for callback in callbacks:
                    callback()
                if _on_durable is not None:
                    _on_durable()

            return self._issue_fsync(queued + flushing, _flushed)
        # Absorb: ack now, fsync later.
        self.absorbed_syncs += 1
        self._queue.append((flushing, now, on_durable))
        self.queued_bytes += flushing
        if self.queued_bytes > self.queued_bytes_hwm:
            self.queued_bytes_hwm = self.queued_bytes
        self._note_lag(now)
        ack = Event(name=self._absorbed_name)
        ack.trigger(now)
        return ack

    def _over_budget(self, incoming: int, now: float) -> bool:
        cfg = self.config
        if self.queued_bytes + incoming > cfg.max_queued_bytes:
            return True
        if self._queue and now - self._queue[0][1] > cfg.max_lag_ms:
            return True
        return False

    def oldest_lag_ms(self) -> float:
        if not self._queue:
            return 0.0
        return self._now() - self._queue[0][1]

    def _note_lag(self, now: float) -> None:
        if self._queue:
            lag = now - self._queue[0][1]
            if lag > self.lag_ms_hwm:
                self.lag_ms_hwm = lag

    def _take_queue(self, n_items: int) -> Tuple[int, list]:
        """Dequeue up to ``n_items`` head slots; their bytes go in flight."""
        flushing = 0
        callbacks = []
        for _ in range(min(n_items, len(self._queue))):
            n_bytes, _at, on_durable = self._queue.popleft()
            flushing += n_bytes
            if on_durable is not None:
                callbacks.append(on_durable)
        self.queued_bytes -= flushing
        return flushing, callbacks

    # ------------------------------------------------------------------
    # Probe drain: trickle the queue through the device while OPEN
    # ------------------------------------------------------------------
    def _arm_probe(self) -> None:
        if self._probe_armed or self._retired:
            return
        self._probe_armed = True
        self.io.disk.kernel.schedule(self.config.probe_interval_ms, self._probe_tick)

    def _probe_tick(self) -> None:
        self._probe_armed = False
        if self._retired or self.state != BreakerState.OPEN:
            return
        self._note_lag(self._now())
        if not self._drain_inflight:
            self._drain_inflight = True
            self.probe_fsyncs += 1
            if self._queue:
                # Head chunk: whole queue slots up to the probe budget
                # (always at least one, so a slot larger than the budget
                # cannot wedge the drain).
                n_items = 0
                taken = 0
                for n_bytes, _at, _cb in self._queue:
                    if n_items > 0 and taken + n_bytes > self.config.probe_max_bytes:
                        break
                    taken += n_bytes
                    n_items += 1
                flushing, callbacks = self._take_queue(n_items)
            else:
                # Empty queue: barrier-only probe, purely a health sample.
                flushing, callbacks = 0, []

            def _probe_done() -> None:
                self._drain_inflight = False
                if self._retired:
                    return  # the process died before observing the flush
                for callback in callbacks:
                    callback()

            self._issue_fsync(flushing, _probe_done)
        self._arm_probe()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CircuitBreakerWal {self.name} {self.state.value} "
            f"queued={self.queued_bytes}B x{len(self._queue)}>"
        )


def install_breaker_wals(
    cluster, node_ids, config: Optional[BreakerConfig] = None
) -> dict:
    """Swap the named nodes' WALs for circuit-breaker WALs.

    Call between deployment and workload start (the factory sticks across
    restarts). Returns the initial ``node_id -> CircuitBreakerWal`` map;
    after a restart, read ``cluster.node(id).wal`` for the live handle.
    """
    wals = {}
    for node_id in node_ids:
        node = cluster.node(node_id)

        def factory(n, _config=config) -> CircuitBreakerWal:
            return CircuitBreakerWal(
                n.runtime.io,
                name=f"{n.node_id}.wal",
                node=n.node_id,
                tracer=n._tracer,
                config=_config,
            )

        wals[node_id] = node.use_wal_factory(factory)
    return wals
