"""Write-ahead log with group commit.

An RSM node appends log entries and must fsync before acknowledging:
``append`` buffers bytes, ``sync`` flushes everything buffered in one disk
operation (group commit), returning an event to wait on. ``append_and_sync``
is the common one-shot.

Two contracts matter to the layers above:

* A sync with an **empty buffer is a no-op**: it returns a pre-completed
  event without touching the disk. A real barrier would still queue the
  4 KiB flush-cache cost and — worse — emit an fsync trace point with no
  payload behind it, biasing the per-resource attribution baseline
  toward tiny latencies.
* ``sync(on_durable=...)`` invokes the callback only when the covered
  bytes actually reached the platter. Subclasses that defer the flush
  (the write-behind circuit breaker) hold the callback until the real
  fsync completes, so durability bookkeeping upstream stays honest.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.events.base import Event
from repro.runtime.io_helper import IoHelperPool


class WriteAheadLog:
    """Durable append-only log for one node."""

    def __init__(
        self,
        io: IoHelperPool,
        name: str = "wal",
        node: Optional[str] = None,
        tracer=None,
    ):
        self.io = io
        self.name = name
        self._noop_name = f"{name}:sync-noop"  # built once, not once per sync
        self.node = node or io.node
        self.tracer = tracer
        self.buffered_bytes = 0
        self.durable_bytes = 0
        self.appended_entries = 0
        self.syncs = 0
        self.noop_syncs = 0

    def _now(self) -> float:
        return self.io.disk.kernel.now

    def append(self, n_bytes: int) -> None:
        """Buffer an entry; not durable until :meth:`sync` completes."""
        if n_bytes < 0:
            raise ValueError(f"negative entry size {n_bytes}")
        self.buffered_bytes += n_bytes
        self.appended_entries += 1

    def sync(self, on_durable: Optional[Callable[[], None]] = None) -> Event:
        """Flush all buffered bytes (group commit); wait on the result.

        ``on_durable`` fires exactly when the flushed bytes are on stable
        storage — for an empty buffer that is immediately (there was
        nothing to lose), otherwise at fsync completion.
        """
        flushing = self.buffered_bytes
        if flushing == 0:
            self.noop_syncs += 1
            ack = Event(name=self._noop_name)
            ack.trigger(self._now())
            if on_durable is not None:
                on_durable()
            return ack
        self.buffered_bytes = 0
        self.syncs += 1
        return self._issue_fsync(flushing, on_durable)

    def _issue_fsync(
        self, flushing: int, on_durable: Optional[Callable[[], None]]
    ) -> Event:
        """Submit one real fsync of ``flushing`` bytes to the disk."""
        issued_at = self._now()
        if self.tracer is not None and self.node is not None:
            self.tracer.on_fsync_begin(self.node, flushing, issued_at)
        event = self.io.fsync(pending_bytes=flushing)

        def _done(_ev) -> None:
            self._mark_durable(flushing)
            self._report_fsync(flushing, issued_at)
            if on_durable is not None:
                on_durable()

        event.subscribe(_done)
        return event

    def append_and_sync(self, n_bytes: int) -> Event:
        """Append one entry and immediately flush it."""
        self.append(n_bytes)
        return self.sync()

    def read(self, n_bytes: int) -> Event:
        """Read ``n_bytes`` of old log data back from disk (cache miss path)."""
        if n_bytes < 0:
            raise ValueError(f"negative read size {n_bytes}")
        return self.io.read(n_bytes)

    def retire(self) -> None:
        """The owning process is gone: stop all background activity.

        The base WAL has none to stop; the write-behind subclass cancels
        its drain timers and drops the queue (those bytes died with the
        process). Either way any in-flight fsync dies too — reported so
        attributors tracking fsync ages drop their stale entries.
        """
        if self.tracer is not None and self.node is not None:
            self.tracer.on_fsync_abort(self.node, self._now())

    def _mark_durable(self, n_bytes: int) -> None:
        self.durable_bytes += n_bytes

    def _report_fsync(self, n_bytes: int, issued_at: float) -> None:
        if self.tracer is not None and self.node is not None:
            now = self._now()
            self.tracer.on_fsync_complete(self.node, n_bytes, now - issued_at, now)
