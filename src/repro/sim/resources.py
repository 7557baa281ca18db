"""Simulated node resources: CPU, disk, memory and NIC.

These are the substitution for the paper's Azure ``Standard_D4s_v3`` VMs.
Each resource exposes the knob that the corresponding Table 1 fault
injection throttles:

* :class:`CpuResource` — a FIFO service queue with an effective rate shaped
  by a cgroup-style *quota* (CPU slow: 5%) and CFS-style *shares* against a
  contending process (CPU contention: contender share 16×).
* :class:`DiskResource` — a FIFO I/O queue whose bandwidth is shaped by a
  blkio-style cap (disk slow) and by share contention from a heavy
  background writer (disk contention).
* :class:`MemoryResource` — byte accounting against a cap (memory
  contention); crossing a soft threshold models swap thrash as a CPU
  penalty, crossing the hard cap can OOM the process.
* :class:`NicResource` — per-node extra packet delay (network slow:
  ``tc netem delay 400ms``).

Resources serve *jobs* and know nothing of coroutines (this is the sim
layer): :meth:`_FifoResource.submit` takes a completion callback, and the
DepFast event layer's ``CpuEvent`` / ``DiskEvent`` queue themselves as jobs
whose completion is the event's trigger.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, Optional

from repro.sim.kernel import Kernel, ScheduledCall


class OutOfMemoryError(RuntimeError):
    """Hard memory cap exceeded; the owning process is expected to die."""


class ResourceJob:
    """A unit of work queued on a FIFO resource, with a completion callback.

    This is the callback-style job :meth:`_FifoResource.submit` hands out.
    A resource serves anything *job-shaped* — ``cost``, ``remaining``,
    ``started_at``, ``done``, ``cancelled`` and :meth:`finished` — and the
    event layer's ``CpuEvent`` / ``DiskEvent`` are job-shaped themselves,
    so a compute or a disk op is one object, not an event plus one of these.
    """

    __slots__ = ("cost", "on_done", "started_at", "remaining", "done", "cancelled", "label")

    def __init__(self, cost: float, on_done: Optional[Callable[[], None]], label: str = ""):
        self.cost = cost           # abstract work units (CPU-ms or bytes)
        self.remaining = cost
        self.on_done = on_done
        self.started_at: Optional[float] = None
        self.done = False
        self.cancelled = False
        self.label = label

    def finished(self, now: float) -> None:
        """The resource completed this job: fire the callback, once.

        The callback usually belongs to whoever holds the job; taking it
        out of the job first is what lets both die by reference count.
        """
        on_done, self.on_done = self.on_done, None
        if on_done is not None:
            on_done()

    def cancel(self) -> None:
        """Drop the job if it has not completed; its callback never fires."""
        self.cancelled = True
        self.on_done = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ResourceJob {self.label!r} cost={self.cost:.3f} done={self.done}>"


class _FifoResource:
    """Shared machinery: FIFO service queue with a mutable service rate.

    Subclasses define :meth:`effective_rate` (work units per virtual ms);
    the disk also pays a fixed per-job setup latency before service. When
    the rate changes while a job is in service (a fault was injected or
    cleared), the in-flight job is re-timed based on the work it has
    already completed.
    """

    def __init__(self, kernel: Kernel, name: str = ""):
        self.kernel = kernel
        self.name = name
        # Anything job-shaped: ResourceJob, CpuEvent, DiskEvent.
        self._queue: Deque[Any] = deque()
        self._current: Optional[Any] = None
        self._completion: Optional[ScheduledCall] = None
        self._rate_at_start = 0.0
        self._busy_ms = 0.0
        self._busy_since: Optional[float] = None

    # -- subclass interface -------------------------------------------
    def effective_rate(self) -> float:
        raise NotImplementedError

    # -- public API ----------------------------------------------------
    def submit(
        self, cost: float, on_done: Optional[Callable[[], None]] = None, label: str = ""
    ) -> ResourceJob:
        """Queue ``cost`` units of work; ``on_done`` fires at completion."""
        if cost < 0:
            raise ValueError(f"negative job cost {cost}")
        job = ResourceJob(cost, on_done, label)
        self.enqueue(job)
        return job

    def enqueue(self, job: Any) -> None:
        """Queue a job-shaped object; it is told ``finished(now)`` when served.

        The one way in: :meth:`submit` wraps a callback in a
        :class:`ResourceJob` first, the event layer's ``CpuEvent`` /
        ``DiskEvent`` enqueue themselves.
        """
        if self._current is None:
            # Idle (so nothing is queued either): straight into service.
            self._busy_since = self.kernel.now
            self._serve(job)
        else:
            self._queue.append(job)

    def queue_depth(self) -> int:
        """Jobs waiting or in service (cancelled jobs excluded)."""
        depth = sum(1 for job in self._queue if not job.cancelled)
        if self._current is not None and not self._current.cancelled:
            depth += 1
        return depth

    def busy_fraction(self, window_start: float = 0.0) -> float:
        """Fraction of [window_start, now] this resource was serving jobs."""
        elapsed = self.kernel.now - window_start
        if elapsed <= 0:
            return 0.0
        busy = self._busy_ms
        if self._busy_since is not None:
            busy += self.kernel.now - self._busy_since
        return min(1.0, busy / elapsed)

    def reconfigure(self) -> None:
        """Re-time the in-flight job after a rate change (fault toggled)."""
        if self._current is None or self._completion is None:
            return
        job = self._current
        started = job.started_at if job.started_at is not None else self.kernel.now
        elapsed = self.kernel.now - started
        work_done = max(0.0, elapsed) * self._rate_at_start
        job.remaining = max(0.0, job.remaining - work_done)
        self._completion.cancel()
        self._begin_service(job)

    # -- internals -------------------------------------------------------
    def _start_next(self) -> None:
        queue = self._queue
        while queue:
            job = queue.popleft()
            if not job.cancelled:
                self._serve(job)
                return
        self._current = None
        self._completion = None
        if self._busy_since is not None:
            self._busy_ms += self.kernel.now - self._busy_since
            self._busy_since = None

    def _begin_service(self, job: Any) -> None:
        if job.cancelled:
            self._current = None
            self._start_next()
            return
        rate = self.effective_rate()
        if rate <= 0:
            raise ValueError(f"resource {self.name!r} has non-positive rate {rate}")
        kernel = self.kernel
        self._current = job
        job.started_at = kernel.now
        self._rate_at_start = rate
        self._completion = kernel.schedule(job.remaining / rate, self._finish, job)

    # Taking a job into service. There is no setup stage here, so that is
    # beginning its service; DiskResource puts its per-op latency in front.
    _serve = _begin_service

    def _finish(self, job: Any) -> None:
        job.remaining = 0.0
        job.done = True
        # The next job starts before this one's owner hears of it, so the
        # successor's completion is scheduled ahead of whatever the owner
        # does at this instant.
        now = self.kernel.now
        if self._queue:
            self._start_next()
        else:
            # Nothing waiting: go idle here rather than through a call
            # that would find the queue empty (most completions do).
            self._current = None
            self._completion = None
            self._busy_ms += now - self._busy_since
            self._busy_since = None
        job.finished(now)


class CpuResource(_FifoResource):
    """CPU time for one server process, in CPU-ms of work per virtual ms.

    ``base_rate`` is the unthrottled service rate. The two fault knobs map
    onto Table 1:

    * ``quota`` — cgroup ``cpu.cfs_quota``: CPU slow sets it to 0.05.
    * ``contender_share`` — a contending process's CFS share relative to
      ``own_share``: CPU contention sets it to 16 × own_share.

    ``penalty`` multiplies job costs (used for swap-thrash under memory
    pressure); wired by the node, not by this class.
    """

    def __init__(self, kernel: Kernel, base_rate: float = 1.0, name: str = "cpu"):
        super().__init__(kernel, name=name)
        self.base_rate = base_rate
        self.quota = 1.0
        self.own_share = 1.0
        self.contender_share = 0.0
        self.penalty = 1.0
        # Multiplicative transient factor in (0, 1]; models short-lived
        # cloud noise independently of injected faults so both compose.
        self.jitter_factor = 1.0

    def effective_rate(self) -> float:
        share_frac = self.own_share / (self.own_share + self.contender_share)
        rate = self.base_rate * self.quota * share_frac * self.jitter_factor
        penalty = self.penalty
        return rate / (penalty if penalty > 1e-9 else 1e-9)

    def set_quota(self, quota: float) -> None:
        """cgroup-style CPU quota in [0, 1]; 1.0 means unthrottled."""
        if not 0 < quota <= 1.0:
            raise ValueError(f"quota must be in (0, 1], got {quota}")
        self.quota = quota
        self.reconfigure()

    def set_contender_share(self, share: float) -> None:
        """CFS share of a co-located contending process (0 = none)."""
        if share < 0:
            raise ValueError(f"contender share must be >= 0, got {share}")
        self.contender_share = share
        self.reconfigure()

    def set_penalty(self, penalty: float) -> None:
        """Cost multiplier >= 1 (swap thrash under memory pressure)."""
        if penalty < 1.0:
            raise ValueError(f"penalty must be >= 1, got {penalty}")
        self.penalty = penalty
        self.reconfigure()

    def set_jitter(self, factor: float) -> None:
        """Transient slowdown factor in (0, 1]; 1.0 clears the jitter."""
        if not 0 < factor <= 1.0:
            raise ValueError(f"jitter factor must be in (0, 1], got {factor}")
        self.jitter_factor = factor
        self.reconfigure()


class DiskResource(_FifoResource):
    """A disk with FIFO I/O queue, per-op latency and shaped bandwidth.

    ``bandwidth_mbps`` is the device's unthrottled throughput. Fault knobs:

    * ``cap_fraction`` — blkio bandwidth cap (disk slow).
    * ``contender_load`` — fraction of device bandwidth consumed by a heavy
      co-located writer (disk contention); the process gets the remainder.
    """

    def __init__(
        self,
        kernel: Kernel,
        bandwidth_mbps: float = 200.0,
        op_latency_ms: float = 0.1,
        name: str = "disk",
    ):
        super().__init__(kernel, name=name)
        self.bandwidth_mbps = bandwidth_mbps
        self.op_latency_ms = op_latency_ms
        self.cap_fraction = 1.0
        self.contender_load = 0.0

    def effective_rate(self) -> float:
        # bytes per ms: MB/s * 1e6 bytes / 1e3 ms.
        bytes_per_ms = self.bandwidth_mbps * 1000.0
        return bytes_per_ms * self.cap_fraction * (1.0 - self.contender_load)

    def setup_latency(self, job: Any) -> float:
        """Fixed latency paid before service begins (seek, command overhead)."""
        return self.op_latency_ms

    def _serve(self, job: Any) -> None:
        self._current = job
        setup = self.setup_latency(job)
        if setup > 0:
            # Setup time is rate-independent; model it as a delay before
            # service starts so bandwidth faults do not inflate it.
            job.started_at = self.kernel.now + setup
            self._rate_at_start = 0.0
            self._completion = self.kernel.schedule(setup, self._begin_service, job)
        else:
            self._begin_service(job)

    def set_cap_fraction(self, fraction: float) -> None:
        """blkio-style bandwidth cap in (0, 1]."""
        if not 0 < fraction <= 1.0:
            raise ValueError(f"cap fraction must be in (0, 1], got {fraction}")
        self.cap_fraction = fraction
        self.reconfigure()

    def set_contender_load(self, load: float) -> None:
        """Fraction of bandwidth eaten by a contending writer, in [0, 1)."""
        if not 0 <= load < 1.0:
            raise ValueError(f"contender load must be in [0, 1), got {load}")
        self.contender_load = load
        self.reconfigure()


class MemoryResource:
    """Byte accounting for one server process against a (faultable) cap.

    Crossing ``swap_threshold`` of the cap reports a swap penalty (the node
    applies it to its CPU resource); crossing the cap itself triggers the
    ``on_oom`` callback exactly once per excursion — the owner decides
    whether that kills the process (the RethinkDB-like baseline does).
    """

    def __init__(
        self,
        capacity_bytes: int = 16 * 1024**3,
        swap_threshold: float = 0.85,
        max_swap_penalty: float = 8.0,
    ):
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self.limit_bytes = capacity_bytes
        self.swap_threshold = swap_threshold
        self.max_swap_penalty = max_swap_penalty
        self.used = 0
        self.peak = 0
        self.on_oom: Optional[Callable[[], None]] = None
        self.on_pressure_change: Optional[Callable[[], None]] = None
        self._oom_fired = False
        self._by_owner: Dict[str, int] = {}

    def set_limit(self, limit_bytes: int) -> None:
        """Apply/clear a memory cap (the memory-contention fault)."""
        if limit_bytes <= 0:
            raise ValueError("limit must be positive")
        self.limit_bytes = min(limit_bytes, self.capacity_bytes)
        self._check_pressure()

    def reset_process(self) -> None:
        """Forget all allocations: the owning process died and restarted.

        The *limit* is left untouched — a cgroup cap (memory-contention
        fault) outlives the process it throttles.
        """
        self.used = 0
        self._by_owner.clear()
        self._oom_fired = False
        self._check_pressure()

    def allocate(self, n_bytes: int, owner: str = "anon") -> None:
        if n_bytes < 0:
            raise ValueError("cannot allocate a negative size")
        self.used += n_bytes
        self.peak = max(self.peak, self.used)
        self._by_owner[owner] = self._by_owner.get(owner, 0) + n_bytes
        self._check_pressure()

    def free(self, n_bytes: int, owner: str = "anon") -> None:
        if n_bytes < 0:
            raise ValueError("cannot free a negative size")
        owned = self._by_owner.get(owner, 0)
        if n_bytes > owned:
            raise ValueError(f"{owner!r} freeing {n_bytes} but owns {owned}")
        self.used -= n_bytes
        self._by_owner[owner] = owned - n_bytes
        self._check_pressure()

    def usage_of(self, owner: str) -> int:
        return self._by_owner.get(owner, 0)

    def pressure(self) -> float:
        """Used fraction of the current limit (can exceed 1.0)."""
        return self.used / self.limit_bytes

    def swap_penalty(self) -> float:
        """CPU cost multiplier modelling swap thrash; 1.0 when healthy.

        Ramps linearly from 1.0 at ``swap_threshold`` to
        ``max_swap_penalty`` at 100% of the limit.
        """
        pressure = self.pressure()
        if pressure <= self.swap_threshold:
            return 1.0
        span = 1.0 - self.swap_threshold
        excess = min(pressure, 1.0) - self.swap_threshold
        return 1.0 + (self.max_swap_penalty - 1.0) * (excess / span)

    def _check_pressure(self) -> None:
        if self.on_pressure_change is not None:
            self.on_pressure_change()
        if self.used > self.limit_bytes:
            if not self._oom_fired and self.on_oom is not None:
                self._oom_fired = True
                self.on_oom()
        else:
            self._oom_fired = False


class NicResource:
    """Per-node network-interface delay (``tc netem``-style).

    ``extra_delay_ms`` is the network-slow fault knob: Table 1 adds 400 ms.
    It applies to every packet leaving or entering the node, on top of link
    propagation delay.
    """

    def __init__(self, base_delay_ms: float = 0.0):
        if base_delay_ms < 0:
            raise ValueError("NIC delay must be >= 0")
        self.base_delay_ms = base_delay_ms
        self.extra_delay_ms = 0.0

    def delay_ms(self) -> float:
        return self.base_delay_ms + self.extra_delay_ms

    def set_extra_delay(self, delay_ms: float) -> None:
        if delay_ms < 0:
            raise ValueError("extra delay must be >= 0")
        self.extra_delay_ms = delay_ms
