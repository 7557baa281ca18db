"""The cooperative scheduler: suspends and resumes coroutines on events.

Each runtime instance has one scheduler "in charge of suspending and
resuming the execution of all coroutines" (§3.3). Scheduling is
cooperative: a coroutine runs until it yields a wait descriptor or an
event (or returns), so there is no preemption — slow *CPU work* is modelled
explicitly through :class:`~repro.events.basic.CpuEvent`, not by letting a
coroutine spin.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional

from repro.events.base import YIELD, Event, WaitDescriptor, WaitResult, as_wait
from repro.runtime.coroutine import Coroutine, CoroutineState
from repro.sim.kernel import Kernel, ScheduledCall

_RUNNABLE = CoroutineState.RUNNABLE
_WAITING = CoroutineState.WAITING


class SchedulerError(RuntimeError):
    """Raised on scheduler protocol violations."""


class _PendingWait(WaitResult):
    """One parked coroutine — and the result it receives when it resumes.

    The only object a wait allocates: it subscribes its own bound methods
    to the event and the timeout timer, fills in ``timed_out`` and
    ``waited_ms`` at resume time and is sent into the generator as is.
    """

    __slots__ = ("scheduler", "coro", "timer", "active", "started_at")

    def __init__(self, scheduler: "Scheduler", coro: Coroutine, event: Event, started_at: float):
        # WaitResult's three fields are set here rather than through its
        # constructor: this runs once per wait.
        self.event = event
        self.timed_out = False
        self.waited_ms = 0.0
        self.scheduler = scheduler
        self.coro = coro
        self.timer: Optional[ScheduledCall] = None
        self.active = True
        self.started_at = started_at

    def on_trigger(self, _event: Event) -> None:
        """The event fired (or :meth:`on_timeout` gave up on it): resume.

        The resume is always a ``call_soon`` hop, never an inline step:
        whatever triggered the event finishes first and same-instant work
        keeps its ``(time, seq)`` order.
        """
        if not self.active:
            return
        self.active = False
        timer = self.timer
        if timer is not None:
            # Cancel (a no-op when the timer is what fired) and let go: the
            # call holds on_timeout, hence this object — a cycle otherwise.
            self.timer = None
            timer.cancel()
        scheduler, coro = self.scheduler, self.coro
        kernel = scheduler.kernel
        now = kernel.now
        self.waited_ms = waited = now - self.started_at
        coro.total_wait_ms += waited
        tracer = scheduler.tracer
        if tracer is not None:
            tracer.on_wait(coro, self.event, self.started_at, now, self.timed_out)
        kernel.call_soon(scheduler._step, coro, self)

    def on_timeout(self) -> None:
        if self.active:
            event = self.event
            event.unsubscribe(self.on_trigger)
            event.timed_out = self.timed_out = True
            self.on_trigger(event)


class Scheduler:
    """Drives coroutines for one runtime instance.

    ``tracer`` (any object with :class:`repro.trace.tracepoints.Tracer`'s
    ``on_spawn`` / ``on_wait`` / ``on_finish`` hooks) observes spawns,
    finished waits and completions — that's the instrumentation the SPG
    and the fail-slow checker are built from.
    """

    def __init__(self, kernel: Kernel, node: Optional[str] = None, tracer: Any = None):
        self.kernel = kernel
        self.node = node
        self.tracer = tracer
        # Live coroutines only, by id in spawn order; an entry is dropped
        # when its task finishes or fails.
        self._live: Dict[int, Coroutine] = {}
        self.failures: List[Coroutine] = []
        # Called with the failed coroutine when a task raises; if unset the
        # exception propagates out of the kernel loop (loud by default).
        self.on_error: Optional[Callable[[Coroutine], None]] = None
        self._next_id = 0
        self._stopped = False

    # ------------------------------------------------------------------
    # Spawning
    # ------------------------------------------------------------------
    def spawn(self, gen: Generator, name: str = "", dedication: Optional[str] = None) -> Coroutine:
        """Launch a coroutine from a generator; starts at the current time."""
        if self._stopped:
            raise SchedulerError(f"scheduler on {self.node!r} is stopped")
        if not hasattr(gen, "send"):
            raise SchedulerError(
                f"spawn needs a generator, got {type(gen).__name__} "
                "(did you forget to call the generator function?)"
            )
        self._next_id += 1
        coro = Coroutine(
            self._next_id, gen, name=name, node=self.node, dedication=dedication
        )
        coro.spawned_at = self.kernel.now
        coro.state = _RUNNABLE
        self._live[coro.coro_id] = coro
        if self.tracer is not None:
            self.tracer.on_spawn(coro, self.kernel.now)
        self.kernel.call_soon(self._step, coro, None)
        return coro

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Kill all live coroutines and refuse new spawns (node crash)."""
        self._stopped = True
        # A task that crashed its own node is still executing here and may
        # yet return through _finish, which must find the table emptied.
        live, self._live = self._live, {}
        for coro in live.values():
            coro.kill()

    def live_count(self) -> int:
        return len(self._live)

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def _step(self, coro: Coroutine, send_value: Optional[WaitResult]) -> None:
        state = coro.state
        if state is not _RUNNABLE and state is not _WAITING:
            return  # killed while this step was queued
        coro.state = _RUNNABLE
        try:
            yielded = coro.gen.send(send_value)
        except StopIteration as stop:
            self._finish(coro, stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - task bodies may raise anything
            self._fail(coro, exc)
            return
        if coro.state is not _RUNNABLE:
            # Killed from code it called (e.g. its node OOM-crashed while
            # it was sending); finish the teardown now that it yielded.
            coro.gen.close()
            return
        kernel = self.kernel
        # What was yielded: a descriptor (event + optional timeout), a bare
        # event (an untimed wait, no descriptor built), the YIELD sentinel,
        # or something as_wait() must normalise or refuse.
        timeout_ms = None
        if yielded.__class__ is WaitDescriptor:
            event = yielded.event
            timeout_ms = yielded.timeout_ms
        elif isinstance(yielded, Event):
            event = yielded
        elif yielded is YIELD:
            kernel.call_soon(self._step, coro, None)
            return
        else:
            yielded = as_wait(yielded)
            event = yielded.event
            timeout_ms = yielded.timeout_ms
        # Park the coroutine: timeout timer first, then the subscription,
        # which resumes at once (through call_soon) if the event is ready.
        coro.state = _WAITING
        coro.wait_count += 1
        pending = _PendingWait(self, coro, event, kernel.now)
        if timeout_ms is not None:
            pending.timer = kernel.schedule(timeout_ms, pending.on_timeout)
        event.subscribe(pending.on_trigger)

    def _finish(self, coro: Coroutine, result: Any) -> None:
        self._live.pop(coro.coro_id, None)
        coro.state = CoroutineState.FINISHED
        coro.result = result
        coro.finished_at = self.kernel.now
        if self.tracer is not None:
            self.tracer.on_finish(coro, self.kernel.now)

    def _fail(self, coro: Coroutine, exc: BaseException) -> None:
        self._live.pop(coro.coro_id, None)
        coro.state = CoroutineState.FAILED
        coro.exception = exc
        coro.finished_at = self.kernel.now
        self.failures.append(coro)
        if self.tracer is not None:
            self.tracer.on_finish(coro, self.kernel.now)
        if self.on_error is not None:
            self.on_error(coro)
        else:
            raise exc
