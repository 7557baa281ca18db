"""The cooperative scheduler: suspends and resumes coroutines on events.

Each runtime instance has one scheduler "in charge of suspending and
resuming the execution of all coroutines" (§3.3). Scheduling is
cooperative: a coroutine runs until it yields a wait descriptor (or
returns), so there is no preemption — slow *CPU work* is modelled
explicitly through :class:`~repro.events.basic.CpuEvent`, not by letting a
coroutine spin.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional

from repro.events.base import YIELD, Event, WaitDescriptor, WaitResult, as_wait
from repro.runtime.coroutine import Coroutine, CoroutineState
from repro.sim.kernel import Kernel, ScheduledCall


class SchedulerError(RuntimeError):
    """Raised on scheduler protocol violations."""


class _PendingWait:
    """Bookkeeping for one suspended coroutine: event + optional timeout."""

    __slots__ = ("coro", "event", "timer", "active", "started_at")

    def __init__(self, coro: Coroutine, event: Event, started_at: float):
        self.coro = coro
        self.event = event
        self.timer: Optional[ScheduledCall] = None
        self.active = True
        self.started_at = started_at


class Scheduler:
    """Drives coroutines for one runtime instance.

    ``tracer`` (any object with the :class:`repro.trace.tracepoints.Tracer`
    hook methods) observes spawns, wait begins/ends and completions —
    that's the instrumentation the SPG and the fail-slow checker are built
    from.
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
        coro.state = CoroutineState.RUNNABLE
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
        if not coro.alive():
            return
        coro.state = CoroutineState.RUNNABLE
        try:
            yielded = coro.gen.send(send_value)
        except StopIteration as stop:
            self._finish(coro, stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - task bodies may raise anything
            self._fail(coro, exc)
            return
        if not coro.alive():
            # Killed from code it called (e.g. its node OOM-crashed while
            # it was sending); finish the teardown now that it yielded.
            coro.gen.close()
            return
        if yielded is YIELD:
            self.kernel.call_soon(self._step, coro, None)
            return
        descriptor = as_wait(yielded)
        self._suspend(coro, descriptor)

    def _suspend(self, coro: Coroutine, descriptor: WaitDescriptor) -> None:
        event = descriptor.event
        coro.state = CoroutineState.WAITING
        coro.wait_count += 1
        pending = _PendingWait(coro, event, self.kernel.now)
        if self.tracer is not None:
            self.tracer.on_wait_start(coro, event, self.kernel.now, descriptor.timeout_ms)

        def on_trigger(_event: Event) -> None:
            if not pending.active:
                return
            pending.active = False
            if pending.timer is not None:
                pending.timer.cancel()
            self._resume(pending, timed_out=False)

        if descriptor.timeout_ms is not None:

            def on_timeout() -> None:
                if not pending.active:
                    return
                pending.active = False
                event.unsubscribe(on_trigger)
                event.timed_out = True
                self._resume(pending, timed_out=True)

            pending.timer = self.kernel.schedule(descriptor.timeout_ms, on_timeout)

        event.subscribe(on_trigger)

    def _resume(self, pending: _PendingWait, timed_out: bool) -> None:
        coro = pending.coro
        waited = self.kernel.now - pending.started_at
        coro.total_wait_ms += waited
        if self.tracer is not None:
            self.tracer.on_wait_end(coro, pending.event, self.kernel.now, timed_out)
        result = WaitResult(pending.event, timed_out, waited)
        self.kernel.call_soon(self._step, coro, result)

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
