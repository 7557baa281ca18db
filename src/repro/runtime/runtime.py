"""The per-node DepFast runtime instance.

"A DepFast runtime instance consists of four major components: coroutines,
events, a scheduler, and I/O helper threads" (§3.3). :class:`Runtime` ties
those to a node's simulated resources and offers the convenience
constructors server code uses: ``spawn``, ``sleep``, ``compute`` and the
I/O helpers.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.events.base import WaitDescriptor
from repro.events.basic import CpuEvent, TimerEvent
from repro.runtime.coroutine import Coroutine
from repro.runtime.io_helper import IoHelperPool
from repro.runtime.scheduler import Scheduler
from repro.sim.kernel import Kernel
from repro.sim.resources import CpuResource, DiskResource


class Runtime:
    """One server process's runtime: scheduler + event constructors + I/O."""

    def __init__(
        self,
        kernel: Kernel,
        node: Optional[str] = None,
        cpu: Optional[CpuResource] = None,
        disk: Optional[DiskResource] = None,
        tracer: Any = None,
    ):
        self.kernel = kernel
        self.node = node
        self.cpu = cpu
        self.scheduler = Scheduler(kernel, node=node, tracer=tracer)
        self.io = IoHelperPool(disk, node=node) if disk is not None else None
        self._crashed = False

    @property
    def now(self) -> float:
        return self.kernel.now

    @property
    def crashed(self) -> bool:
        return self._crashed

    # ------------------------------------------------------------------
    # Tasks
    # ------------------------------------------------------------------
    def spawn(
        self, gen: Generator, name: str = "", dedication: Optional[str] = None
    ) -> Coroutine:
        """Launch a task; analog of the paper's ``Coroutine::Create``.

        ``dedication`` marks a task that exists solely to serve one remote
        peer (see :class:`~repro.runtime.coroutine.Coroutine`).
        """
        return self.scheduler.spawn(gen, name=name, dedication=dedication)

    def crash(self) -> None:
        """Stop this runtime: all coroutines die, no new ones may start."""
        self._crashed = True
        self.scheduler.stop()

    # ------------------------------------------------------------------
    # Event constructors
    # ------------------------------------------------------------------
    def timer(self, delay_ms: float, name: str = "timer") -> TimerEvent:
        return TimerEvent(self.kernel, delay_ms, name=name)

    def sleep(self, delay_ms: float) -> WaitDescriptor:
        """``yield runtime.sleep(ms)`` — a plain virtual-time delay."""
        return self.timer(delay_ms, name="sleep").wait()

    def compute(self, cost_ms: float, name: str = "compute") -> CpuEvent:
        """``yield runtime.compute(ms)`` — occupy this node's CPU queue.

        This is how handler processing cost is charged: the coroutine is
        delayed by queueing + service time on the (possibly throttled) CPU.
        The return value is for yielding: the :class:`CpuEvent` itself (an
        untimed wait), already on the CPU's queue.
        """
        cpu = self.cpu
        if cpu is None:
            raise RuntimeError(f"runtime {self.node!r} has no CPU resource")
        return CpuEvent(cpu, cost_ms, name, self.node)
