"""Coroutine objects — the unit of task execution (§3.1).

A DepFast coroutine wraps a Python generator. The generator expresses the
task's logic *synchronously* (the paper's antidote to shredded callback
code) and yields :class:`~repro.events.base.WaitDescriptor` objects (or
bare events, for an untimed wait) at its wait points; the scheduler
resumes it with a
:class:`~repro.events.base.WaitResult`.
"""

from __future__ import annotations

import enum
from typing import Any, Generator, Optional


class CoroutineKilled(Exception):
    """Raised inside a generator when its node crashes or it is killed."""


class CoroutineState(enum.Enum):
    CREATED = "created"
    RUNNABLE = "runnable"
    WAITING = "waiting"
    FINISHED = "finished"
    FAILED = "failed"
    KILLED = "killed"


class Coroutine:
    """One cooperative task. Created via ``Scheduler.spawn`` / ``Runtime.spawn``."""

    # One per request handled, so no per-instance dict; ``__weakref__``
    # because lifetime tests (and tooling) take weak references to tasks.
    __slots__ = (
        "coro_id",
        "gen",
        "name",
        "node",
        "dedication",
        "state",
        "result",
        "exception",
        "spawned_at",
        "finished_at",
        "total_wait_ms",
        "wait_count",
        "__weakref__",
    )

    def __init__(
        self,
        coro_id: int,
        gen: Generator,
        name: str = "",
        node: Optional[str] = None,
        dedication: Optional[str] = None,
    ):
        self.coro_id = coro_id
        self.gen = gen
        self.name = name or f"coro-{coro_id}"
        self.node = node
        # A coroutine *dedicated* to one remote peer (e.g. a catch-up
        # stream) may wait on that peer alone: its waits propagate the
        # peer's slowness only to work done on the peer's own behalf.
        # The fail-slow tolerance checker exempts such waits.
        self.dedication = dedication
        self.state = CoroutineState.CREATED
        self.result: Any = None
        self.exception: Optional[BaseException] = None
        self.spawned_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        # Total virtual time this coroutine spent suspended on events;
        # maintained by the scheduler, consumed by trace analysis.
        self.total_wait_ms = 0.0
        self.wait_count = 0

    def alive(self) -> bool:
        return self.state in (
            CoroutineState.CREATED,
            CoroutineState.RUNNABLE,
            CoroutineState.WAITING,
        )

    def kill(self) -> None:
        """Terminate the coroutine (node crash). Idempotent."""
        if not self.alive():
            return
        self.state = CoroutineState.KILLED
        try:
            # Closing the generator raises GeneratorExit at its suspension
            # point, running any finally-blocks in the task body.
            self.gen.close()
        except ValueError:
            # The generator is currently executing (the kill originated
            # from code it called). The scheduler notices the KILLED state
            # when the frame next yields and closes it then.
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = f"@{self.node}" if self.node else ""
        return f"<Coroutine {self.name}{where} {self.state.value}>"
