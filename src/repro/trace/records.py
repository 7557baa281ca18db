"""Wait records and the column-wise log that keeps them.

A run finishes ~10^5 waits that fall into a few hundred *shapes* (who
waited, on what, how it ended), so :class:`WaitLog` interns each shape once
and keeps a wait as a 4-byte shape index and two floats: no object per wait.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from typing import Dict, Iterator, List, Optional

from repro.events.base import WaitEdges


class WaitRecord:
    """One completed (or timed-out) wait by one coroutine."""

    __slots__ = (
        "coro_name",
        "node",
        "event_kind",
        "event_name",
        "edges",
        "started_at",
        "ended_at",
        "timed_out",
        "dedication",
    )

    def __init__(
        self,
        coro_name: str,
        node: Optional[str],
        event_kind: str,
        event_name: str,
        edges: WaitEdges,
        started_at: float,
        ended_at: float,
        timed_out: bool,
        dedication: Optional[str] = None,
    ):
        self.coro_name = coro_name
        self.node = node
        self.event_kind = event_kind
        self.event_name = event_name
        self.edges = edges
        self.started_at = started_at
        self.ended_at = ended_at
        self.timed_out = timed_out
        # The waiting coroutine's dedication (see Coroutine): waits by a
        # per-peer stream on its own peer are exempt from the tolerance
        # check because their impact radius is that peer alone.
        self.dedication = dedication

    @property
    def waited_ms(self) -> float:
        return self.ended_at - self.started_at

    def is_inter_node(self) -> bool:
        """True if any dependency crosses to a different node."""
        return any(source != self.node for source, _k, _n in self.edges)

    def __eq__(self, other) -> bool:
        if not isinstance(other, WaitRecord):
            return NotImplemented
        return all(getattr(self, field) == getattr(other, field) for field in self.__slots__)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<WaitRecord {self.node}/{self.coro_name} on {self.event_kind} "
            f"{self.waited_ms:.2f}ms edges={self.edges}>"
        )


class WaitLog(Sequence):
    """Every finished wait of a run, read as a sequence of :class:`WaitRecord`.

    Columns: ``shapes[shape_of[i]]`` is wait *i*'s ``(coro_name, node,
    event_kind, event_name, edges, timed_out, dedication)``, interned through
    ``shape_ids``; ``times[2 * i : 2 * i + 2]`` its start and end. The tracer
    appends to them itself: the wait path's call budget has no room for a
    method call per wait. Indexing, slicing (a list) and iteration build a
    fresh record each time — changing one does not write back to the log.
    """

    __slots__ = ("shape_ids", "shapes", "shape_of", "times")

    def __init__(self) -> None:
        self.shape_ids: Dict[tuple, int] = {}
        self.shapes: List[tuple] = []
        self.shape_of = array("I")
        self.times = array("d")

    def _record(self, index: int) -> WaitRecord:
        shape = self.shapes[self.shape_of[index]]
        return WaitRecord(*shape[:5], *self.times[2 * index : 2 * index + 2], *shape[5:])

    def __len__(self) -> int:
        return len(self.shape_of)

    def __getitem__(self, index):
        picked = range(len(self))[index]  # negative, out-of-range and slice handling
        if isinstance(picked, range):
            return [self._record(i) for i in picked]
        return self._record(picked)

    def __iter__(self) -> Iterator[WaitRecord]:
        times = iter(self.times)  # unpacked by name: build_spg's loop, ~15% faster than *shape
        rows = zip(map(self.shapes.__getitem__, self.shape_of), times, times)
        for (name, node, kind, event, edges, timed_out, dedication), start, end in rows:
            yield WaitRecord(name, node, kind, event, edges, start, end, timed_out, dedication)

    def __eq__(self, other) -> bool:
        return list(self) == other  # a list of equal records; ``log == []`` reads as before
