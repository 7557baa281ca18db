"""Trace rows and the column-wise logs that keep them.

A run finishes ~10^5 waits that fall into a few hundred *shapes* (who
waited, on what, how it ended), and its RPC / fsync trace points repeat a
handful of ``(node, peer, method)`` / ``(node,)`` keys. :class:`RowLog`
interns each shape once and keeps a row as a 4-byte shape index plus its
numbers in arrays: no object per row. :class:`WaitLog` reads its rows back
as :class:`WaitRecord`, the other logs as the flat tuples they replaced.
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


class RowLog(Sequence):
    """Rows of one kind, read back as a sequence of flat tuples.

    Columns: ``shapes[shape_of[i]]`` is row *i*'s repeating part, interned
    through ``shape_ids``; ``counts[i]`` its integer (``counted`` logs only)
    and ``times[2 * i : 2 * i + 2]`` its two floats. Row *i* reads back as
    ``shape + (count,) + times`` (see :meth:`_build`). Indexing, slicing (a
    list) and iteration build a fresh row each time.
    """

    __slots__ = ("shape_ids", "shapes", "shape_of", "counts", "times")

    def __init__(self, counted: bool = False) -> None:
        self.shape_ids: Dict[tuple, int] = {}
        self.shapes: List[tuple] = []
        self.shape_of = array("I")
        self.counts = array("q") if counted else None
        self.times = array("d")

    def add(self, shape: tuple, first: float, second: float, count: Optional[int] = None) -> None:
        """Append one row: its shape, its two floats and, if counted, its count."""
        try:
            index = self.shape_ids[shape]
        except KeyError:
            index = self.shape_ids[shape] = len(self.shapes)
            self.shapes.append(shape)
        self.shape_of.append(index)
        if count is not None:
            self.counts.append(count)
        times = self.times
        times.append(first)
        times.append(second)

    @staticmethod
    def _build(shape: tuple, *numbers):
        return shape + numbers

    def _columns(self) -> tuple:
        times = iter(self.times)
        return (times, times) if self.counts is None else (iter(self.counts), times, times)

    def _row(self, index: int):
        counted = () if self.counts is None else (self.counts[index],)
        shape = self.shapes[self.shape_of[index]]
        return self._build(shape, *counted, *self.times[2 * index : 2 * index + 2])

    def __len__(self) -> int:
        return len(self.shape_of)

    def __getitem__(self, index):
        picked = range(len(self))[index]  # negative, out-of-range and slice handling
        if isinstance(picked, range):
            return [self._row(i) for i in picked]
        return self._row(picked)

    def __iter__(self) -> Iterator:
        return map(self._build, map(self.shapes.__getitem__, self.shape_of), *self._columns())

    def __eq__(self, other) -> bool:
        return list(self) == other  # a list of equal rows; ``log == []`` reads as before


class WaitLog(RowLog):
    """Every finished wait of a run, read as a sequence of :class:`WaitRecord`.

    A shape is ``(coro_name, node, event_kind, event_name, edges, timed_out,
    dedication)`` and the two floats the wait's start and end. The tracer
    appends to the columns itself: the wait path's call budget has no room
    for a method call per wait. Changing a record read from the log does not
    write back to it.
    """

    __slots__ = ()

    @staticmethod
    def _build(shape: tuple, start: float, end: float) -> WaitRecord:
        name, node, kind, event, edges, timed_out, dedication = shape
        return WaitRecord(name, node, kind, event, edges, start, end, timed_out, dedication)
