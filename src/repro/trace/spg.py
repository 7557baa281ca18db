"""Slowness propagation graphs (Figure 2).

The SPG aggregates a run's wait shapes (:meth:`WaitLog.by_shape`) into a
node-granularity digraph. Each directed edge ``A → B`` means "a coroutine
on A waited for something B was supposed to produce". Edge color encodes
the wait type exactly as in the paper: a wait on a basic event contributes
a **red** edge (a single fail-slow source stalls the waiter), a wait on a
QuorumEvent contributes a **green** edge (the waiter tolerates a slow
minority). Labels are the ``k/n`` quorum of the wait.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.trace.records import WaitRecord, wait_log


class SpgEdge:
    """Aggregated waiting-for relation between two nodes."""

    __slots__ = ("src", "dst", "color", "label_counts", "count", "total_wait_ms")

    def __init__(self, src: str, dst: str, color: str):
        self.src = src
        self.dst = dst
        self.color = color
        self.label_counts: Dict[str, int] = {}
        self.count = 0
        self.total_wait_ms = 0.0

    @property
    def quorum_label(self) -> str:
        """The dominant quorum shape between this pair of nodes.

        One pair can carry waits of several shapes (election rounds vs
        replication); the figure labels the edge with the most frequent.
        """
        if not self.label_counts:
            return "?"
        return max(self.label_counts.items(), key=lambda item: item[1])[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SpgEdge {self.src}->{self.dst} {self.color} "
            f"{self.quorum_label} x{self.count}>"
        )


class _Edges(dict):
    """``(src, dst) -> data`` in insertion order; called, the ``(src, dst, data)`` list."""

    def __call__(self, data: bool = True) -> List[Tuple[str, str, dict]]:
        return [(src, dst, attrs) for (src, dst), attrs in self.items()]


class Spg:
    """A small digraph: nodes in insertion order, one data dict per edge."""

    def __init__(self) -> None:
        self.nodes: Dict[str, None] = {}
        self.edges = _Edges()

    def add_node(self, node: str) -> None:
        self.nodes[node] = None

    def add_edge(self, src: str, dst: str, **data) -> None:
        self.nodes[src] = self.nodes[dst] = None
        self.edges[(src, dst)] = data

    def has_node(self, node: str) -> bool:
        return node in self.nodes

    def number_of_nodes(self) -> int:
        return len(self.nodes)

    def number_of_edges(self) -> int:
        return len(self.edges)


def _edge_color(k: int, n: int) -> str:
    """Green iff the wait tolerates at least one slow source.

    The decision is purely per-edge: ``wait_edges()`` already pushed each
    event's quorum shape down to its edges (a QuorumEvent stamps its own
    k/n on every child edge; And/Or pass grandchildren's shapes through
    recursively), so ``k < n`` on the edge *is* the slack. Classifying by
    the top-level ``event_kind`` instead would mis-color nested compounds
    — e.g. a tight k==n quorum, or a basic event seen through an AndEvent
    — because the top-level kind says nothing about which child an edge
    came from.
    """
    return "green" if k < n else "red"


def build_spg(records: Iterable[WaitRecord]) -> Spg:
    """Aggregate wait records into the node-granularity SPG.

    Vertices are nodes (servers and clients); each directed edge carries:
    ``color`` ('green'/'red'), ``label`` ('k/n'), ``count`` (number of
    waits aggregated) and ``total_wait_ms``.

    Parallel waits with different quorum shapes between the same pair are
    merged conservatively: a single red wait makes the pair's edge red,
    since one single-event wait is enough to propagate slowness.
    """
    edges: Dict[Tuple[str, str], SpgEdge] = {}
    graph = Spg()
    for (_coro, node, _kind, _event, wait_edges, *_), count, total in wait_log(records).by_shape():
        if node is None:
            continue
        graph.add_node(node)
        for source, k, n in wait_edges:
            if source == node:
                continue  # local waits (disk, CPU, timers) are not SPG edges
            graph.add_node(source)
            color = _edge_color(k, n)
            edge = edges.get((node, source))
            if edge is None:
                edge = edges[(node, source)] = SpgEdge(node, source, color)
            elif color == "red":
                # One single-event wait is enough to propagate slowness:
                # red dominates when shapes are mixed.
                edge.color = "red"
            label = f"{k}/{n}"
            edge.label_counts[label] = edge.label_counts.get(label, 0) + count
            edge.count += count
            edge.total_wait_ms += total
    # Edges go in grouped by waiter, waiters in first-seen order: readers
    # that sum floats over ``edges(data=True)`` keep the order they had.
    rank = {node: index for index, node in enumerate(graph.nodes)}
    for (src, dst), edge in sorted(edges.items(), key=lambda item: rank[item[0][0]]):
        label, count, total = edge.quorum_label, edge.count, edge.total_wait_ms
        graph.add_edge(src, dst, color=edge.color, label=label, count=count, total_wait_ms=total)
    return graph


def single_wait_edges(graph: Spg) -> List[Tuple[str, str]]:
    """The red edges: places where one fail-slow node stalls another."""
    return [(src, dst) for src, dst, data in graph.edges(data=True) if data["color"] == "red"]


def quorum_edges(graph: Spg) -> List[Tuple[str, str]]:
    return [(src, dst) for src, dst, data in graph.edges(data=True) if data["color"] == "green"]


def render_spg(graph: Spg) -> str:
    """ASCII rendering of the SPG, one edge per line, red edges flagged."""
    lines = ["SPG: {} nodes, {} edges".format(graph.number_of_nodes(), graph.number_of_edges())]
    for src, dst, data in sorted(graph.edges(data=True)):
        marker = "!" if data["color"] == "red" else " "
        lines.append(
            f" {marker} {src} -> {dst}  [{data['color']:>5}] {data['label']:>5}  "
            f"waits={data['count']} total={data['total_wait_ms']:.1f}ms"
        )
    return "\n".join(lines)
