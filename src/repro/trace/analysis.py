"""Quantitative slowness analysis over wait traces.

Attribution model: a wait's time is charged to the *last* sources the
waiter was blocked on. For a quorum wait the waiter proceeded at the k-th
trigger, so slow stragglers beyond the quorum charge nothing — which is
precisely why QuorumEvent bounds the impact radius of a fail-slow node,
and why the same analysis run over a baseline trace shows the slow node
dominating everyone's wait time.

Wait-time breakdowns (§5: "providing more observability through the event
interface"): since every suspension is a traced event, a node's latency
profile decomposes exactly into its wait kinds — quorum (replication),
disk, CPU queueing, timers — with no extra instrumentation.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.trace.records import WaitRecord, wait_log

_NODE, _KIND, _EVENT = 1, 2, 3  # fields of a wait shape


def _tally(
    records: Iterable[WaitRecord], field: int, node: Optional[str] = None
) -> Dict[str, Tuple[int, float]]:
    """(wait count, total wait ms) per value of one shape field, over the
    waits of ``node`` (every node's if None)."""
    tally: Dict[str, Tuple[int, float]] = {}
    for shape, count, total in wait_log(records).by_shape():
        if node is None or shape[_NODE] == node:
            seen, summed = tally.get(shape[field], (0, 0.0))
            tally[shape[field]] = (seen + count, summed + total)
    return tally


def wait_time_by_kind(records: Iterable[WaitRecord]) -> Dict[str, float]:
    """Total wait milliseconds per event kind."""
    return {kind: total for kind, (_count, total) in _tally(records, _KIND).items()}


def slowness_attribution(
    records: Iterable[WaitRecord], node: Optional[str] = None
) -> Dict[str, float]:
    """Wait milliseconds charged to each remote peer.

    ``node`` restricts to waits performed *by* that node; None aggregates
    the whole cluster. Each record's wait time is split evenly across its
    remote edge sources (for a quorum wait, the members it was actually
    gated on).
    """
    charges: Dict[str, float] = {}
    for (_coro, waiter, _kind, _event, edges, *_), _count, total in wait_log(records).by_shape():
        if node is not None and waiter != node:
            continue
        remote_sources = [src for src, _k, _n in edges if src != waiter]
        for source in remote_sources:
            charges[source] = charges.get(source, 0.0) + total / len(remote_sources)
    return charges


def propagation_ratio(
    records: Iterable[WaitRecord], slow_node: str, waiter: str
) -> float:
    """Fraction of ``waiter``'s inter-node wait time charged to ``slow_node``.

    Near 0 means the slow node's slowness did not propagate to the waiter;
    near 1 means the waiter spent essentially all its remote waiting on the
    slow node.
    """
    charges = slowness_attribution(records, node=waiter)
    total = sum(charges.values())
    if total == 0.0:
        return 0.0
    return charges.get(slow_node, 0.0) / total


def mean_wait_ms(records: Iterable[WaitRecord], kind: Optional[str] = None) -> float:
    """Average wait duration, optionally restricted to one event kind."""
    by_kind = _tally(records, _KIND)
    rows = by_kind.values() if kind is None else [by_kind.get(kind, (0, 0.0))]
    count = sum(seen for seen, _total in rows)
    return sum(total for _seen, total in rows) / count if count else 0.0


def node_wait_breakdown(
    records: Iterable[WaitRecord], node: str
) -> Dict[str, Tuple[float, float]]:
    """Per event kind: (total wait ms, share of the node's total waiting).

    Sleeps/heartbeat timers are idle time, not latency, so callers often
    drop the "timer" row; it is reported for completeness.
    """
    by_kind = _tally(records, _KIND, node)
    grand_total = sum(total for _count, total in by_kind.values())
    if grand_total == 0.0:
        return {}
    return {
        kind: (total, total / grand_total) for kind, (_count, total) in sorted(by_kind.items())
    }


def busiest_waits(
    records: Iterable[WaitRecord], node: str, top: int = 5
) -> List[Tuple[str, int, float]]:
    """The node's hottest wait points: (event name, count, total ms)."""
    by_name = _tally(records, _EVENT, node)
    ranked = sorted(by_name.items(), key=lambda item: item[1][1], reverse=True)
    return [(name, count, total) for name, (count, total) in ranked[:top]]


def render_breakdown(records: Iterable[WaitRecord], node: str) -> str:
    """Human-readable wait profile for one node."""
    log = wait_log(records)
    breakdown = node_wait_breakdown(log, node)
    lines = [f"wait profile of {node}:"]
    if not breakdown:
        lines.append("  (no recorded waits)")
        return "\n".join(lines)
    for kind, (total, share) in sorted(breakdown.items(), key=lambda row: row[1][0], reverse=True):
        lines.append(f"  {kind:<12} {total:>12.1f} ms  ({share * 100:5.1f}%)")
    lines.append("hottest wait points:")
    for name, count, total in busiest_waits(log, node):
        lines.append(f"  {name:<40} x{count:<7} {total:>12.1f} ms")
    return "\n".join(lines)
