"""Static ↔ runtime SPG differ.

The static analysis predicts *edge classes* (color × scope × dedicated);
the runtime trace produces *concrete edges* (waiter node → source node,
colored by the per-edge ``k < n`` rule). The differ lines the two up:

* a runtime edge is **predicted** when some static edge class covers it —
  same color, and the same scope (``group`` / ``xgroup`` / ``boundary``,
  decided by :func:`repro.trace.verify.scoped_edges`, the rule the
  tolerance verdict uses too);
* runtime edges with no covering class are **runtime-only** — waits the
  scanner could not see (dynamic dispatch, reflection, unresolved shapes);
* static edge classes never exercised by the trace are **static-only** —
  dead wait sites or scenarios the workload did not reach.

``coverage`` (predicted / total distinct runtime edges) is the
verification story's own metric: how much of what the tracer observed the
linter could have told you before running anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from repro.analysis.static_spg import GREEN, RED, StaticEdge, StaticSpg
from repro.trace.records import WaitRecord, wait_log
from repro.trace.verify import memberships, scoped_edges


@dataclass(frozen=True)
class RuntimeEdge:
    """One distinct observed (waiter, source, color) triple."""

    src: str
    dst: str
    color: str
    scope: str  # "group" | "boundary" | "xgroup"
    dedicated: bool


@dataclass
class SpgDiff:
    predicted: List[Tuple[RuntimeEdge, StaticEdge]] = field(default_factory=list)
    runtime_only: List[RuntimeEdge] = field(default_factory=list)
    static_only: List[StaticEdge] = field(default_factory=list)

    @property
    def coverage(self) -> float:
        total = len(self.predicted) + len(self.runtime_only)
        if total == 0:
            return 1.0
        return len(self.predicted) / total

    def render(self) -> str:
        lines = [
            "static<->runtime SPG diff: "
            f"{len(self.predicted)} predicted, "
            f"{len(self.runtime_only)} runtime-only, "
            f"{len(self.static_only)} static-only "
            f"(coverage {self.coverage:.0%})"
        ]
        for edge, site in sorted(
            self.predicted, key=lambda pair: (pair[0].src, pair[0].dst)
        ):
            lines.append(
                f"   ok {edge.src} -> {edge.dst} [{edge.color}] "
                f"predicted by {site.path}:{site.lineno} ({site.qualname})"
            )
        for edge in sorted(self.runtime_only, key=lambda e: (e.src, e.dst)):
            lines.append(
                f" MISS {edge.src} -> {edge.dst} [{edge.color}] {edge.scope}: "
                "observed at runtime, not predicted statically"
            )
        for site in sorted(self.static_only, key=lambda s: (s.path, s.lineno)):
            lines.append(
                f" idle {site.path}:{site.lineno} [{site.color}] {site.scope}: "
                "predicted statically, never observed in this trace"
            )
        return "\n".join(lines)


def _runtime_edges(
    records: Iterable[WaitRecord], groups: Sequence[Sequence[str]]
) -> List[RuntimeEdge]:
    membership = memberships(groups)
    ordered: Dict[RuntimeEdge, None] = {}
    for shape, _count, _total in wait_log(records).by_shape():
        _coro, node, _kind, _event, edges, _timed_out, dedication = shape
        if node is None:
            continue
        for source, k, n, scope in scoped_edges(node, edges, membership):
            color = GREEN if k < n else RED
            ordered[RuntimeEdge(node, source, color, scope, dedication == source)] = None
    return list(ordered)


def diff_spg(
    static: StaticSpg,
    records: Iterable[WaitRecord],
    groups: Sequence[Sequence[str]],
) -> SpgDiff:
    """Match every distinct runtime inter-node edge against the static
    prediction. ``groups`` uses the same shape as
    :func:`repro.trace.verify.check_fail_slow_tolerance`."""
    diff = SpgDiff()
    used: Set[StaticEdge] = set()
    for edge in _runtime_edges(records, groups):
        candidates = static.matching(
            edge.color, edge.scope, include_dedicated=True
        )
        # A dedicated runtime wait should be explained by a dedicated site
        # when one exists; a non-dedicated wait must not lean on one.
        if not edge.dedicated:
            candidates = [c for c in candidates if not c.dedicated]
        if candidates:
            chosen = sorted(candidates, key=lambda c: (c.path, c.lineno))[0]
            used.update(candidates)
            diff.predicted.append((edge, chosen))
        else:
            diff.runtime_only.append(edge)
    diff.static_only = [edge for edge in static.edges if edge not in used]
    return diff
