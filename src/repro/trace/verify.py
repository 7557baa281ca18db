"""The fail-slow tolerance checker.

Implements the paper's code-level definition (§3.1): *"we define code that
only uses QuorumEvent and has no other waiting points as fail-slow
fault-tolerant code"* — operationally, every **inter-node wait inside a
replica group** must go through a quorum that tolerates at least one slow
member (k < n). Waits crossing group boundaries (client → leader) are
allowed but reported, because they are exactly the residual red edges of
Figure 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.trace.records import WaitRecord, wait_log


def memberships(groups: Sequence[Sequence[str]]) -> Dict[str, frozenset]:
    """Each node's set of replica-group indices (a fabric node hosts several)."""
    member_of: Dict[str, set] = {}
    for index, members in enumerate(groups):
        for member in members:
            member_of.setdefault(member, set()).add(index)
    return {node: frozenset(indices) for node, indices in member_of.items()}


def scoped_edges(
    node: str, edges, membership: Dict[str, frozenset]
) -> List[Tuple[str, int, int, str]]:
    """One wait's remote edges as ``(source, k, n, scope)``: the one "same group" rule.

    ``group`` when waiter and source share a replica group; ``xgroup`` when
    both are grouped but disjoint, or when the wait fans into two disjoint
    groups at once (a 2PC prepare racing several shards' votes, even from an
    ungrouped client); otherwise ``boundary``.
    """
    empty: frozenset = frozenset()
    remote = [(source, k, n) for source, k, n in edges if source != node]
    reached = [membership.get(source, empty) for source, _k, _n in remote]
    spans = any(a and b and not (a & b) for i, a in enumerate(reached) for b in reached[i + 1 :])
    waiter = membership.get(node, empty)
    scoped = []
    for (source, k, n), theirs in zip(remote, reached):
        if waiter & theirs:
            scope = "group"
        elif (waiter and theirs) or spans:
            scope = "xgroup"
        else:
            scope = "boundary"
        scoped.append((source, k, n, scope))
    return scoped


@dataclass
class Violation:
    """One code site (wait shape) whose ``count`` waits on ``source`` break the
    property (one per reason, should one wait's edges to a source disagree on k/n)."""

    shape: tuple
    source: str
    reason: str
    count: int = 0


@dataclass
class ToleranceReport:
    """Outcome of checking a trace against the tolerance property."""

    violations: List[Violation]
    boundary_waits: Dict[Tuple[str, str], int]  # (waiter, source) -> waits
    checked_waits: int
    dedicated_waits: int = 0

    @property
    def tolerant(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "PASS" if self.tolerant else "FAIL"
        lines = [
            f"fail-slow tolerance: {status} "
            f"({self.checked_waits} inter-node waits checked, "
            f"{sum(violation.count for violation in self.violations)} violations, "
            f"{sum(self.boundary_waits.values())} group-boundary waits, "
            f"{self.dedicated_waits} dedicated-stream waits)"
        ]
        for violation in self.violations[:20]:
            _coro, node, _kind, event = violation.shape[:4]
            lines.append(
                f"  VIOLATION {node} -> {violation.source}: "
                f"{violation.reason} (event {event!r}) x{violation.count}"
            )
        return "\n".join(lines)


def check_fail_slow_tolerance(
    records: Iterable[WaitRecord],
    groups: Sequence[Sequence[str]],
) -> ToleranceReport:
    """Check every inter-node wait against the quorum-only rule.

    ``groups`` lists the replica groups (e.g. ``[["s1","s2","s3"]]``).
    Within a group, a wait must satisfy k < n — waiting on *all* members
    (k == n), or on a single member (1/1 basic event), propagates any one
    member's slowness. Between groups (clients, cross-shard), waits are
    counted in ``boundary_waits`` rather than flagged.
    """
    membership = memberships(groups)
    for node, indices in membership.items():
        if len(indices) > 1:
            raise ValueError(f"node {node!r} appears in two groups")

    violations: Dict[tuple, Violation] = {}
    boundary: Dict[Tuple[str, str], int] = {}
    checked = 0
    dedicated = 0
    for shape, count, _total in wait_log(records).by_shape():
        _coro, node, kind, _event, edges, _timed_out, dedication = shape
        if node is None:
            continue
        for source, k, n, scope in scoped_edges(node, edges, membership):
            checked += count
            if scope != "group":
                boundary[(node, source)] = boundary.get((node, source), 0) + count
            elif dedication == source:
                # A per-peer maintenance stream (e.g. log repair) waiting
                # on its own peer: the slowness it absorbs affects only
                # work done on that peer's behalf.
                dedicated += count
            elif k >= n or kind not in ("quorum", "and", "or"):
                # And/Or records carry their grandchildren's k/n: nested
                # quorum slack survives composition.
                if kind == "quorum":
                    reason = f"quorum wait requires all members ({k}/{n})"
                else:
                    reason = f"single-event wait ({kind}, {k}/{n})"
                key = (shape, source, reason)
                violations.setdefault(key, Violation(shape, source, reason)).count += count
    return ToleranceReport(list(violations.values()), boundary, checked, dedicated)
