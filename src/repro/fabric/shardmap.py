"""Deterministic key → group routing for the fabric.

Both partitioners implement the :class:`repro.txn.shard_map.ShardMap`
interface (``shard_names`` / ``group_of`` / ``shard_for`` /
``split_by_shard`` / ``all_groups``), so the 2PC coordinator layers over
fabric groups exactly as it does over bare shards. "Shard" and "group"
are the same thing here: one Raft group owns one partition.

Routing must be a pure function of the key and the map — never of
iteration order, insertion order, or the process's hash seed — because
every routed key decides which group's log (and so which trace events)
the operation lands in, and the golden-trace determinism harness hashes
those events.
"""

from __future__ import annotations

import bisect
from typing import Dict, List

from repro.txn.shard_map import ShardMap


class FabricShardMap(ShardMap):
    """Base class: a ShardMap whose shards are Raft groups."""

    def describe(self) -> str:
        raise NotImplementedError


class HashShardMap(FabricShardMap):
    """SHA-256 hash partitioning over the sorted group names.

    Routing is the inherited :meth:`ShardMap.shard_for`.
    """

    def describe(self) -> str:
        return f"hash over {len(self._order)} groups"


class RangeShardMap(FabricShardMap):
    """Range partitioning with explicit split points.

    With groups ``g0 < g1 < ... < g(n-1)`` (sorted name order) and split
    points ``p0 < p1 < ... < p(n-2)``, group ``g0`` owns ``[-inf, p0)``,
    ``gi`` owns ``[p(i-1), pi)`` and the last group owns
    ``[p(n-2), +inf)``. Half-open intervals over the full key space give
    total coverage with no overlap by construction.
    """

    def __init__(self, shards: Dict[str, List[str]], split_points: List[str]):
        super().__init__(shards)
        if len(split_points) != len(self._order) - 1:
            raise ValueError(
                f"{len(self._order)} groups need {len(self._order) - 1} "
                f"split points, got {len(split_points)}"
            )
        for left, right in zip(split_points, split_points[1:]):
            if left >= right:
                raise ValueError(
                    f"split points must be strictly increasing: "
                    f"{left!r} >= {right!r}"
                )
        self.split_points = list(split_points)

    def shard_for(self, key: str) -> str:
        return self._order[bisect.bisect_right(self.split_points, key)]

    def range_of(self, shard: str) -> tuple:
        """The half-open ``[low, high)`` interval a group owns (None = open)."""
        index = self._order.index(shard)
        low = self.split_points[index - 1] if index > 0 else None
        high = (
            self.split_points[index]
            if index < len(self.split_points)
            else None
        )
        return (low, high)

    def describe(self) -> str:
        return (
            f"range over {len(self._order)} groups, "
            f"splits={self.split_points}"
        )


def even_split_points(n_groups: int, n_keys: int, prefix: str = "key") -> List[str]:
    """Split points that spread ``prefix0..prefix(n_keys-1)`` evenly.

    Keys are compared as strings, so the generator zero-pads the numeric
    suffix to make lexicographic order match numeric order.
    """
    if n_groups < 2:
        return []
    width = len(str(n_keys - 1))
    step = n_keys / n_groups
    return [
        f"{prefix}{int(step * index):0{width}d}" for index in range(1, n_groups)
    ]


def padded_key(index: int, n_keys: int, prefix: str = "key") -> str:
    """The zero-padded key name matching :func:`even_split_points`."""
    width = len(str(n_keys - 1))
    return f"{prefix}{index:0{width}d}"
