"""Key → shard routing."""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List


class ShardMap:
    """Static hash partitioning of the keyspace over named shards."""

    def __init__(self, shards: Dict[str, List[str]]):
        """``shards`` maps shard name → replica group (node ids)."""
        if not shards:
            raise ValueError("need at least one shard")
        self.shards = dict(shards)
        self._order = sorted(shards)

    def shard_names(self) -> List[str]:
        return list(self._order)

    def group_of(self, shard: str) -> List[str]:
        return list(self.shards[shard])

    def shard_for(self, key: str) -> str:
        """The shard owning ``key``, by SHA-256 digest prefix.

        Not Python's ``hash()``, which is salted per process: the digest
        keeps routing identical across runs, file orders, and interpreter
        restarts.
        """
        digest = hashlib.sha256(key.encode()).digest()
        return self._order[int.from_bytes(digest[:4], "big") % len(self._order)]

    def split_by_shard(self, keys: Iterable[str]) -> Dict[str, List[str]]:
        """Group keys by owning shard (only shards that own keys appear)."""
        grouped: Dict[str, List[str]] = {}
        for key in keys:
            grouped.setdefault(self.shard_for(key), []).append(key)
        return grouped

    def all_groups(self) -> Dict[str, List[str]]:
        return {name: list(group) for name, group in self.shards.items()}
