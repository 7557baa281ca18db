"""The YCSB-like operation generator.

The paper's measurement workload is update-only over 500K records
("we focus on writes because a write involves a majority of nodes"), so
``update_fraction`` defaults to 1.0; mixes are supported for the examples
and extension experiments.
"""

from __future__ import annotations

import random
from typing import Dict, Tuple

from repro.storage.kvstore import KvOp
from repro.workload.distributions import UniformKeys, ZipfianKeys, key_name


class YcsbWorkload:
    """Generates (operation, request_size_bytes) pairs."""

    def __init__(
        self,
        rng: random.Random,
        record_count: int = 500_000,
        value_size: int = 100,
        update_fraction: float = 1.0,
        distribution: str = "zipfian",
    ):
        if not 0 <= update_fraction <= 1:
            raise ValueError("update fraction must be in [0, 1]")
        if value_size < 1:
            raise ValueError("value size must be positive")
        self.rng = rng
        self.record_count = record_count
        self.value_size = value_size
        self.update_fraction = update_fraction
        if distribution == "zipfian":
            self._keys = ZipfianKeys(record_count, rng)
        elif distribution == "uniform":
            self._keys = UniformKeys(record_count, rng)
        else:
            raise ValueError(f"unknown distribution {distribution!r}")
        self.generated = 0
        # rank -> key name, filled as ranks are drawn: one string per key
        # for the whole run, not a new one per operation.
        self._key_names: Dict[int, str] = {}

    def next_op(self) -> Tuple[KvOp, int]:
        """One operation plus its request payload size in bytes."""
        self.generated += 1
        rank = self._keys.next_rank()
        key = self._key_names.get(rank)
        if key is None:
            key = self._key_names[rank] = key_name(rank)
        if self.rng.random() < self.update_fraction:
            value = f"v{self.generated}".ljust(self.value_size, "x")
            return ("put", key, value), self.value_size + len(key)
        return ("get", key), len(key)
