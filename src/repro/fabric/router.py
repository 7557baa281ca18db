"""The fabric's client-facing tier: routing, leader caching, 2PC.

:class:`FabricRouter` lives on a client node and owns one
redirect-following :class:`~repro.workload.driver.KvServiceClient` per
group, each speaking that group's namespaced ``client_request`` method.
Leader hints are cached per group and persist across operations (and are
shared with the 2PC coordinator, which reuses the same clients), so the
router learns each group's leader once and load spreads over the pool as
the striped preferred leaders do. Per-group route counters and latency
recorders make the fabric experiments' per-group throughput/P99 tables a
read-off rather than a re-derivation.

Cross-shard writes go through :class:`~repro.txn.coordinator.TxnCoordinator`
layered directly over the Raft groups: prepares fan out to each involved
group's leader, every group's vote commits through that group's majority
quorum, and the coordinator's all-yes/any-no OrEvent race keeps a single
"no" from waiting out stragglers.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional

from repro.cluster.cluster import Cluster
from repro.cluster.node import Node
from repro.sim.metrics import LatencyRecorder
from repro.storage.kvstore import KvOp
from repro.trace.linearize import HistoryRecorder
from repro.txn.coordinator import TxnCoordinator, TxnOutcome
from repro.txn.shard_map import ShardMap
from repro.workload.driver import KvServiceClient


class FabricRouter:
    """Routes single-key ops and cross-shard txns to fabric groups."""

    def __init__(
        self,
        node: Node,
        shard_map: ShardMap,
        request_timeout_ms: float = 1500.0,
        prepare_timeout_ms: float = 4000.0,
        max_attempts: Optional[int] = None,
        history: Optional[HistoryRecorder] = None,
        race_votes: bool = True,
    ):
        self.node = node
        self.shard_map = shard_map
        # History is recorded here (one logical interval per routed op),
        # not inside the shared per-group clients: the 2PC coordinator
        # reuses those clients for prepare/commit records, which are not
        # client-visible KV operations and must not pollute the history.
        self.history = history
        self.clients: Dict[str, KvServiceClient] = {
            group_id: KvServiceClient(
                node,
                shard_map.group_of(group_id),
                request_timeout_ms=request_timeout_ms,
                max_attempts=max_attempts,
                method=f"{group_id}/client_request",
            )
            for group_id in shard_map.shard_names()
        }
        self.coordinator = TxnCoordinator(
            node,
            shard_map,
            prepare_timeout_ms=prepare_timeout_ms,
            request_timeout_ms=request_timeout_ms,
            client_factory=lambda group_id: self.clients[group_id],
            race_votes=race_votes,
        )
        self.routed: Dict[str, int] = {gid: 0 for gid in shard_map.shard_names()}
        self.recorders: Dict[str, LatencyRecorder] = {
            gid: LatencyRecorder(f"fabric:{gid}")
            for gid in shard_map.shard_names()
        }
        self.txn_recorder = LatencyRecorder("fabric:txn")
        self.errors = 0

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def group_for(self, key: str) -> str:
        return self.shard_map.shard_for(key)

    def execute(
        self, op: KvOp, size_bytes: int = 64, client_id: Optional[str] = None
    ) -> Generator:
        """Route one single-key operation to its owning group.

        Returns ``(ok, result)``. The latency lands in the owning group's
        recorder, so per-group tails stay separable under faults.
        """
        group_id = self.group_for(op[1])
        client = self.clients[group_id]
        runtime = self.node.runtime
        op_id = None
        if self.history is not None:
            op_id = self.history.invoke(
                client_id or self.node.node_id, op, runtime.now
            )
        started = runtime.now
        ok, result = yield from client.execute(op, size_bytes)
        self.routed[group_id] += 1
        if ok:
            self.recorders[group_id].record(runtime.now, runtime.now - started)
            if self.history is not None:
                self.history.complete(op_id, result, runtime.now)
        else:
            self.errors += 1
            if self.history is not None:
                # Exhausted retries: the op may or may not have applied.
                self.history.abandon(op_id)
        return ok, result

    def get(self, key: str, client_id: Optional[str] = None) -> Generator:
        ok, result = yield from self.execute(("get", key), client_id=client_id)
        return ok, result

    def put(
        self, key: str, value: Any, client_id: Optional[str] = None
    ) -> Generator:
        size = 64 + len(str(value))
        ok, result = yield from self.execute(
            ("put", key, value), size_bytes=size, client_id=client_id
        )
        return ok, result

    def transact(self, writes: Dict[str, Any]) -> Generator:
        """Atomically write ``writes`` (2PC across the owning groups)."""
        runtime = self.node.runtime
        outcome: TxnOutcome = yield from self.coordinator.transact(writes)
        if outcome.committed:
            self.txn_recorder.record(runtime.now, outcome.latency_ms)
        return outcome

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    def group_stats(
        self, window_start: float = 0.0, window_end: float = float("inf")
    ) -> Dict[str, Dict[str, float]]:
        """Per-group completions / p50 / p99 inside a time window."""
        stats: Dict[str, Dict[str, float]] = {}
        for group_id in sorted(self.recorders):
            recorder = self.recorders[group_id]
            samples = recorder.in_window(window_start, window_end)
            stats[group_id] = {
                "completed": float(len(samples)),
                "p50_ms": recorder.percentile(50, window_start, window_end),
                "p99_ms": recorder.percentile(99, window_start, window_end),
            }
        return stats


class FabricLoadDriver:
    """Closed-loop clients driving mixed fabric traffic through a router.

    Each simulated client draws from its own seeded rng stream: mostly
    single-key gets/puts routed by key, plus (with probability
    ``cross_txn_ratio``) a multi-key 2PC transaction whose keys are
    forced onto at least two distinct groups — the workload knob the
    coupling experiments sweep.
    """

    def __init__(
        self,
        cluster: Cluster,
        router: FabricRouter,
        n_clients: int = 16,
        n_keys: int = 200,
        write_ratio: float = 0.5,
        cross_txn_ratio: float = 0.0,
        txn_span: int = 2,
        think_time_ms: float = 0.0,
        pin_clients: bool = False,
        key_fn=None,
    ):
        if n_clients < 1:
            raise ValueError("need at least one client")
        if txn_span < 2:
            raise ValueError("cross-shard transactions span >= 2 keys")
        self.cluster = cluster
        self.router = router
        self.n_clients = n_clients
        self.n_keys = n_keys
        self.write_ratio = write_ratio
        self.cross_txn_ratio = cross_txn_ratio
        self.txn_span = txn_span
        self.think_time_ms = think_time_ms
        # Pinned clients draw their single-key ops from one home group
        # (client i -> group i mod N). With pinning on, a fault in one
        # group cannot starve another group's clients through closed-loop
        # head-of-line blocking — cross-shard transactions become the
        # *only* inter-group coupling channel, which is exactly the
        # variable the fabric matrix isolates.
        self.pin_clients = pin_clients
        if key_fn is None:
            # One string per key for the whole run, not a new one per op.
            width = len(str(n_keys - 1))
            key_fn = [f"key{index:0{width}d}" for index in range(n_keys)].__getitem__
        self.key_fn = key_fn
        self.completed = 0
        self.errors = 0
        self.txns_committed = 0
        self.txns_aborted = 0
        self._stopped = False
        self._seq = 0
        self._group_keys: Dict[str, List[int]] = {
            gid: [] for gid in router.shard_map.shard_names()
        }
        for index in range(n_keys):
            self._group_keys[router.group_for(self.key_fn(index))].append(index)

    def _home_group(self, client_index: int) -> Optional[str]:
        if not self.pin_clients:
            return None
        order = self.router.shard_map.shard_names()
        home = order[client_index % len(order)]
        # A group that owns no keys can't pin (possible under skewed
        # range splits); those clients fall back to the full pool.
        return home if self._group_keys[home] else None

    def _draw_key(self, rng, home: Optional[str]) -> str:
        if home is None:
            return self.key_fn(rng.randrange(self.n_keys))
        pool = self._group_keys[home]
        return self.key_fn(pool[rng.randrange(len(pool))])

    def start(self) -> None:
        stagger_rng = self.cluster.rng.stream("fabric-client-stagger")
        runtime = self.router.node.runtime
        for index in range(self.n_clients):
            rng = self.cluster.rng.stream(f"fabric-client-{index}")
            delay = stagger_rng.uniform(0.0, 20.0)
            runtime.spawn(
                self._client_loop(
                    f"fc{index}", rng, delay, self._home_group(index)
                ),
                name=f"fabric-client-{index}",
            )

    def stop(self) -> None:
        self._stopped = True

    # ------------------------------------------------------------------
    # Client behaviour
    # ------------------------------------------------------------------
    def _pick_cross_keys(self, rng, home: Optional[str]) -> List[str]:
        """``txn_span`` distinct keys covering >= 2 groups (seeded draw).

        A pinned client anchors the first key in its home group — its
        transactions always *start* locally and reach out, matching how a
        partition-affine application would issue them.
        """
        keys = [self._draw_key(rng, home)]
        anchor = self.router.group_for(keys[0])
        for _ in range(64):
            if len(keys) == self.txn_span:
                break
            key = self.key_fn(rng.randrange(self.n_keys))
            if key in keys:
                continue
            # The second key must leave the first key's group so the
            # transaction really is cross-shard; later keys land anywhere.
            if len(keys) == 1 and self.router.group_for(key) == anchor:
                continue
            keys.append(key)
        return keys

    def _client_loop(
        self,
        client_id: str,
        rng,
        initial_delay_ms: float,
        home: Optional[str] = None,
    ) -> Generator:
        runtime = self.router.node.runtime
        if initial_delay_ms > 0:
            yield runtime.sleep(initial_delay_ms)
        while not self._stopped:
            if rng.random() < self.cross_txn_ratio:
                keys = self._pick_cross_keys(rng, home)
                self._seq += 1
                writes = {key: f"{client_id}.t{self._seq}" for key in keys}
                outcome = yield from self.router.transact(writes)
                if outcome.committed:
                    self.txns_committed += 1
                else:
                    self.txns_aborted += 1
            else:
                key = self._draw_key(rng, home)
                if rng.random() < self.write_ratio:
                    self._seq += 1
                    op: KvOp = ("put", key, f"{client_id}.{self._seq}")
                else:
                    op = ("get", key)
                ok, _result = yield from self.router.execute(
                    op, client_id=client_id
                )
                if ok:
                    self.completed += 1
                else:
                    self.errors += 1
            if self.think_time_ms > 0:
                yield runtime.sleep(self.think_time_ms)
