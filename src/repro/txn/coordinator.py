"""The 2PC coordinator, written with nested DepFast events.

The coordinator fans prepare records out to every involved shard and waits
on the §3.2-style nested condition: an OrEvent of "all shards voted yes"
and "any shard voted no" — so a single no aborts immediately instead of
waiting out the stragglers, and a timeout aborts conservatively (presumed
abort). Each per-shard vote is itself delivered by a small driver
coroutine that handles leader redirects, and each shard's vote commits
through that shard's majority quorum — fail-slow minorities inside shards
never stall the transaction.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.cluster.node import Node
from repro.events.basic import ValueEvent
from repro.events.compound import OrEvent, QuorumEvent
from repro.txn.shard_map import ShardMap
from repro.workload.driver import KvServiceClient


class TxnOutcome:
    """Result of one distributed transaction."""

    __slots__ = ("txn_id", "committed", "reason", "shards", "latency_ms")

    def __init__(self, txn_id: str, committed: bool, reason: str, shards: List[str], latency_ms: float):
        self.txn_id = txn_id
        self.committed = committed
        self.reason = reason
        self.shards = shards
        self.latency_ms = latency_ms

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        verdict = "COMMIT" if self.committed else f"ABORT({self.reason})"
        return f"<Txn {self.txn_id} {verdict} shards={self.shards} {self.latency_ms:.2f}ms>"


class TxnCoordinator:
    """Drives cross-shard transactions from one (client) node."""

    def __init__(
        self,
        node: Node,
        shard_map: ShardMap,
        prepare_timeout_ms: float = 4000.0,
        request_timeout_ms: float = 1500.0,
        client_factory: Optional[Callable[[str], KvServiceClient]] = None,
        race_votes: bool = True,
    ):
        self.node = node
        self.shard_map = shard_map
        self.prepare_timeout_ms = prepare_timeout_ms
        # DepFast programming support on/off for the prepare phase.
        # True: the §3.2 nested OrEvent race (all-yes vs any-no) — one
        # "no" aborts without out-waiting stragglers. False: the naive
        # baseline every 2PC tutorial writes — wait each shard's vote in
        # turn, a chain of solo waits where the slowest shard gates even
        # *learning* another shard's answer (the paper's red edges).
        self.race_votes = race_votes
        # One redirect-following client per shard, reused across txns so
        # leader hints persist. ``client_factory`` lets the fabric router
        # share its per-group clients (namespaced RPC methods, shared
        # leader cache) instead of the bare ``client_request`` default.
        if client_factory is None:
            def client_factory(shard: str) -> KvServiceClient:
                return KvServiceClient(
                    node,
                    shard_map.group_of(shard),
                    request_timeout_ms=request_timeout_ms,
                )
        self._clients: Dict[str, KvServiceClient] = {
            shard: client_factory(shard) for shard in shard_map.shard_names()
        }
        # Per-coordinator txn ids: a process-global counter would leak
        # unrelated earlier runs into the id *length*, which flows into
        # wire payload sizes and would break golden trace hashes.
        self._next_txn = 0
        self.committed = 0
        self.aborted = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def transact(self, writes: Dict[str, Any]) -> Generator:
        """Generator: atomically write ``writes`` across shards.

        Returns a :class:`TxnOutcome`.
        """
        if not writes:
            raise ValueError("empty transaction")
        started = self.node.runtime.now
        self._next_txn += 1
        txn_id = f"{self.node.node_id}-{self._next_txn}"
        by_shard = self._writes_by_shard(writes)
        shards = sorted(by_shard)

        # ---- Phase 1: prepare, with first-no early abort --------------
        votes: List[ValueEvent] = []
        for shard in shards:
            vote = ValueEvent(name=f"vote:{shard}", source=self._clients[shard]._leader_hint)
            votes.append(vote)
            payload = ("txn_prepare", txn_id, tuple(sorted(by_shard[shard].items())))
            self.node.runtime.spawn(
                self._drive_shard_op(shard, payload, vote),
                name=f"{self.node.node_id}:prepare:{shard}",
            )
        if self.race_votes:
            # depfast: allow(DF005) — 2PC semantics: commit needs every
            # shard's yes, so k == n is forced. The OrEvent below with
            # any_no (1 of n) restores the early-out: one no aborts
            # without waiting for all.
            all_yes = QuorumEvent(
                len(shards),
                n_total=len(shards),
                classify=lambda ev: ev.value[0],
                name=f"{self.node.node_id}:all-yes",
            )
            any_no = QuorumEvent(
                1,
                n_total=len(shards),
                classify=lambda ev: not ev.value[0],
                name=f"{self.node.node_id}:any-no",
            )
            for vote in votes:
                all_yes.add(vote)
                any_no.add(vote)
            outcome = OrEvent(all_yes, any_no, name=f"{self.node.node_id}:prepare-outcome")
            yield outcome.wait(timeout_ms=self.prepare_timeout_ms)
            all_voted_yes = all_yes.ready()
            saw_no = any_no.ready()
        else:
            # Naive 2PC (programming support off): one solo wait per
            # shard, in shard order. A straggling shard's vote gates even
            # learning the next shard's answer, and a "no" from a later
            # shard is only discovered after out-waiting every earlier
            # one — the coupling the OrEvent race above removes.
            deadline = started + self.prepare_timeout_ms
            for vote in votes:
                remaining = deadline - self.node.runtime.now
                if remaining <= 0:
                    break
                yield vote.wait(timeout_ms=remaining)
            all_voted_yes = all(
                vote.ready() and vote.value[0] for vote in votes
            )
            saw_no = any(
                vote.ready() and not vote.value[0] for vote in votes
            )

        if not all_voted_yes:
            # Abort: a shard said no, or the prepare round timed out.
            reason = "voted-no" if saw_no else "prepare-timeout"
            yield from self._finish(txn_id, shards, commit=False)
            self.aborted += 1
            return TxnOutcome(txn_id, False, reason, shards, self.node.runtime.now - started)

        # ---- Phase 2: commit everywhere -------------------------------
        yield from self._finish(txn_id, shards, commit=True)
        self.committed += 1
        return TxnOutcome(txn_id, True, "committed", shards, self.node.runtime.now - started)

    def get(self, key: str) -> Generator:
        """Linearizable single-key read through the owning shard's log."""
        shard = self.shard_map.shard_for(key)
        ok, result = yield from self._clients[shard].execute(("get", key), size_bytes=64)
        return ok, result

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _writes_by_shard(self, writes: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
        grouped: Dict[str, Dict[str, Any]] = {}
        for key, value in writes.items():
            grouped.setdefault(self.shard_map.shard_for(key), {})[key] = value
        return grouped

    def _drive_shard_op(self, shard: str, op: Tuple, done: ValueEvent) -> Generator:
        """Submit one replicated record to a shard; completes ``done``.

        ``done.value`` is ``(accepted: bool, detail)`` where ``accepted``
        means the record committed in the shard's log *and* (for
        prepares) the state machine voted yes.
        """
        size = 64 + sum(len(str(part)) for part in op)
        ok, result = yield from self._clients[shard].execute(op, size_bytes=size)
        if not done.ready():
            if not ok or result is None:
                done.set((False, "shard-unreachable"), now=self.node.runtime.now)
            else:
                done.set((result[0] == "yes" or op[0] != "txn_prepare", result))

    def _finish(self, txn_id: str, shards: List[str], commit: bool) -> Generator:
        """Phase 2: replicate commit/abort records on every shard.

        Commits wait for every shard's record to be durable (the client
        must not read-miss its own writes); aborts are also awaited so
        locks are released before the coroutine returns.
        """
        record = ("txn_commit", txn_id) if commit else ("txn_abort", txn_id)
        acks: List[ValueEvent] = []
        for shard in shards:
            ack = ValueEvent(name=f"ack:{shard}")
            acks.append(ack)
            self.node.runtime.spawn(
                self._drive_shard_op(shard, record, ack),
                name=f"{self.node.node_id}:{record[0]}:{shard}",
            )
        # depfast: allow(DF005) — phase 2 must reach every shard (locks are
        # only released on delivery); the timeout below bounds the wait.
        all_acked = QuorumEvent(len(acks), n_total=len(acks), name=f"{self.node.node_id}:phase2")
        for ack in acks:
            all_acked.add(ack)
        yield all_acked.wait(timeout_ms=self.prepare_timeout_ms)
