"""The leader pipeline, written once for every replicated state machine.

A leader's request path is the same whatever it replicates: admit a
client op, wake the batcher, cut a batch, replicate it behind one quorum
wait, apply what committed and answer the client. Raft and Multi-Paxos
differ only in their epoch (term or ballot), in what the quorum waits on
and in where a completion is keyed; the fixed-leader baselines differ
only in their replication wait. This module holds what is the same:

* the cost model and the pipeline's constants, charged to every
  replicated system (Raft, Paxos, the baselines and chain replication);
* :class:`LeaderConfig` — the options the pipeline reads, the whole of
  ``PaxosConfig`` and the base of ``RaftConfig``;
* :class:`ProposalQueue` — admission, the client's commit wait and the
  batch cut, used by every leader (Raft, Paxos and the baselines);
* :class:`LeaderReplica` — the base of ``RaftNode`` and ``PaxosNode``:
  start, the election-timeout draw, the heartbeat poke, the late-quorum
  wait, commit and apply, and the redirect a replica answers with when it
  does not lead.

Each protocol supplies ``_epoch``, ``_leading``, ``_held_index``,
``_apply_entry``, ``_main_loop`` and its repair loop, with the
``_ensure_repair`` that spawns it kept next to the loop: the linter's call
graph resolves ``self.`` calls up the class hierarchy only, so a
dedicated spawn written here would reach no override and the repair loop
would stop counting as dedicated.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, Generator, List, Optional, Tuple

from repro.events.basic import ValueEvent

# The CPU cost model (CPU-ms on the node's, possibly throttled, CPU): one
# price list for every system, so Figures 1 and 3 compare wait structures,
# not costs. Calibrated so a healthy 3-node group serves ~5K requests/s
# with the leader around 60–75% CPU — the paper's operating point.
CLIENT_OP_COST_MS = 0.45  # admission + request execution
APPEND_BASE_COST_MS = 0.05  # per append (Accept) message processed
APPEND_ENTRY_COST_MS = 0.02  # per entry appended at a follower
APPLY_COST_MS = 0.06  # per entry applied to the KV (or read from it)
REPLICATE_ENTRY_COST_MS = 0.01  # per entry serialized per peer

BATCH_MAX_ENTRIES = 64  # a batch cut, and a repair round's entries
REPLICATION_TIMEOUT_MS = 500.0  # one append / Accept RPC, one late-quorum round


def batch_build_cost(entries: int, peers: int) -> float:
    """A leader's cost to build a batch and serialize it for every replica."""
    return APPEND_BASE_COST_MS + entries * REPLICATE_ENTRY_COST_MS * (1 + peers)


def append_cost(entries: int) -> float:
    """A follower's cost to process one append of ``entries``."""
    return APPEND_BASE_COST_MS + APPEND_ENTRY_COST_MS * entries


@dataclass
class LeaderConfig:
    """The pipeline's options, in virtual ms: every other value is a constant."""

    heartbeat_interval_ms: float = 100.0
    election_timeout_min_ms: float = 1200.0
    election_timeout_max_ms: float = 2400.0
    client_commit_timeout_ms: float = 3000.0
    discard_on_quorum: bool = True  # cancel sends the quorum no longer needs
    # A short first election timeout for this node, so the group elects a
    # deterministic initial leader (the paper measures a stable leader).
    preferred_leader: Optional[str] = None

    def __post_init__(self) -> None:
        if self.election_timeout_min_ms > self.election_timeout_max_ms:
            raise ValueError("election timeout min > max")
        if self.heartbeat_interval_ms >= self.election_timeout_min_ms:
            raise ValueError("heartbeats must be faster than election timeouts")


Proposal = Tuple[Any, ValueEvent]  # (op, the client's completion)


class ProposalQueue:
    """Client ops waiting for a leader's batcher, oldest first.

    ``config`` is read for ``heartbeat_interval_ms`` (the longest an idle
    batcher sleeps before re-checking its loop condition) and
    ``client_commit_timeout_ms``.
    """

    __slots__ = ("rt", "config", "_ops", "_signal", "_source", "_pending_name", "_commit_name")

    def __init__(self, rt, node_id: str, config) -> None:
        self.rt = rt
        self.config = config
        self._ops: Deque[Proposal] = deque()
        self._signal: Optional[ValueEvent] = None
        self._source = node_id
        self._pending_name = f"{node_id}:pending"
        self._commit_name = f"{node_id}:commit-wait"

    def __len__(self) -> int:
        return len(self._ops)

    def admit(self, op, done: ValueEvent, wake: bool = True) -> None:
        """Queue ``op``; ``done`` gets its reply. ``wake=False`` is for an op
        queued before its batcher starts (which finds it without a wake)."""
        self._ops.append((op, done))
        if wake and self._signal is not None and not self._signal.ready():
            self._signal.set(True, now=self.rt.now)

    def commit(self, op) -> Generator:
        """Admit ``op`` and wait for its reply, or for the client timeout."""
        done = ValueEvent(name=self._commit_name, source=self._source)
        self.admit(op, done)
        result = yield done.wait(timeout_ms=self.config.client_commit_timeout_ms)
        if result.timed_out:
            return {"ok": False, "redirect": None}
        return done.value

    def next_batch(self) -> Generator:
        """The next batch of up to ``BATCH_MAX_ENTRIES`` proposals; empty
        when none arrived within one heartbeat interval."""
        ops = self._ops
        if not ops:
            self._signal = ValueEvent(name=self._pending_name)
            yield self._signal.wait(timeout_ms=self.config.heartbeat_interval_ms)
        batch: List[Proposal] = []
        while ops and len(batch) < BATCH_MAX_ENTRIES:
            batch.append(ops.popleft())
        return batch


class LeaderReplica:
    """What a Raft and a Multi-Paxos replica share, written once.

    A subclass sets ``node``, ``id``, ``peers``, ``config``, ``rng``,
    ``rt``, ``leader_hint``, ``commit_index``, ``last_applied``,
    ``batches_committed``, ``_applying``, ``_ht_event`` and (while it
    leads) ``_match_index``, and supplies the protocol's own methods named
    in the module docstring.
    """

    _main_name: str  # the main loop's coroutine is "<id>:<_main_name>"

    def start(self) -> None:
        self.node.start()
        self.rt.spawn(self._main_loop(), name=f"{self.id}:{self._main_name}")

    def _election_timeout(self) -> float:
        cfg = self.config
        if cfg.preferred_leader == self.id and self._epoch() == 0:
            # Deterministic first election: the preferred node times out
            # first and wins before anyone else stirs.
            return 10.0 + self.rng.uniform(0.0, 5.0)
        return cfg.election_timeout_min_ms + self.rng.uniform(
            0.0, cfg.election_timeout_max_ms - cfg.election_timeout_min_ms
        )

    def _poke_heartbeat(self) -> None:
        if self._ht_event is not None and not self._ht_event.ready():
            self._ht_event.set(True, now=self.rt.now)

    def _await_quorum(self, quorum, last: int, epoch: int) -> Generator:
        """Wait for a batch's commit ``quorum``; while it is late, push repair
        at every peer not yet matched through ``last``.

        Returns False when it gave up after 40 late waits, True once the
        quorum fired or leadership was lost; what a give-up means is the
        caller's policy.
        """
        yield quorum.wait(timeout_ms=REPLICATION_TIMEOUT_MS)
        stalls = 0
        while not quorum.ready() and self._leading(epoch):
            for peer in self.peers:
                if self._match_index[peer] < last:
                    self._ensure_repair(peer, epoch)
            yield quorum.wait(timeout_ms=REPLICATION_TIMEOUT_MS)
            stalls += 1
            if stalls > 40:
                return False
        return True

    def _commit_batch(self, last: int) -> Generator:
        self.commit_index = max(self.commit_index, last)
        self.batches_committed += 1
        yield from self._apply_committed()

    def _apply_committed(self) -> Generator:
        if self._applying:
            return
        self._applying = True
        try:
            while self.last_applied < self.commit_index:
                # commit_index may run ahead of what this replica holds (a
                # snapshot install learned a higher commit point than the
                # entries present): apply only what is held and let the
                # next append/repair resume the rest.
                take = min(
                    self.commit_index - self.last_applied,
                    self._held_index() - self.last_applied,
                    128,
                )
                if take <= 0:
                    break
                yield self.rt.compute(take * APPLY_COST_MS, name="apply")
                for _ in range(take):
                    # A snapshot install during the compute yield may have
                    # jumped last_applied forward and truncated the log.
                    if (
                        self.last_applied >= self.commit_index
                        or self.last_applied >= self._held_index()
                    ):
                        break
                    self.last_applied += 1
                    self._apply_entry(self.last_applied)
            self._maybe_compact()
        finally:
            self._applying = False

    def _maybe_compact(self) -> None:
        """Hook run after each apply pass: a replica that compacts its log does it here."""

    def _redirect(self) -> Dict[str, Any]:
        return {"ok": False, "redirect": self.leader_hint}

    def _fail_batch(self, batch: List[Proposal]) -> None:
        for _op, done in batch:
            if not done.ready():
                done.set(self._redirect(), now=self.rt.now)
