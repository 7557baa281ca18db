"""DepFastRaft node: election + replication, written against QuorumEvent.

The structure mirrors the paper's §3.1/§3.4 code:

* the **batcher** appends client ops to the log and waits on
  ``AndEvent(local WAL fsync, QuorumEvent(majority-1 of followers))`` —
  never on any single follower;
* followers that fall behind (because the quorum-aware framework discarded
  their messages, or because they are fail-slow) are caught up by a
  background **repair** coroutine whose waits — including disk reads of
  entries evicted from the entry cache — are off the client critical path
  (contrast with the TiDB baseline, which blocks its one thread on that
  same read);
* **election** is a QuorumCall of RequestVotes;
* every cross-node wait is a quorum wait, so the trace verifier's
  fail-slow-tolerance check passes by construction.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Generator, List, Optional, Set, Tuple

from repro.cluster.leader import (
    APPLY_COST_MS,
    BATCH_MAX_ENTRIES,
    CLIENT_OP_COST_MS,
    REPLICATION_TIMEOUT_MS,
    LeaderReplica,
    ProposalQueue,
    append_cost,
    batch_build_cost,
)
from repro.cluster.node import Node
from repro.events.base import Event
from repro.events.basic import RpcEvent, ValueEvent
from repro.events.compound import QuorumEvent
from repro.net.rpc import QuorumCall
from repro.raft.config import LEASE_DURATION_MS, VOTE_RPC_TIMEOUT_MS, RaftConfig
from repro.raft.log import RaftLog
from repro.raft.types import (
    CONF_CHANGE_OP,
    CONF_DEMOTE,
    CONF_PROMOTE,
    LogEntry,
    Role,
    entries_size,
    is_conf_change,
)
from repro.storage.durable import DurableRaftState
from repro.storage.kvstore import KvStore


class _NodeNames:
    """One node's event names, built once per node, not once per event.

    A wait's name is its node plus its code site, never a per-batch or
    per-request id: the tracer interns one wait shape per distinct name.
    """

    __slots__ = (
        "read_probe", "append_gate", "heartbeat_seen", "step_down", "repl",
    )

    def __init__(self, node_id: str):
        for site in self.__slots__:
            setattr(self, site, f"{node_id}:{site.replace('_', '-')}")


class RaftNode(LeaderReplica):
    """One member of a DepFastRaft group."""

    _main_name = "raft-main"

    def __init__(
        self,
        node: Node,
        group: List[str],
        config: Optional[RaftConfig] = None,
        rng: Optional[random.Random] = None,
        state_machine: Optional[KvStore] = None,
        durable: Optional[DurableRaftState] = None,
        state_machine_factory=None,
        endpoint=None,
    ):
        if node.node_id not in group:
            raise ValueError(f"{node.node_id} not in group {group}")
        self.node = node
        self.id = node.node_id
        self._names = _NodeNames(self.id)
        self.peers = [member for member in group if member != self.id]
        self.group = list(group)
        self.config = config or RaftConfig()
        # Voting configuration: quorums (elections, commits, read probes)
        # count voters only. Learners — group members outside this set —
        # are replicated to off the quorum path. Mutated exclusively by
        # applying replicated conf-change entries (single-server changes).
        if self.config.initial_voters is not None:
            voters = [member for member in group if member in self.config.initial_voters]
            if not voters:
                raise ValueError("initial_voters contains no group member")
            self.voting_members: Set[str] = set(voters)
        else:
            self.voting_members = set(group)
        self.conf_changes_applied = 0
        self.rng = rng or random.Random(hash(self.id) & 0xFFFF)

        self.rt = node.runtime
        # ``endpoint`` lets the fabric hand this replica a per-group view
        # of the node's endpoint (method names namespaced by group id), so
        # several Raft groups coexist on one node without RPC collisions.
        self.ep = endpoint if endpoint is not None else node.endpoint

        # Persistent state: mirrored into ``durable`` (simulated stable
        # storage) so a crash–restart can recover it. Term/vote updates are
        # persisted immediately (metadata writes); log entries only count
        # as durable once the WAL fsync covering them completes.
        self.durable = durable if durable is not None else DurableRaftState(node.node_id)
        self.state_machine_factory = state_machine_factory
        self.term = 0
        self.voted_for: Optional[str] = None
        self.role = Role.FOLLOWER if self.id in self.voting_members else Role.LEARNER
        self.leader_hint: Optional[str] = None
        self.log = RaftLog(cache_entries=self.config.entry_cache_entries, store=self.durable)
        # The replicated state machine: a plain KV store by default, or
        # any KvStore subclass (e.g. the transactional store of repro.txn).
        self.kv = state_machine if state_machine is not None else KvStore()
        self.commit_index = 0
        self.last_applied = 0
        self.recovered = False
        if self.durable.has_state():
            self._recover_from_durable()

        # Leader volatile state. ``_sent_index`` tracks stream contiguity
        # (last index sent on the direct FIFO stream, acked or not);
        # ``_match_index`` tracks acknowledgements. A follower whose acks
        # merely lag keeps receiving the direct stream; repair runs only
        # when the stream actually broke (discard, overflow, mismatch).
        self._next_index: Dict[str, int] = {}
        self._match_index: Dict[str, int] = {}
        self._sent_index: Dict[str, int] = {}
        self._repairing: Set[str] = set()
        self._catchup_promises: Dict[str, List[Tuple[int, Event]]] = {}
        # index -> (term, done): a client's promise, made while leading in term.
        self._completions: Dict[int, Tuple[int, ValueEvent]] = {}
        self.proposals = ProposalQueue(self.rt, self.id, self.config)
        self._step_down: Optional[ValueEvent] = None

        # Follower serialization + liveness.
        self._append_gate = Event(name="append-gate")
        self._append_gate.trigger()
        self._ht_event: Optional[ValueEvent] = None
        self._applying = False

        # Counters for tests/analysis.
        self.elections_started = 0
        self.became_leader = 0
        self.batches_committed = 0
        self.repairs_started = 0
        self.leadership_transfers = 0

        # Leadership transfer: set by a `timeout_now` message from the
        # current leader; the main loop runs an immediate election.
        self._election_now = False

        # Follower-side observability consumed by the fail-slow detector
        # (§5): what the leader last reported about itself, and a leader
        # this node suspects of being fail-slow (suspected leaders no
        # longer reset our election timer, so a re-election happens).
        self.last_heartbeat_at: Optional[float] = None
        self.last_leader_pending = 0
        # Peak of the reports since a consumer last reset it: the queue
        # depth is bursty at heartbeat granularity, so sampling only the
        # latest report at a coarser cadence aliases the backlog away.
        self.peak_leader_pending = 0
        self.suspected_leader: Optional[str] = None

        # Highest log index proven consistent with the current term's
        # leader (by a passed AppendEntries check). A bare heartbeat may
        # only advance commit_index up to here: beyond it this node could
        # hold a stale uncommitted tail from an older leader, and
        # committing that tail would apply the wrong entries.
        self._verified_index = 0

        # Read path (read_index / lease modes) and compaction state.
        self._lease_until = -1.0
        self.reads_served = 0
        self.read_probes = 0
        self.snapshots_taken = 0
        self.snapshots_installed = 0

        self.ep.register("append_entries", self._on_append_entries)
        self.ep.register("heartbeat", self._on_heartbeat)
        self.ep.register("request_vote", self._on_request_vote)
        self.ep.register("client_request", self._on_client_request)
        self.ep.register("read_probe", self._on_read_probe)
        self.ep.register("install_snapshot", self._on_install_snapshot)
        self.ep.register("lag_report", self._on_lag_report)
        self.ep.register("timeout_now", self._on_timeout_now)

    # ==================================================================
    # Membership
    # ==================================================================
    @property
    def majority(self) -> int:
        """Quorum size over the *voting* configuration."""
        return len(self.voting_members) // 2 + 1

    def is_voter(self, node_id: Optional[str] = None) -> bool:
        return (node_id or self.id) in self.voting_members

    def voting_peers(self) -> List[str]:
        return [peer for peer in self.peers if peer in self.voting_members]

    # ==================================================================
    # Lifecycle
    # ==================================================================
    def rebuild_on(self, node: Node, endpoint=None, **own) -> "RaftNode":
        """A fresh replica of this one's class on its rebooted ``node``.

        What survives a crash is handed over — the durable state (the
        new replica recovers from it) and the seeded rng stream, so runs
        stay reproducible; the state machine is built anew. Subclasses
        extend this with their ``own`` constructor arguments.
        """
        factory = self.state_machine_factory
        return type(self)(
            node,
            self.group,
            config=self.config,
            rng=self.rng,
            state_machine=factory() if factory else None,
            durable=self.durable,
            state_machine_factory=factory,
            endpoint=endpoint,
            **own,
        )

    def _recover_from_durable(self) -> None:
        """Crash recovery: term/vote, the snapshot, and the run up to the
        fsync watermark, which the log already reads. ``commit_index``
        restarts at the snapshot base — like real Raft, commit progress is
        re-learned from the leader (or by a no-op if this node wins).
        """
        self.recovered = True
        self.term = self.durable.term
        self.voted_for = self.durable.voted_for
        if self.durable.snapshot is not None:
            self.kv.restore_state(self.durable.snapshot)
        self.durable.recover()
        self.commit_index = self.last_applied = self.log.base_index

    def _persist_term(self) -> None:
        self.durable.save_term(self.term, self.voted_for)

    def _stage_durable(self, entries: List[LogEntry]):
        """WAL-append ``entries`` and return the fsync event to wait on.

        The durable store marks them recoverable only when the bytes are
        actually on the platter — ``on_durable`` fires at real fsync
        completion, not at acknowledgement time, so a write-behind WAL
        that acks early cannot over-report disk contents — and only if
        the process is still alive to observe it (a flush racing a crash
        did not make it to the platter).
        """
        self.node.wal.append(entries_size(entries))
        self.durable.stage_entries(entries)
        token = self.durable.begin_sync()
        return self.node.wal.sync(
            on_durable=lambda: None if self.node.crashed else self.durable.commit_sync(token)
        )

    def is_leader(self) -> bool:
        return self.role == Role.LEADER and not self.node.crashed

    def _leading(self, term: int) -> bool:
        return self.role == Role.LEADER and self.term == term and not self.rt.crashed

    def _epoch(self) -> int:
        return self.term

    def _held_index(self) -> int:
        return self.log.last_index()

    # ==================================================================
    # Main loop: follower timers, elections, leadership
    # ==================================================================
    def _main_loop(self) -> Generator:
        while not self.rt.crashed:
            if self.role == Role.LEADER:
                self._step_down = ValueEvent(name=self._names.step_down)
                yield self._step_down.wait()
                continue
            self._ht_event = ValueEvent(name=self._names.heartbeat_seen)
            result = yield self._ht_event.wait(timeout_ms=self._election_timeout())
            if self.role == Role.LEADER:
                continue
            if self._election_now:
                # Leadership transfer: the leader asked us to take over
                # without waiting out an election timeout.
                self._election_now = False
                if self.role == Role.FOLLOWER and self.is_voter():
                    yield from self._run_election()
                continue
            if result.timed_out and self.role == Role.FOLLOWER and self.is_voter():
                yield from self._run_election()
            # Learners (and demoted voters) sit out elections entirely:
            # a quiet cluster leaves them parked on the heartbeat wait.

    def _run_election(self) -> Generator:
        cfg = self.config
        if not self.is_voter():
            return  # learners never campaign
        self.role = Role.CANDIDATE
        self.term += 1
        term = self.term
        self.voted_for = self.id
        self._persist_term()
        self.elections_started += 1
        vote_peers = self.voting_peers()
        if not vote_peers:
            self._become_leader(term)
            return
        payload = {
            "term": term,
            "candidate": self.id,
            "last_index": self.log.last_index(),
            "last_term": self.log.last_term(),
        }
        call = QuorumCall(
            self.ep,
            vote_peers,
            "request_vote",
            payload,
            size_bytes=32,
            quorum=self.majority - 1,
            classify=lambda ev: bool(ev.reply.get("granted")),
            discard_on_quorum=cfg.discard_on_quorum,
            name=f"{self.id}:election@{term}",
        )
        for rpc in call.calls:
            rpc.subscribe(self._check_reply_term)
        yield call.wait(timeout_ms=VOTE_RPC_TIMEOUT_MS)
        if self.role != Role.CANDIDATE or self.term != term:
            return  # a new leader or term appeared meanwhile
        if call.event.ready():
            self._become_leader(term)
        else:
            self.role = Role.FOLLOWER  # retry after a fresh randomized timeout

    def _become_leader(self, term: int) -> None:
        self.role = Role.LEADER
        self.leader_hint = self.id
        self.became_leader += 1
        last = self.log.last_index()
        self._next_index = {peer: last + 1 for peer in self.peers}
        self._match_index = {peer: 0 for peer in self.peers}
        self._sent_index = {peer: last for peer in self.peers}
        self._repairing = set()
        self._catchup_promises = {}
        if self.log.last_index() > self.commit_index:
            # Uncommitted tail inherited from a previous term (or replayed
            # from the WAL after a crash): Raft may only commit it behind
            # an entry of the *current* term, so queue a no-op to drive
            # the commit index forward even if no client traffic arrives.
            self.proposals.admit(("noop",), ValueEvent(name=f"{self.id}:noop"), wake=False)
        self.rt.spawn(self._batcher(term), name=f"{self.id}:batcher@{term}")
        if self.peers:
            self.rt.spawn(self._heartbeat_loop(term), name=f"{self.id}:heartbeats@{term}")

    def _check_reply_term(self, rpc: RpcEvent) -> None:
        if rpc.ok and isinstance(rpc.reply, dict):
            self._observe_term(rpc.reply.get("term", 0), leader=None)

    def _observe_term(self, term: int, leader: Optional[str]) -> None:
        if term > self.term:
            self.term = term
            self.voted_for = None
            self._persist_term()
            # Consistency proven against the old term's leader says nothing
            # about the new one's log; re-prove before trusting heartbeats.
            self._verified_index = 0
            if self.role in (Role.LEADER, Role.CANDIDATE):
                # Learners stay learners: a higher term must not promote
                # a non-voting member back into the follower pool.
                self.role = Role.FOLLOWER if self.is_voter() else Role.LEARNER
                if self._step_down is not None and not self._step_down.ready():
                    self._step_down.set(True, now=self.rt.now)
        if leader is not None:
            self.leader_hint = leader

    # ==================================================================
    # Leader: batching and replication
    # ==================================================================
    def _batcher(self, term: int) -> Generator:
        cfg = self.config
        while self._leading(term):
            batch = yield from self.proposals.next_batch()
            if not batch:
                continue
            if not self._leading(term):
                self._fail_batch(batch)
                return
            first = self.log.last_index() + 1
            entries: List[LogEntry] = []
            for offset, (op, done) in enumerate(batch):
                entry = LogEntry.sized(term, first + offset, op)
                self.log.append(entry)
                entries.append(entry)
                self._completions[entry.index] = (term, done)
            last = entries[-1].index

            build_cost = batch_build_cost(len(entries), len(self.peers))
            yield self.rt.compute(build_cost, name="batch-build")
            if not self._leading(term):
                # Deposed meanwhile. Computes run in order, so only a snapshot install can
                # have cut the batch; if none did, it reaches the WAL before a newer leader's.
                if last > self.log.base_index and self.log.term_at(last) == term:
                    self._stage_durable(entries)
                self._fail_batch(batch)
                return

            # One quorum over {local durability} ∪ {voting follower acks}:
            # commit when any majority of the *voting configuration* holds
            # the batch. This is Figure 2's "2/3" wait — and it even
            # tolerates the leader's own disk being the slow member.
            # Learners receive the same entries on the same stream but
            # their acks never gate the commit.
            local_sync = self._stage_durable(entries)
            quorum = QuorumEvent(
                self.majority,
                n_total=len(self.voting_members),
                classify=self._classify_append,
                name=self._names.repl,
            )
            quorum.add(local_sync)
            for peer in self.peers:
                voter = peer in self.voting_members
                if peer not in self._repairing and self._sent_index[peer] == first - 1:
                    self._sent_index[peer] = last
                    rpc = self._send_batch_append(peer, first - 1, entries, term)
                    if voter:
                        quorum.add(rpc)
                else:
                    if voter:
                        quorum.add(self._catchup_promise(peer, last))
                    self._ensure_repair(peer, term)
            if cfg.discard_on_quorum:
                quorum.subscribe(self._discard_outstanding)
            tracer = self.rt.scheduler.tracer
            if tracer is not None and self.peers:
                # §5 trace point: quorum-arrival ranks feed the online
                # fail-slow scorer (who made the commit quorum, who
                # straggled). Pure observation — no kernel interaction.
                quorum.subscribe(
                    lambda ev, _t=tracer: _t.report_quorum_event(self.id, ev, self.rt.now)
                )

            # A give-up keeps batching: client timeouts surface the stall.
            yield from self._await_quorum(quorum, last, term)
            if not self._leading(term):
                self._fail_batch(batch)
                return
            if quorum.ready():
                yield from self._commit_batch(last)

    def _classify_append(self, child: Event) -> bool:
        if isinstance(child, RpcEvent):
            return child.ok and bool(child.reply.get("success"))
        return True  # catch-up promises only ever trigger on success

    def _discard_outstanding(self, quorum_event) -> None:
        for child in quorum_event.outstanding():
            if isinstance(child, RpcEvent) and child.cancel_send is not None:
                child.cancel_send()

    def _send_batch_append(
        self, peer: str, prev_index: int, entries: List[LogEntry], term: int
    ) -> RpcEvent:
        """Critical-path replication send from the batcher.

        Hook point for hedged variants (``repro.hedging``): they tag the
        send with a hedge group and race a duplicate copy at the link's
        latency percentile. Plain DepFastRaft never hedges — the quorum
        event already decouples the commit from stragglers.
        """
        return self._send_append(peer, prev_index, entries, term)

    def _send_append(
        self,
        peer: str,
        prev_index: int,
        entries: List[LogEntry],
        term: int,
        hedge_group: Optional[Tuple] = None,
    ) -> RpcEvent:
        payload = {
            "term": term,
            "leader": self.id,
            "prev_index": prev_index,
            "prev_term": self.log.term_at(prev_index) or 0,
            "entries": entries,
            "commit": self.commit_index,
        }
        last_sent = entries[-1].index if entries else prev_index
        rpc = self.ep.call(
            peer,
            "append_entries",
            payload,
            size_bytes=entries_size(entries) + 64,
            hedge_group=hedge_group,
        )
        rpc.subscribe(
            lambda ev, _peer=peer, _last=last_sent, _term=term: self._on_append_reply(
                _peer, ev, _last, _term
            )
        )
        return rpc

    def _on_append_reply(self, peer: str, rpc: RpcEvent, last_sent: int, term: int) -> None:
        if not self._leading(term):
            return
        if not rpc.ok:
            # Send failed outright (e.g. bounded-buffer overflow): the
            # direct stream is broken at whatever was last acked.
            self._mark_stream_broken(peer, term)
            return
        if not isinstance(rpc.reply, dict):
            return
        reply = rpc.reply
        self._observe_term(reply.get("term", 0), leader=None)
        if not self._leading(term):
            return
        if reply.get("success"):
            match = reply.get("match", last_sent)
            if match > self._match_index[peer]:
                self._match_index[peer] = match
                self._next_index[peer] = match + 1
                self._fire_catchup_promises(peer)
            elif self._next_index[peer] <= match:
                # Success below the recorded match: the peer rebooted under
                # a tripped breaker and its write-behind-acked tail never
                # hit the platter, so its log is shorter than what it acked.
                # match stays monotone (the lost tail was committed by the
                # majority), but next must follow the peer's real log or
                # repair re-sends the same already-held batch forever.
                self._next_index[peer] = match + 1
        else:
            hint = reply.get("hint", 0)
            self._next_index[peer] = max(1, min(self._next_index[peer], hint + 1))
            self._mark_stream_broken(peer, term)

    def _mark_stream_broken(self, peer: str, term: int) -> None:
        self._sent_index[peer] = min(self._sent_index[peer], self._match_index[peer])
        self._ensure_repair(peer, term)

    def _catchup_promise(self, peer: str, target_index: int) -> Event:
        promise = Event(name=f"catchup:{peer}", source=peer)
        if self._match_index.get(peer, 0) >= target_index:
            promise.trigger(self.rt.now)
        else:
            self._catchup_promises.setdefault(peer, []).append((target_index, promise))
        return promise

    def _fire_catchup_promises(self, peer: str) -> None:
        waiting = self._catchup_promises.get(peer)  # this peer's only, oldest first
        if not waiting:
            return
        match = self._match_index.get(peer, 0)
        for target, promise in waiting:
            if match >= target:
                promise.trigger(self.rt.now)
        self._catchup_promises[peer] = [entry for entry in waiting if match < entry[0]]

    # ------------------------------------------------------------------
    # Repair: background catch-up of lagging followers
    # ------------------------------------------------------------------
    def _ensure_repair(self, peer: str, term: int) -> None:
        if peer in self._repairing or not self._leading(term):
            return
        self._repairing.add(peer)
        self.repairs_started += 1
        self.rt.spawn(
            self._repair_loop(peer, term),
            name=f"{self.id}:repair:{peer}",
            dedication=peer,
        )

    def _repair_loop(self, peer: str, term: int) -> Generator:
        cfg = self.config
        try:
            while self._leading(term) and self._match_index[peer] < self.log.last_index():
                next_index = self._next_index[peer]
                if next_index <= self.log.base_index:
                    # The peer is behind the snapshot base: entry replay is
                    # impossible (those entries are compacted) — ship the
                    # snapshot instead, still only blocking this stream.
                    ok = yield from self._send_snapshot(peer, term)
                    if not ok:
                        yield self.rt.sleep(cfg.heartbeat_interval_ms)
                    continue
                last = min(self.log.last_index(), next_index + BATCH_MAX_ENTRIES - 1)
                if next_index > last:
                    break
                entries, disk_bytes, _misses = self.log.slice_cached(next_index, last)
                if disk_bytes > 0:
                    # Evicted from the entry cache: read from disk *in this
                    # coroutine only* — nothing else blocks (vs TiDB).
                    read = self.node.wal.read(disk_bytes)
                    yield read.wait()
                    if not self._leading(term):
                        return
                rpc = self._send_append(peer, next_index - 1, entries, term)
                result = yield rpc.wait(timeout_ms=REPLICATION_TIMEOUT_MS)
                if result.timed_out or not rpc.ok:
                    yield self.rt.sleep(cfg.heartbeat_interval_ms)
                    continue
                if not rpc.reply.get("success") and self._next_index[peer] >= next_index:
                    # Mismatch hint was applied by the reply handler; if it
                    # did not move us back, step back one to make progress.
                    self._next_index[peer] = max(1, next_index - 1)
        finally:
            self._repairing.discard(peer)
            # Resume the direct stream from wherever repair got the peer.
            self._sent_index[peer] = max(
                self._sent_index[peer], self._match_index[peer]
            )

    # ------------------------------------------------------------------
    # Heartbeats
    # ------------------------------------------------------------------
    def _heartbeat_loop(self, term: int) -> Generator:
        cfg = self.config
        while self._leading(term):
            if cfg.read_mode == "lease" and self.voting_peers():
                # The lease rides the heartbeat cadence: a quorum of probe
                # acks extends it from the probe's *send* time. Learner
                # acks don't count — the lease must rest on voters.
                sent_at = self.rt.now
                lease_call = QuorumCall(
                    self.ep,
                    self.voting_peers(),
                    "read_probe",
                    {"term": term, "leader": self.id},
                    size_bytes=32,
                    quorum=self.majority - 1,
                    classify=lambda ev, _t=term: ev.reply.get("term") == _t,
                    discard_on_quorum=cfg.discard_on_quorum,
                    name=f"{self.id}:lease-probe",
                )
                lease_call.event.subscribe(
                    lambda _ev, _t=sent_at, _term=term: self._extend_lease(_t, _term)
                )
            for peer in self.peers:
                self.ep.notify(
                    peer,
                    "heartbeat",
                    {
                        "term": term,
                        "leader": self.id,
                        "commit": self.commit_index,
                        # Self-reported load: how many client ops await
                        # batching. Followers' detectors read this.
                        "pending": len(self.proposals),
                    },
                    size_bytes=32,
                )
            yield self.rt.sleep(cfg.heartbeat_interval_ms)

    # ==================================================================
    # Apply
    # ==================================================================
    def _apply_entry(self, index: int) -> None:
        entry = self.log.entry_at(index)
        if is_conf_change(entry.op):
            result = self._apply_conf_change(entry.op)
        else:
            result = self.kv.apply(entry.op)
        term, done = self._completions.pop(index, (0, None))
        if done is not None and not done.ready():
            # (index, term) names one proposal: an entry a new leader put
            # at this index gets no ``ok`` from here.
            ok = term == entry.term
            done.set({"ok": True, "result": result} if ok else self._redirect(), now=self.rt.now)

    # ==================================================================
    # Membership changes and leadership transfer (mitigation actions)
    # ==================================================================
    def _apply_conf_change(self, op) -> Dict[str, Any]:
        """Apply a committed single-server membership change.

        Every replica applies the same entry at the same log position, so
        the voting configuration stays agreed. The affected node switches
        its own role (FOLLOWER <-> LEARNER) as a side effect.
        """
        _tag, action, member = op
        if member in self.group:
            if action == CONF_DEMOTE:
                self.voting_members.discard(member)
                if member == self.id and self.role in (Role.FOLLOWER, Role.CANDIDATE):
                    self.role = Role.LEARNER
            elif action == CONF_PROMOTE:
                self.voting_members.add(member)
                if member == self.id and self.role == Role.LEARNER:
                    self.role = Role.FOLLOWER
            self.conf_changes_applied += 1
        return {"conf": action, "member": member, "voters": sorted(self.voting_members)}

    def propose_conf_change(self, action: str, member: str) -> Optional[ValueEvent]:
        """Leader-only: replicate a demote/promote membership change.

        Returns the commit completion event, or None when the change is
        not proposable from here (not leader, unknown member, no-op, or
        an attempt to demote the leader itself — transfer leadership
        first).
        """
        if action not in (CONF_DEMOTE, CONF_PROMOTE):
            raise ValueError(f"unknown conf change action {action!r}")
        if self.role != Role.LEADER or member not in self.group:
            return None
        if action == CONF_DEMOTE and (
            member == self.id or member not in self.voting_members
        ):
            return None
        if action == CONF_PROMOTE and member in self.voting_members:
            return None
        done = ValueEvent(name=f"{self.id}:conf:{action}:{member}")
        self.proposals.admit((CONF_CHANGE_OP, action, member), done)
        return done

    def transfer_leadership(self, target: str) -> bool:
        """Leader-only: ask ``target`` to campaign immediately (TimeoutNow).

        The classic Raft transfer: the target skips its randomized
        election timeout and starts a normal election, whose higher term
        steps this leader down. Used by the mitigation controller to move
        leadership off a suspected fail-slow leader without waiting for
        followers to time out.
        """
        if self.role != Role.LEADER or target == self.id:
            return False
        if target not in self.peers or target not in self.voting_members:
            return False
        self.leadership_transfers += 1
        self.ep.notify(
            target, "timeout_now", {"term": self.term, "leader": self.id}, size_bytes=16
        )
        return True

    def _on_timeout_now(self, payload: Dict[str, Any], src: str) -> Generator:
        if (
            payload["term"] >= self.term
            and self.role == Role.FOLLOWER
            and self.is_voter()
        ):
            self._election_now = True
            self._poke_heartbeat()  # wake the main loop without a timeout
        yield self.rt.compute(0.01, name="timeout-now")
        return None

    # ==================================================================
    # RPC handlers
    # ==================================================================
    def _on_append_entries(self, payload: Dict[str, Any], src: str) -> Generator:
        term = payload["term"]
        if term < self.term:
            return {"term": self.term, "success": False, "hint": self.log.last_index()}
        self._observe_term(term, leader=payload["leader"])
        if payload["leader"] != self.suspected_leader:
            self._poke_heartbeat()

        # Serialize appends in arrival order: concurrent handlers chain on
        # the append gate so the log and WAL see them sequentially.
        previous_gate = self._append_gate
        my_gate = Event(name=self._names.append_gate)
        self._append_gate = my_gate
        try:
            if not previous_gate.ready():
                yield previous_gate.wait()
            entries: List[LogEntry] = payload["entries"]
            yield self.rt.compute(append_cost(len(entries)), name="append")
            if not self.log.matches(payload["prev_index"], payload["prev_term"]):
                if self.log.last_index() < payload["prev_index"]:
                    hint = self.log.last_index()
                else:
                    hint = max(0, payload["prev_index"] - 1)
                return {"term": self.term, "success": False, "hint": hint}
            changed = self.log.append_or_overwrite(entries)
            if changed > 0:
                new_entries = entries[-changed:]
                sync = self._stage_durable(new_entries)
                yield sync.wait()
            match = entries[-1].index if entries else payload["prev_index"]
            self._verified_index = max(self._verified_index, match)
            # Raft §5.3: cap at the last entry this RPC verified — the log
            # may extend further with a stale tail we must not commit.
            yield from self._advance_commit(min(payload["commit"], match))
            return {"term": self.term, "success": True, "match": match}
        finally:
            my_gate.trigger(self.rt.now)

    def _on_heartbeat(self, payload: Dict[str, Any], src: str) -> Generator:
        term = payload["term"]
        if term < self.term:
            return None
        self._observe_term(term, leader=payload["leader"])
        self.last_heartbeat_at = self.rt.now
        self.last_leader_pending = payload.get("pending", 0)
        if self.last_leader_pending > self.peak_leader_pending:
            self.peak_leader_pending = self.last_leader_pending
        if payload["leader"] != self.suspected_leader:
            self._poke_heartbeat()
        safe_commit = max(self.commit_index, self._verified_index)
        yield from self._advance_commit(min(payload["commit"], safe_commit))
        if payload["commit"] > safe_commit and self.role in (
            Role.FOLLOWER,
            Role.LEARNER,
        ):
            # The leader has committed past what we verifiably hold: ask it
            # to repair us. Without this, a follower that missed entries
            # while partitioned or rebooting never catches up in a quiet
            # cluster (nothing nacks if no new appends flow).
            self.ep.notify(
                payload["leader"],
                "lag_report",
                {"term": self.term, "last_index": safe_commit},
                size_bytes=24,
            )
        return None

    def _on_lag_report(self, payload: Dict[str, Any], src: str) -> Generator:
        self._observe_term(payload["term"], leader=None)
        if self.role == Role.LEADER and payload["term"] == self.term:
            last = payload["last_index"]
            self._next_index[src] = max(1, min(self._next_index.get(src, last + 1), last + 1))
            self._mark_stream_broken(src, self.term)
        yield self.rt.compute(0.01, name="lag-report")
        return None

    def _advance_commit(self, leader_commit: int) -> Generator:
        target = min(leader_commit, self.log.last_index())
        if target > self.commit_index:
            self.commit_index = target
        yield from self._apply_committed()

    def _on_request_vote(self, payload: Dict[str, Any], src: str) -> Generator:
        term = payload["term"]
        candidate = payload["candidate"]
        if term < self.term:
            return {"term": self.term, "granted": False}
        if candidate not in self.voting_members:
            # A demoted (or not-yet-promoted) member cannot win here, and
            # adopting its term would depose a healthy leader — reject
            # without observing the term, like pre-vote does for stale
            # rejoining nodes.
            return {"term": self.term, "granted": False}
        self._observe_term(term, leader=None)
        if not self.is_voter():
            # Learners observe terms but never grant votes: their ballot
            # must not count toward any quorum while demoted.
            yield self.rt.compute(0.02, name="vote")
            return {"term": self.term, "granted": False}
        granted = False
        if self.voted_for in (None, candidate) and self.log.up_to_date(
            payload["last_term"], payload["last_index"]
        ):
            self.voted_for = candidate
            self._persist_term()
            granted = True
            self._poke_heartbeat()  # voting resets our own election timer
        yield self.rt.compute(0.02, name="vote")
        return {"term": self.term, "granted": granted}

    def _on_client_request(self, payload: Dict[str, Any], src: str) -> Generator:
        if self.role != Role.LEADER:
            return self._redirect()
        op = payload["op"]
        if op[0] == "get" and self.config.read_mode != "log":
            result = yield from self._serve_read(op)
            return result
        yield self.rt.compute(CLIENT_OP_COST_MS, name="client-op")
        if self.role != Role.LEADER:
            return self._redirect()
        reply = yield from self.proposals.commit(op)
        return reply

    # ==================================================================
    # Linearizable reads (read_index / lease modes)
    # ==================================================================
    def _serve_read(self, op) -> Generator:
        """Serve a get from the applied state machine.

        read_index: confirm leadership with a quorum probe, then wait for
        the state machine to reach the read point. lease: skip the probe
        while the heartbeat lease is live (the simulation has one global
        clock, so the lease's bounded-clock-skew assumption holds
        exactly).
        """
        # A fresh leader's commit_index may trail entries an earlier leader
        # already acknowledged (the inherited tail). Serving a read below
        # them would be stale, so wait until an entry of our own term has
        # committed — the no-op queued at election drives this forward.
        while self.role == Role.LEADER and not (
            self.commit_index >= self.log.last_index()
            or self.log.term_at(self.commit_index) == self.term
        ):
            yield self.rt.sleep(0.5)
        if self.role != Role.LEADER:
            return self._redirect()
        # depfast: allow(DF011) — the pre-confirmation snapshot IS the
        # ReadIndex protocol (Raft §6.4): the read must wait for the index
        # the leader held *before* proving leadership, not a fresher one.
        read_index = self.commit_index
        if not (self.config.read_mode == "lease" and self.rt.now < self._lease_until):
            confirmed = yield from self._confirm_leadership()
            if not confirmed:
                return self._redirect()
        while self.last_applied < read_index and self.role == Role.LEADER:
            yield self.rt.sleep(0.5)
        if self.role != Role.LEADER:
            return self._redirect()
        yield self.rt.compute(APPLY_COST_MS, name="read")
        self.reads_served += 1
        return {"ok": True, "result": self.kv.get(op[1])}

    def _confirm_leadership(self) -> Generator:
        """One read_index round: a quorum of voters still follows this leader."""
        if not self.voting_peers():
            return True
        # depfast: allow(DF011) — ``term`` is deliberately the pre-probe
        # snapshot: _leading(term) compares it against the *current*
        # self.term, which is exactly the revalidation the rule asks for.
        term = self.term
        self.read_probes += 1
        call = QuorumCall(
            self.ep,
            self.voting_peers(),
            "read_probe",
            {"term": term, "leader": self.id},
            size_bytes=32,
            quorum=self.majority - 1,
            classify=lambda ev: ev.reply.get("term") == term,
            discard_on_quorum=self.config.discard_on_quorum,
            name=self._names.read_probe,
        )
        yield call.wait(timeout_ms=VOTE_RPC_TIMEOUT_MS)
        # depfast: allow(DF011) — ``term`` is deliberately the pre-probe
        # snapshot: _leading(term) compares it against the *current*
        # self.term, which is exactly the revalidation the rule asks for.
        return call.event.ready() and self._leading(term)

    def _on_read_probe(self, payload: Dict[str, Any], src: str) -> Generator:
        self._observe_term(payload["term"], leader=payload["leader"])
        if payload["leader"] != self.suspected_leader:
            self._poke_heartbeat()
        yield self.rt.compute(0.01, name="read-probe")
        return {"term": self.term}

    def _extend_lease(self, probe_sent_at: float, term: int) -> None:
        if self._leading(term):
            self._lease_until = max(self._lease_until, probe_sent_at + LEASE_DURATION_MS)

    # ==================================================================
    # Log compaction and snapshot install
    # ==================================================================
    def _maybe_compact(self) -> None:
        cfg = self.config
        if cfg.snapshot_threshold_entries is None:
            return
        applied_above_base = self.last_applied - self.log.base_index
        if applied_above_base < cfg.snapshot_threshold_entries:
            return
        new_base = self.last_applied - cfg.compaction_keep_entries
        if new_base <= self.log.base_index:
            return
        # Persist the snapshot in the background (a disk write sized by
        # the state machine); the in-memory log is compacted immediately.
        self.node.runtime.io.write(self.kv.estimated_bytes())
        self.log.truncate_prefix(new_base)
        self.durable.save_snapshot(
            self.log.base_index, self.log.base_term, self.kv.snapshot_state()
        )
        self.snapshots_taken += 1

    def _send_snapshot(self, peer: str, term: int) -> Generator:
        """Repair a follower that fell behind the snapshot base."""
        state = self.kv.snapshot_state()
        size = self.kv.estimated_bytes()
        payload = {
            "term": term,
            "leader": self.id,
            "last_index": self.log.base_index,
            "last_term": self.log.base_term,
            "state": state,
            "size_bytes": size,
        }
        rpc = self.ep.call(peer, "install_snapshot", payload, size_bytes=size)
        # Big transfers need a proportionate timeout.
        timeout = REPLICATION_TIMEOUT_MS + size / 100.0
        result = yield rpc.wait(timeout_ms=timeout)
        if result.timed_out or not rpc.ok or not isinstance(rpc.reply, dict):
            return False
        reply = rpc.reply
        self._observe_term(reply.get("term", 0), leader=None)
        if not self._leading(term) or not reply.get("success"):
            return False
        match = reply.get("match", self.log.base_index)
        if match > self._match_index[peer]:
            self._match_index[peer] = match
            self._next_index[peer] = match + 1
            self._fire_catchup_promises(peer)
        return True

    def _on_install_snapshot(self, payload: Dict[str, Any], src: str) -> Generator:
        term = payload["term"]
        if term < self.term:
            return {"term": self.term, "success": False}
        self._observe_term(term, leader=payload["leader"])
        if payload["leader"] != self.suspected_leader:
            self._poke_heartbeat()
        last_index = payload["last_index"]
        if last_index <= self.log.base_index:
            # Stale snapshot; we already cover it.
            return {"term": self.term, "success": True, "match": self.log.last_index()}
        # Persist the snapshot before acknowledging it.
        sync = self.node.runtime.io.write(payload["size_bytes"])
        yield sync.wait()
        self.kv.restore_state(payload["state"])
        self.log.reset_to_snapshot(last_index, payload["last_term"])
        self.durable.save_snapshot(
            last_index, payload["last_term"], self.kv.snapshot_state()
        )
        self.commit_index = max(self.commit_index, last_index)
        self.last_applied = last_index
        self._verified_index = max(self._verified_index, last_index)
        self.snapshots_installed += 1
        return {"term": self.term, "success": True, "match": last_index}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<RaftNode {self.id} {self.role.value} term={self.term} "
            f"log={self.log.last_index()} commit={self.commit_index}>"
        )
