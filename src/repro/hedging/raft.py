"""HedgedRaft: hedged AppendEntries fan-out + speculative leader reads.

Two insertions of the racing bet into DepFastRaft, both safety-neutral:

* **Hedged replication.** Every batcher AppendEntries send is tagged with
  a hedge group; if the follower has not acked by that link's latency
  percentile, the leader races a duplicate copy on the same stream. The
  duplicate is *not* added to the commit quorum — original and copy come
  from the same replica, and counting both would let one follower's two
  acks masquerade as a majority. Instead the copy rides the normal
  ``_on_append_reply`` path, advancing ``match_index`` sooner (or not at
  all: on a FIFO connection behind a sustained-slow NIC the copy queues
  behind the original, which is precisely the re-coupling the benchmark
  matrix measures). The follower's endpoint deduplicates the group, so
  the WAL/CPU cost of the append is paid at most once per copy delivered.

* **Speculative reads.** The base read_index path serializes probe
  round-trip, then apply-wait. The hedged variant starts a *hedged*
  leadership probe (preferred = currently-fastest voter, hedge to the
  rest) and speculatively reads the value as soon as the state machine
  reaches the read point — concurrently with the in-flight probe. The
  reply is released only after the probe confirms leadership at the
  speculation term; otherwise the speculated value is rolled back
  (discarded, client redirected). Linearizability is unchanged: the read
  index is captured before the probe, and probe success proves no other
  leader could have committed past it in the interim.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.leader import APPLY_COST_MS
from repro.cluster.node import Node, NodeSpec
from repro.events.basic import RpcEvent
from repro.hedging.estimator import HedgeDelayEstimator
from repro.hedging.hedge import HedgedCall, HedgePolicy
from repro.raft.config import VOTE_RPC_TIMEOUT_MS, RaftConfig
from repro.raft.node import RaftNode
from repro.raft.service import deploy_depfast_raft
from repro.raft.types import LogEntry, Role


class HedgedRaftNode(RaftNode):
    """A RaftNode that races duplicates where the base class waits."""

    def __init__(
        self,
        *raft_args,
        hedge_policy: Optional[HedgePolicy] = None,
        estimator: Optional[HedgeDelayEstimator] = None,
        **raft_kwargs,
    ):
        """Everything :class:`RaftNode` takes, plus the two hedging arguments."""
        super().__init__(*raft_args, **raft_kwargs)
        self.hedge_policy = hedge_policy or HedgePolicy()
        self.estimator = estimator
        self._hedge_seq = 0
        # Counters for tests/benchmarks: duplicate-work amplification is
        # (append_primaries + append_hedges) / append_primaries.
        self.append_primaries = 0
        self.append_hedges = 0
        self.hedges_by_peer: Dict[str, int] = {}
        self.probe_hedges = 0
        self.speculative_reads = 0
        self.speculation_rollbacks = 0

    def rebuild_on(self, node: Node, endpoint=None) -> "HedgedRaftNode":
        """Restart keeps the racing: same policy, same shared estimator."""
        return super().rebuild_on(
            node, endpoint, hedge_policy=self.hedge_policy, estimator=self.estimator
        )

    # ==================================================================
    # Hedged AppendEntries fan-out
    # ==================================================================
    def _hedge_delay_ms(self, peer: str) -> float:
        if self.estimator is None:
            return self.hedge_policy.default_delay_ms
        return self.estimator.delay_ms(self.id, peer)

    def _send_batch_append(
        self, peer: str, prev_index: int, entries: List[LogEntry], term: int
    ) -> RpcEvent:
        if self.hedge_policy.max_hedges < 1 or not entries:
            return self._send_append(peer, prev_index, entries, term)
        self._hedge_seq += 1
        group = (self.id, "append", peer, self._hedge_seq)
        rpc = self._send_append(peer, prev_index, entries, term, hedge_group=group)
        self.append_primaries += 1
        if not rpc.ready():  # an instant send-buffer failure leaves nothing to race
            self._arm_append_hedge(
                rpc, peer, prev_index, entries, term, group, attempt=1
            )
        return rpc

    def _arm_append_hedge(
        self,
        rpc: RpcEvent,
        peer: str,
        prev_index: int,
        entries: List[LogEntry],
        term: int,
        group: Tuple,
        attempt: int,
    ) -> None:
        self.rt.kernel.schedule(
            self._hedge_delay_ms(peer),
            self._maybe_hedge_append,
            rpc,
            peer,
            prev_index,
            entries,
            term,
            group,
            attempt,
        )

    def _maybe_hedge_append(
        self,
        rpc: RpcEvent,
        peer: str,
        prev_index: int,
        entries: List[LogEntry],
        term: int,
        group: Tuple,
        attempt: int,
    ) -> None:
        if rpc.ready() or not self._leading(term):
            return
        handle = rpc.cancel_send
        if handle is not None and getattr(handle, "called", False):
            # The quorum-discard framework already cancelled this send:
            # the commit went through without this follower, so racing a
            # copy would only re-introduce the work the discard saved.
            return
        last = entries[-1].index
        if self._match_index.get(peer, 0) >= last:
            return  # acked through another path (repair) in the meantime
        if peer in self._repairing:
            return  # the repair coroutine owns this stream now
        self.append_hedges += 1
        self.hedges_by_peer[peer] = self.hedges_by_peer.get(peer, 0) + 1
        hedge = self._send_append(peer, prev_index, entries, term, hedge_group=group)
        if attempt < self.hedge_policy.max_hedges and not hedge.ready():
            self._arm_append_hedge(
                hedge, peer, prev_index, entries, term, group, attempt + 1
            )

    # ==================================================================
    # Speculative linearizable reads
    # ==================================================================
    def _probe_preference_order(self) -> List[str]:
        peers = self.voting_peers()
        if self.estimator is None:
            return peers
        # Probe the currently-fastest voters first; the slow one only
        # sees probes as hedges. Deterministic: estimator state is pure
        # simulation state, ties break on node id.
        return sorted(
            peers, key=lambda peer: (self.estimator.delay_ms(self.id, peer), peer)
        )

    def _start_hedged_probe(self, term: int) -> Optional[HedgedCall]:
        peers = self._probe_preference_order()
        needed = self.majority - 1
        if not peers or needed < 1:
            return None
        self.read_probes += 1
        return HedgedCall(
            self.ep,
            peers,
            "read_probe",
            {"term": term, "leader": self.id},
            size_bytes=32,
            quorum=needed,
            classify=lambda ev: isinstance(ev.reply, dict)
            and ev.reply.get("term") == term,
            policy=self.hedge_policy,
            estimator=self.estimator,
            name=f"{self.id}:read-probe-hedged",
        )

    def _serve_read(self, op):
        # Same own-term-commit guard as the base class (a fresh leader
        # must not serve below an earlier leader's acknowledged tail).
        while self.role == Role.LEADER and not (
            self.commit_index >= self.log.last_index()
            or self.log.term_at(self.commit_index) == self.term
        ):
            yield self.rt.sleep(0.5)
        if self.role != Role.LEADER:
            return self._redirect()
        term = self.term
        read_index = self.commit_index
        probe: Optional[HedgedCall] = None
        if not (self.config.read_mode == "lease" and self.rt.now < self._lease_until):
            probe = self._start_hedged_probe(term)
        # Speculation: reach the read point and compute the result while
        # the probe is still in flight (the base class serializes the
        # probe round-trip before the apply wait).
        while self.last_applied < read_index and self.role == Role.LEADER:
            yield self.rt.sleep(0.5)
        if self.role != Role.LEADER:
            return self._redirect()
        yield self.rt.compute(APPLY_COST_MS, name="read")
        value = self.kv.get(op[1])
        if probe is not None:
            self.speculative_reads += 1
            if not probe.event.ready():
                yield probe.wait(timeout_ms=VOTE_RPC_TIMEOUT_MS)
            self.probe_hedges += probe.hedges_sent
            if not (probe.event.ready() and self._leading(term)):
                # Rollback-on-term-change: the speculated value is
                # discarded, never released to the client.
                self.speculation_rollbacks += 1
                return self._redirect()
        elif not self._leading(term):
            self.speculation_rollbacks += 1
            return self._redirect()
        self.reads_served += 1
        return {"ok": True, "result": value}


def deploy_hedged_raft(
    cluster: Cluster,
    group: List[str],
    config: Optional[RaftConfig] = None,
    spec: Optional[NodeSpec] = None,
    state_machine_factory=None,
    policy: Optional[HedgePolicy] = None,
    estimator: Optional[HedgeDelayEstimator] = None,
) -> Dict[str, HedgedRaftNode]:
    """Create and start one HedgedRaft group through
    :func:`repro.raft.service.deploy_depfast_raft`.

    One shared :class:`HedgeDelayEstimator` is attached to the cluster
    tracer for the whole group — every node's hedge delays draw from the
    same per-link percentile state the fail-slow scorer sees. Pass
    ``config=RaftConfig(discard_on_quorum=False)`` and an unbounded
    ``spec`` to get pure hedged-Raft (racing *instead of* quorum
    discards); defaults give hedged+DepFast (racing *on top of* them).
    """
    if len(group) % 2 == 0:
        raise ValueError(f"group size must be odd, got {len(group)}")
    policy = policy or HedgePolicy()
    if estimator is None:
        estimator = policy.make_estimator().attach(cluster.tracer)
    return deploy_depfast_raft(
        cluster,
        group,
        config,
        spec,
        state_machine_factory,
        node_cls=HedgedRaftNode,
        hedge_policy=policy,
        estimator=estimator,
    )
