"""Online auto-mitigation: act on fail-slow scores, don't just report them.

The paper's §5 sketches the loop this module closes: trace points feed
failure detectors, and detected failure modes get mitigation procedures
"specific to the detected failure modes". The controller combines three
actions over one Raft group:

* **Leadership transfer** — when follower-side detectors suspect the
  leader of being fail-slow, ask the healthiest voting follower (by
  link score) to campaign immediately (TimeoutNow), instead of waiting
  for election timeouts to expire naturally.
* **Learner demotion** — a follower whose link from the leader stays
  SUSPECT for ``demote_after_windows`` consecutive windows is demoted to a
  non-voting learner through the replicated conf-change path: it keeps
  replicating (and keeps producing RTT samples) but can never sit on a
  quorum again. Crashed nodes are demoted the same way so a rebooted
  replica re-enters the quorum only through probation.
* **Recovery probation** — a demoted node must look healthy for
  ``probation_windows`` consecutive windows before the controller
  promotes it back to a voter and clears any standing leader suspicion
  against it. A flapping node that turns slow again mid-probation has
  its counter reset — it stays a learner until it holds a full healthy
  streak.
* **Disk circuit-breaking** — the health signal
  (:mod:`repro.detector.signal`) separates disk-slow from link-slow
  suspects: a node whose *own fsync* trace points are inflated gets its
  write-behind WAL breaker tripped (:mod:`repro.breaker.write_behind`)
  instead of being demoted — acks come from memory while the sick disk
  trickle-drains, and the group quorum still guarantees majority
  persistence. The breaker is released (queue fast-drained, real fsyncs
  resume) after the disk holds a healthy streak through probation.

The controller runs as a seeded-deterministic kernel timer (like the
chaos Nemesis): every decision is a pure function of simulation state at
tick time, so mitigation runs replay bit-identically.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.breaker.attribution import AttributionConfig, DiskAttributor
from repro.breaker.write_behind import BreakerState, CircuitBreakerWal
from repro.cluster.cluster import Cluster
from repro.detector.leader_detector import LeaderSlownessDetector
from repro.detector.scoring import ScoringConfig, SlownessScorer
from repro.detector.signal import DISK, HealthSignal, PeerHealth, Streak, Suspect, link
from repro.raft.service import find_leader
from repro.raft.types import CONF_DEMOTE, CONF_PROMOTE

# Consecutive ticks a leader suspicion must stand (with the suspect
# still leading) before the controller forces a transfer; the
# detector's own heartbeat-ignore path usually wins the race.
TRANSFER_GRACE_WINDOWS = 2
# Windows a node's disk must stay SUSPECT before its breaker trips: the
# signal's own hysteresis has already held the verdict back.
TRIP_AFTER_WINDOWS = 1


@dataclass
class MitigationConfig:
    # Scoring window cadence (virtual ms between controller ticks).
    window_ms: float = 500.0
    scoring: ScoringConfig = field(default_factory=ScoringConfig)
    attribution: AttributionConfig = field(default_factory=AttributionConfig)
    # Windows a peer's link must stay SUSPECT before demotion.
    demote_after_windows: int = 2
    # Never demote below this many voters (None = majority of the full
    # group, the smallest configuration that keeps the group's original
    # fault tolerance story meaningful).
    min_voters: Optional[int] = None
    # Consecutive healthy windows a demoted node needs to rejoin.
    probation_windows: int = 6
    # Consecutive disk-healthy windows (probe fsyncs look clean) before a
    # tripped breaker is released back onto the real disk.
    breaker_probation_windows: int = 4


class NodeStatus(enum.Enum):
    VOTER = "voter"
    SUSPECT = "suspect"          # link flagged; counting toward demotion
    DEMOTING = "demoting"        # demote proposed, not yet applied
    PROBATION = "probation"      # learner; counting healthy windows
    PROMOTING = "promoting"      # promote proposed, not yet applied


@dataclass
class MitigationAction:
    at: float
    kind: str     # "transfer" | "demote" | "promote" | "breaker_trip" | "breaker_release"
    node: str
    detail: str = ""


class MitigationController:
    """Rolls the health signal every window and enacts mitigations on one Raft group."""

    def __init__(
        self,
        cluster: Cluster,
        raft_nodes: Dict[str, object],
        detectors: Optional[Sequence[LeaderSlownessDetector]] = None,
        config: Optional[MitigationConfig] = None,
    ):
        self.cluster = cluster
        self.raft_nodes = raft_nodes  # mutated in place by restarts
        self.detectors = list(detectors) if detectors else []
        self.config = config or MitigationConfig()
        # One table, rolled links first, then disks.
        self.signal = HealthSignal(
            SlownessScorer(cluster.tracer, self.config.scoring),
            DiskAttributor(cluster.tracer, self.config.attribution),
        )
        self.group = sorted(raft_nodes)
        if self.config.min_voters is None:
            self.min_voters = len(self.group) // 2 + 1
        else:
            self.min_voters = self.config.min_voters
        self.status: Dict[str, NodeStatus] = {
            node_id: NodeStatus.VOTER for node_id in self.group
        }
        self.actions: List[MitigationAction] = []
        self.transfers = 0
        self.demotions = 0
        self.promotions = 0
        self.breaker_trips = 0
        self.breaker_releases = 0
        # Consecutive windows toward each decision, per node: suspect
        # windows before acting (demote / trip / transfer), healthy
        # windows before undoing it (promote / release).
        self._demote_run = Streak()
        self._promote_run = Streak()
        self._trip_run = Streak()
        self._release_run = Streak()
        self._transfer_run = Streak()
        self._started = False
        self._stopped = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            raise RuntimeError("controller already started")
        self._started = True
        self.cluster.kernel.schedule(self.config.window_ms, self._tick)

    def stop(self) -> None:
        self._stopped = True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def first_detection_at(self) -> Optional[float]:
        """Earliest suspicion from any source (detectors or the signal)."""
        times: List[Optional[float]] = [
            suspicion.at
            for detector in self.detectors
            for suspicion in detector.suspicions
        ]
        times.append(self.signal.first_suspected_at())
        return min((at for at in times if at is not None), default=None)

    def first_action_at(self, kinds: Optional[Tuple[str, ...]] = None) -> Optional[float]:
        times = [
            action.at
            for action in self.actions
            if kinds is None or action.kind in kinds
        ]
        return min(times) if times else None

    # ------------------------------------------------------------------
    # The control loop
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        if self._stopped:
            return
        now = self.cluster.kernel.now
        edges = self.signal.roll_window(now)
        # Breaker decisions need no leader: the sick resource is
        # local to the node, and so is the mitigation.
        self._act_on_disks(now)
        leader = find_leader(self.raft_nodes)
        if leader is not None:
            self._act_on_leader(leader, now)
            self._act_on_followers(leader, now)
            self._advance_probation(leader, now, edges)
        self.cluster.kernel.schedule(self.config.window_ms, self._tick)

    # -- leadership transfer --------------------------------------------
    def _act_on_leader(self, leader, now: float) -> None:
        suspected = any(
            detector.raft.suspected_leader == leader.id
            and not detector.raft.rt.crashed
            for detector in self.detectors
        )
        # One run across leader identities: a suspicion that follows the
        # leadership around still counts toward the grace period.
        if not suspected:
            self._transfer_run.reset("leader")
            return
        if self._transfer_run.hit("leader") < TRANSFER_GRACE_WINDOWS:
            return
        target = self._healthiest_voter(leader)
        if target is not None and leader.transfer_leadership(target):
            self.transfers += 1
            self._transfer_run.reset("leader")
            self.actions.append(
                MitigationAction(now, "transfer", leader.id, f"-> {target}")
            )

    def _healthiest_voter(self, leader) -> Optional[str]:
        """The lowest-scored live voting peer, by the leader's own links."""
        candidates = [
            peer
            for peer in leader.voting_peers()
            if not self.cluster.node(peer).crashed
        ]
        if not candidates:
            return None
        scores = self.signal.scores(link(leader.id))
        return min(candidates, key=lambda peer: (scores.get(peer, 0.0), peer))

    # -- follower demotion ----------------------------------------------
    def _act_on_followers(self, leader, now: float) -> None:
        seen = link(leader.id)
        suspects = self.signal.suspects()
        for peer in leader.voting_peers():
            status = self.status.get(peer, NodeStatus.VOTER)
            if status in (NodeStatus.PROBATION, NodeStatus.PROMOTING):
                continue  # already out of the quorum
            if self.cluster.node(peer).crashed:
                # Crashed voters go too, so a rebooted replica rejoins
                # the quorum only through probation.
                self._propose_demote(leader, peer, now, "crashed")
                continue
            if self._breaker_wal(peer) is None:
                # No breaker to hand a sick disk to: the link verdict
                # stands whatever the disk looks like.
                slow = self.signal.state(peer, seen) == PeerHealth.SUSPECT
            else:
                # suspects() blames the disk for the link-shaped symptom
                # (slow acks) of a disk-suspect peer, and the breaker owns
                # that one: demoting would hide the slowness without
                # fixing the ack path.
                slow = Suspect(peer, seen) in suspects
            if not slow:
                self._demote_run.reset(peer)
                if status == NodeStatus.SUSPECT:
                    self.status[peer] = NodeStatus.VOTER
                continue
            self.status[peer] = NodeStatus.SUSPECT
            if self._demote_run.hit(peer) >= self.config.demote_after_windows:
                self._propose_demote(leader, peer, now, "fail-slow")

    def _propose_demote(self, leader, peer, now: float, why: str) -> None:
        if len(leader.voting_members) - 1 < self.min_voters:
            return  # would leave too few voters; tolerate the slowness
        done = leader.propose_conf_change(CONF_DEMOTE, peer)
        if done is None:
            return
        self.demotions += 1
        self.status[peer] = NodeStatus.DEMOTING
        self._demote_run.reset(peer)
        self._promote_run.reset(peer)
        self.actions.append(MitigationAction(now, "demote", peer, why))

    # -- disk circuit breaker -------------------------------------------
    def _breaker_wal(self, node_id: str) -> Optional[CircuitBreakerWal]:
        """The node's live breaker WAL, if it was deployed with one.

        Looked up fresh every tick: restarts rebuild the WAL through the
        node's factory, so cached handles would go stale.
        """
        wal = self.cluster.node(node_id).wal
        return wal if isinstance(wal, CircuitBreakerWal) else None

    def _act_on_disks(self, now: float) -> None:
        for node_id in self.group:
            wal = self._breaker_wal(node_id)
            if wal is None or self.cluster.node(node_id).crashed:
                self._trip_run.reset(node_id)
                self._release_run.reset(node_id)
                continue
            suspect = self.signal.state(node_id, DISK) == PeerHealth.SUSPECT
            if wal.state == BreakerState.CLOSED:
                if not suspect:
                    self._trip_run.reset(node_id)
                elif self._trip_run.hit(node_id) >= TRIP_AFTER_WINDOWS:
                    wal.trip()
                    self.breaker_trips += 1
                    self._release_run.reset(node_id)
                    self.actions.append(
                        MitigationAction(now, "breaker_trip", node_id, "disk fail-slow")
                    )
            elif wal.state == BreakerState.OPEN:
                # Probe fsyncs keep health samples flowing while tripped;
                # release only after the disk looks clean long enough.
                if suspect or self.signal.score(node_id, DISK) >= 1.0:
                    self._release_run.reset(node_id)
                elif self._release_run.hit(node_id) >= self.config.breaker_probation_windows:
                    wal.release()
                    self.breaker_releases += 1
                    self._trip_run.reset(node_id)
                    self.actions.append(
                        MitigationAction(
                            now,
                            "breaker_release",
                            node_id,
                            f"probation passed ({wal.queued_bytes}B queued)",
                        )
                    )

    # -- probation and promotion ----------------------------------------
    def _advance_probation(self, leader, now: float, edges) -> None:
        # A cleared link verdict also clears standing leader suspicion:
        # a recovered ex-leader must be electable (and followable) again.
        for edge in edges:
            if edge.state == PeerHealth.HEALTHY and edge.resource != DISK:
                for detector in self.detectors:
                    detector.unsuspect(edge.node, now)
        seen = link(leader.id)
        scores = self.signal.scores(seen)
        for node_id in self.group:
            status = self.status.get(node_id)
            if status == NodeStatus.DEMOTING:
                if node_id not in leader.voting_members:
                    self.status[node_id] = NodeStatus.PROBATION
                    self._promote_run.reset(node_id)
            elif status == NodeStatus.PROBATION:
                healthy = (
                    not self.cluster.node(node_id).crashed
                    and self.signal.state(node_id, seen) == PeerHealth.HEALTHY
                    and scores.get(node_id, 0.0) < 1.0
                )
                if not healthy:
                    self._promote_run.reset(node_id)
                elif self._promote_run.hit(node_id) >= self.config.probation_windows:
                    done = leader.propose_conf_change(CONF_PROMOTE, node_id)
                    if done is not None:
                        self.promotions += 1
                        self.status[node_id] = NodeStatus.PROMOTING
                        self.actions.append(
                            MitigationAction(now, "promote", node_id, "probation passed")
                        )
            elif status == NodeStatus.PROMOTING:
                if node_id in leader.voting_members:
                    self.status[node_id] = NodeStatus.VOTER
                    for detector in self.detectors:
                        detector.unsuspect(node_id, now)


def deploy_mitigation(
    cluster: Cluster,
    raft_nodes: Dict[str, object],
    detector_config=None,
    config: Optional[MitigationConfig] = None,
) -> Tuple[List[LeaderSlownessDetector], MitigationController]:
    """Attach leader detectors + a started controller to a deployed group."""
    from repro.detector.leader_detector import attach_detectors

    detectors = attach_detectors(raft_nodes, config=detector_config)
    controller = MitigationController(
        cluster, raft_nodes, detectors=detectors, config=config
    )
    controller.start()
    return detectors, controller
