"""Follower-side detector for fail-slow leaders."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional

from repro.raft.node import RaftNode
from repro.raft.types import Role

CHECK_INTERVAL_MS = 500.0
# Leader is "backed up" when it self-reports at least this many
# pending client ops across consecutive checks.
PENDING_THRESHOLD = 8
# Consecutive suspicious checks before declaring the leader fail-slow.
STRIKES_TO_SUSPECT = 2
# Re-suspecting the *same* leader identity is rate-limited: after a
# suspicion (or an explicit clear) this much virtual time must pass
# before that node can be flagged again. Different leaders are not
# rate-limited against each other — a flapping fault that chases
# leadership around the group is caught every hop.
RESUSPECT_COOLDOWN_MS = 5_000.0


@dataclass
class DetectorConfig:
    # The leader is crawling when the follower's commit index advanced
    # at less than this fraction of its best observed rate.
    commit_rate_fraction: float = 0.3


@dataclass
class Suspicion:
    """One suspicion verdict: which leader, in which term, and when."""

    leader: str
    term: int
    at: float


class LeaderSlownessDetector:
    """Attach one per follower; call :meth:`start` after the node starts.

    A healthy-but-busy leader reports pending load *and* commits fast, so
    it never accumulates strikes. A fail-slow leader reports a standing
    queue while commits crawl — after ``STRIKES_TO_SUSPECT`` consecutive
    such windows the follower suspects it and stops honoring its
    heartbeats, letting a normal election demote it.

    Suspicion is tracked **per leader identity**: after an election
    replaces a suspected leader, the detector re-arms against the new
    one, so flapping faults that slow successive leaders are flagged
    every time (one-shot detectors go blind after their first catch).
    """

    def __init__(self, raft: RaftNode, config: Optional[DetectorConfig] = None):
        self.raft = raft
        self.config = config or DetectorConfig()
        self.suspected: Optional[str] = None
        self.suspected_at: Optional[float] = None
        # Every suspicion ever raised, in order (regression surface for
        # the flapping-fault scenarios: len() > 1 means re-detection).
        self.suspicions: List[Suspicion] = []
        self.checks = 0
        self._strikes = 0
        self._watched_leader: Optional[str] = None
        self._last_commit_index = raft.commit_index
        self._best_commit_rate = 0.0
        # leader id -> earliest virtual time it may be suspected again.
        self._cooldown_until: Dict[str, float] = {}
        self._started = False

    def start(self) -> None:
        if self._started:
            raise RuntimeError("detector already started")
        self._started = True
        self.raft.rt.spawn(self._monitor_loop(), name=f"{self.raft.id}:detector")

    def _monitor_loop(self) -> Generator:
        raft = self.raft
        self._last_commit_index = raft.commit_index
        while not raft.rt.crashed:
            yield raft.rt.sleep(CHECK_INTERVAL_MS)
            self.observe_window(raft.rt.now)

    def observe_window(self, now: float) -> None:
        """Score one check window; factored out so tests can drive it."""
        raft = self.raft
        self.checks += 1
        # The commit baseline resets EVERY window — including windows we
        # skip because the node is leaderless or leading. Otherwise the
        # first measured delta after a skip spans several windows and
        # permanently inflates the best-rate baseline, deadening the
        # commits_crawling signal for the rest of the run.
        delta = raft.commit_index - self._last_commit_index
        self._last_commit_index = raft.commit_index
        leader = raft.leader_hint
        if raft.role == Role.LEADER or leader is None:
            self._strikes = 0
            self._watched_leader = None
            return
        if leader != self._watched_leader:
            # Leadership changed under us: strikes earned against the old
            # leader say nothing about the new one, and this window's
            # delta mixes both reigns. Re-arm and start measuring fresh.
            self._watched_leader = leader
            self._strikes = 0
            return
        rate = delta / CHECK_INTERVAL_MS
        self._best_commit_rate = max(self._best_commit_rate, rate)
        # Judge the peak backlog reported over this window, not the
        # single latest heartbeat: the queue is bursty at heartbeat
        # granularity and the interesting depth rarely coincides with
        # the window edge.
        leader_backed_up = raft.peak_leader_pending >= PENDING_THRESHOLD
        raft.peak_leader_pending = raft.last_leader_pending
        commits_crawling = (
            self._best_commit_rate > 0
            and rate < self.config.commit_rate_fraction * self._best_commit_rate
        )
        if leader_backed_up and commits_crawling:
            self._strikes += 1
        else:
            self._strikes = 0
        if self._strikes >= STRIKES_TO_SUSPECT and self._may_suspect(leader, now):
            self._suspect(leader, now)

    def _may_suspect(self, leader: str, now: float) -> bool:
        if self.raft.suspected_leader == leader:
            return False  # already acting on this one
        return now >= self._cooldown_until.get(leader, float("-inf"))

    def _suspect(self, leader: str, now: float) -> None:
        self.suspected = leader
        self.suspected_at = now
        self.suspicions.append(Suspicion(leader, self.raft.term, now))
        self._cooldown_until[leader] = now + RESUSPECT_COOLDOWN_MS
        self._strikes = 0
        # Stop honoring this leader's heartbeats: the election timer will
        # fire and a normal Raft election replaces it.
        self.raft.suspected_leader = leader

    def unsuspect(self, node_id: str, now: Optional[float] = None) -> None:
        """Clear an active suspicion (e.g. after recovery probation).

        The node's heartbeats are honored again; the cool-down keeps a
        flapping node from being endlessly suspected and re-admitted
        inside one fault cycle.
        """
        if self.raft.suspected_leader == node_id:
            self.raft.suspected_leader = None
        if now is not None:
            self._cooldown_until[node_id] = max(
                self._cooldown_until.get(node_id, float("-inf")),
                now + RESUSPECT_COOLDOWN_MS,
            )
        if self.suspected == node_id:
            self.suspected = None
            self.suspected_at = None


def attach_detectors(
    raft_nodes, config: Optional[DetectorConfig] = None
) -> List[LeaderSlownessDetector]:
    """Create and start one detector per group member."""
    detectors = []
    for raft in raft_nodes.values():
        detector = LeaderSlownessDetector(raft, config=config)
        detector.start()
        detectors.append(detector)
    return detectors
