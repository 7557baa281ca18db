"""DepFastRaft's options, and the constants only Raft reads.

Timing values are virtual milliseconds. The CPU cost model, the batch cap
and the replication timeout are the leader pipeline's, shared with every
other replicated system (:mod:`repro.cluster.leader`); ``RaftConfig`` adds
to the pipeline's :class:`~repro.cluster.leader.LeaderConfig` only what a
caller sets: the entry cache, the read path, compaction and membership.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.cluster.leader import LeaderConfig

VOTE_RPC_TIMEOUT_MS = 400.0  # a RequestVote round, and a read_index probe
LEASE_DURATION_MS = 300.0  # a lease read's window after a confirmed probe


@dataclass
class RaftConfig(LeaderConfig):
    # -- leader entry cache (recent entries kept in memory) -------------
    entry_cache_entries: int = 4096

    # -- read path --------------------------------------------------------
    # "log": reads are replicated log entries (simplest, always safe).
    # "read_index": leader confirms leadership with a quorum probe, then
    #   serves from the applied state machine (no log write per read).
    # "lease": leader serves reads locally while it holds a heartbeat
    #   lease, falling back to read_index when the lease lapsed.
    read_mode: str = "log"

    # -- log compaction ----------------------------------------------------
    # Snapshot + truncate once this many entries are applied beyond the
    # log base (None disables compaction). ``compaction_keep_entries`` of
    # recent log tail stay for ordinary repair; followers further behind
    # get a snapshot install.
    snapshot_threshold_entries: Optional[int] = None
    compaction_keep_entries: int = 1024

    # -- membership ------------------------------------------------------
    # Initial voting members (None = every group member votes). Nodes in
    # the group but not listed start as non-voting learners: replicated
    # to, never counted toward election or commit quorums. Runtime
    # demotions/promotions flow through the replicated conf-change path
    # (RaftNode.propose_conf_change), not this knob.
    initial_voters: Optional[List[str]] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.initial_voters is not None and not self.initial_voters:
            raise ValueError("initial_voters must name at least one member")
        if self.read_mode not in ("log", "read_index", "lease"):
            raise ValueError(f"unknown read mode {self.read_mode!r}")
        if self.snapshot_threshold_entries is not None and (
            self.snapshot_threshold_entries <= self.compaction_keep_entries
        ):
            raise ValueError("snapshot threshold must exceed the kept tail")
