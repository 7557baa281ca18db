"""DepFastRaft (§3.4): a Raft-based replicated KV store written on DepFast.

Both halves of Raft — leader election and data replication — follow the
same pattern: broadcast, then proceed on a quorum of acknowledgements.
Every inter-node wait in this package is a
:class:`~repro.events.compound.QuorumEvent` (or an AndEvent of one with a
local durability event), so by the paper's definition the logic is
fail-slow fault-tolerant code — the property
:func:`repro.trace.verify.check_fail_slow_tolerance` verifies over traces.

Use :func:`deploy_depfast_raft` to stand a group up on a
:class:`~repro.cluster.cluster.Cluster`.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.raft.config": ("RaftConfig",),
        "repro.raft.log": ("RaftLog",),
        "repro.raft.node": ("RaftNode",),
        "repro.raft.service": ("deploy_depfast_raft", "find_leader"),
        "repro.raft.types": ("LogEntry", "Role"),
    },
)
