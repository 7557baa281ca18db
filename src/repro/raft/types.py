"""Raft value types: roles and log entries."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.storage.kvstore import KvOp

# Serialized overhead per log entry beyond the value payload.
ENTRY_OVERHEAD_BYTES = 32


class Role(enum.Enum):
    FOLLOWER = "follower"
    CANDIDATE = "candidate"
    LEADER = "leader"
    # Non-voting member: replicated to and applying, but outside every
    # election and commit quorum. The mitigation controller demotes a
    # persistently fail-slow follower to this role so its slowness can
    # never sit on a quorum path, and promotes it back after probation.
    LEARNER = "learner"


# Log-entry op tag for single-server membership changes. Entries carrying
# this tag flow through the ordinary replication pipeline but are applied
# to the group's voting configuration instead of the KV state machine.
CONF_CHANGE_OP = "raft_conf"
CONF_DEMOTE = "demote"
CONF_PROMOTE = "promote"


def is_conf_change(op) -> bool:
    """True when a log-entry op is a membership change, not a KV command."""
    return bool(op) and op[0] == CONF_CHANGE_OP


@dataclass(frozen=True, slots=True)
class LogEntry:
    """One replicated command."""

    term: int
    index: int
    op: KvOp
    size_bytes: int

    @staticmethod
    def sized(term: int, index: int, op: KvOp) -> "LogEntry":
        """Build an entry, estimating its wire/disk size from the op."""
        payload = sum(len(str(field)) for field in op)
        return LogEntry(term, index, op, payload + ENTRY_OVERHEAD_BYTES)


def entries_size(entries) -> int:
    """Total wire size of a batch of entries."""
    return sum(entry.size_bytes for entry in entries)
