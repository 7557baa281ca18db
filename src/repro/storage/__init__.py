"""Storage substrate: write-ahead log, durable Raft state, KV state machine.

Disk timing itself is modelled by :class:`repro.sim.resources.DiskResource`
(one per node); this package provides the durable-log abstractions RSMs
build on. The TiDB-style entry cache whose evictions force the leader into
synchronous disk reads — the first root-cause pattern of §2.2 — is worked
out from append order by :class:`repro.raft.log.RaftLog`: appends are its
only puts and land at ``last + 1``, so index *i* was pushed out iff at least
``cache_entries`` higher indices have been appended since *i* was.
"""

from repro.storage.durable import DurableRaftState
from repro.storage.kvstore import KvOp, KvStore
from repro.storage.wal import WriteAheadLog

__all__ = ["DurableRaftState", "KvOp", "KvStore", "WriteAheadLog"]
