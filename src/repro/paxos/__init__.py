"""Multi-Paxos on DepFast — the §2.3 spaghetti example, unshredded.

§2.3: "Think about a Paxos system, for each request that goes through the
3 phases (Prepare/Accept/Commit) of Paxos, its code will at least be
shredded into 3 callbacks. If this is a 5-replica system, the callbacks
will be executed 15 times."

This package writes that same protocol as DepFast coroutines instead: the
Prepare quorum and each batch's Accept quorum are single ``QuorumEvent``
waits, commit/learn is a notification, and the entire request path reads
top-to-bottom in :meth:`~repro.paxos.node.PaxosNode._proposer_loop`. It
also demonstrates §4's claim that "the design of DepFast is generic and
is not specific to any distributed protocols": the same runtime, events,
network, fault injector, workload driver and trace verifier host Raft
(:mod:`repro.raft`) and Paxos unchanged, and both leaders run one
pipeline (:mod:`repro.cluster.leader`): the same admission and batch
cut, late-quorum wait and apply loop, with Paxos supplying only its
ballot, its slot-keyed completions and its repair stream.
"""

from repro.paxos.node import PaxosConfig, PaxosNode
from repro.paxos.service import deploy_paxos, find_paxos_leader

__all__ = ["PaxosConfig", "PaxosNode", "deploy_paxos", "find_paxos_leader"]
