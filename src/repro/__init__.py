"""DepFast reproduction: programming support for fail-slow fault tolerance.

Reproduces Yoo, Wang, Sinha, Mu & Xu, *"Fail-slow fault tolerance needs
programming support"* (HotOS '21) as a pure-Python library on a
deterministic discrete-event simulation substrate.

Quick tour of the public API::

    from repro import (
        Cluster,            # a simulated world: kernel, network, nodes
        QuorumEvent,        # the paper's core abstraction
        deploy_depfast_raft,  # stand up a DepFastRaft group
        FaultInjector, TABLE1,  # the paper's fail-slow fault catalog
        ClosedLoopDriver, YcsbWorkload,  # the measurement workload
        build_spg, check_fail_slow_tolerance,  # runtime verification
    )

See ``examples/quickstart.py`` for a runnable walk-through, DESIGN.md for
the system inventory, and EXPERIMENTS.md for paper-vs-measured results.
"""

from repro._lazy import lazy_exports

__version__ = "0.1.0"

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.baselines": (
            "BASELINE_SYSTEMS", "BaselineConfig", "MongoLikeRsm", "RethinkLikeRsm", "TidbLikeRsm",
            "deploy_baseline",
        ),
        "repro.cluster": ("Cluster", "Node", "NodeSpec"),
        "repro.detector": ("DetectorConfig", "LeaderSlownessDetector"),
        "repro.events": (
            "AndEvent", "Event", "OrEvent", "QuorumEvent", "RpcEvent", "SharedIntEvent",
            "TimerEvent", "ValueEvent",
        ),
        "repro.faults": ("TABLE1", "BackgroundJitter", "FaultInjector", "FaultSpec", "FaultType"),
        "repro.paxos": ("PaxosConfig", "PaxosNode", "deploy_paxos"),
        "repro.raft": ("RaftConfig", "RaftNode", "deploy_depfast_raft", "find_leader"),
        "repro.raft.fastpath": ("FastPathAcceptor", "FastPathCoordinator"),
        "repro.runtime": ("Coroutine", "Runtime", "Scheduler"),
        "repro.sim": ("Kernel",),
        "repro.trace": ("Tracer", "build_spg", "check_fail_slow_tolerance", "render_spg"),
        "repro.workload": ("ClosedLoopDriver", "KvServiceClient", "WorkloadReport", "YcsbWorkload"),
    },
)
