"""The shared experiment runner: deploy → inject → drive → measure.

Mirrors §2.1's methodology: an update-only YCSB-like workload from
closed-loop clients, one (or a minority of) randomly-chosen follower(s)
carrying a Table 1 fault for the whole run, metrics from the steady-state
window, and per-system normalization against the system's own no-fault
run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.baselines import BASELINE_SYSTEMS, deploy_baseline
from repro.bench.matrix import smoke_profile
from repro.cluster.cluster import Cluster
from repro.faults.injector import FaultInjector
from repro.faults.jitter import BackgroundJitter
from repro.raft.config import RaftConfig
from repro.raft.service import deploy_depfast_raft
from repro.workload.driver import ClosedLoopDriver
from repro.workload.stats import WorkloadReport
from repro.workload.ycsb import YcsbWorkload

SYSTEMS = ["depfast", "paxos"] + sorted(BASELINE_SYSTEMS)


@dataclass
class ExperimentParams:
    """One run's knobs. Defaults reproduce the paper's operating point."""

    group_size: int = 3
    n_clients: int = 48
    seed: int = 42
    warmup_ms: float = 2000.0
    end_ms: float = 10_000.0
    record_count: int = 500_000
    value_size: int = 1000
    update_fraction: float = 1.0
    background_jitter: bool = False
    faulty_followers: Optional[int] = None  # default: 1 (3 nodes) / minority

    def group(self) -> List[str]:
        return [f"s{i+1}" for i in range(self.group_size)]

    def n_faulty(self) -> int:
        if self.faulty_followers is not None:
            return self.faulty_followers
        return 1 if self.group_size == 3 else (self.group_size - 1) // 2

    def scaled_for_smoke(self) -> "ExperimentParams":
        """A fast profile for CI smoke runs (shapes, not magnitudes)."""
        return replace(self, n_clients=16, warmup_ms=1000.0, end_ms=4000.0)


def bench_params() -> ExperimentParams:
    """Params selected by the REPRO_BENCH_PROFILE env var (paper|smoke)."""
    params = ExperimentParams()
    return params.scaled_for_smoke() if smoke_profile() else params


def run_rsm_experiment(
    system: str, fault: str, params: Optional[ExperimentParams] = None
) -> WorkloadReport:
    """Run one (system, fault) cell and return its workload report.

    ``system`` is "depfast" or one of the baseline names; ``fault`` is a
    Table 1 name ("none" for the normalization baseline). Faults are
    injected on the *last* followers of the group — never the leader
    (s1) — matching the paper's fail-slow-follower focus.
    """
    params = params or ExperimentParams()
    cluster = Cluster(seed=params.seed)
    group = params.group()

    if system == "depfast":
        deploy_depfast_raft(
            cluster, group, config=RaftConfig(preferred_leader=group[0])
        )
    elif system == "paxos":
        from repro.paxos import PaxosConfig, deploy_paxos

        deploy_paxos(cluster, group, config=PaxosConfig(preferred_leader=group[0]))
    elif system in BASELINE_SYSTEMS:
        deploy_baseline(cluster, BASELINE_SYSTEMS[system], group)
    else:
        raise ValueError(f"unknown system {system!r}; known: {SYSTEMS}")

    injector = FaultInjector(cluster)
    if fault != "none":
        for victim in group[-params.n_faulty():]:
            injector.inject(victim, fault)

    jitter = None
    if params.background_jitter:
        jitter = BackgroundJitter(
            cluster, group, cluster.rng.stream("bg-jitter")
        )
        jitter.start()

    workload = YcsbWorkload(
        cluster.rng.stream("ycsb"),
        record_count=params.record_count,
        value_size=params.value_size,
        update_fraction=params.update_fraction,
    )
    driver = ClosedLoopDriver(
        cluster, group, workload, n_clients=params.n_clients
    )
    driver.start()
    cluster.run(until_ms=params.end_ms)
    return driver.report(params.warmup_ms, params.end_ms)


def run_fault_sweep(
    system: str,
    faults: List[str],
    params: Optional[ExperimentParams] = None,
) -> Dict[str, WorkloadReport]:
    """One system across a list of fault conditions (always incl. 'none')."""
    params = params or ExperimentParams()
    conditions = ["none"] + [fault for fault in faults if fault != "none"]
    return {
        fault: run_rsm_experiment(system, fault, params) for fault in conditions
    }
