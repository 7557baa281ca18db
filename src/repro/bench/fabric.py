"""Fabric matrix: the Figure 3 fail-slow question at multi-group scale.

Figure 3 shows quorum events decoupling one slow follower from client
latency inside a single Raft group. At fabric scale the question is
*cross-group*: N groups share a node pool, one shared machine turns
fail-slow — does the slowness stay contained to the groups co-located
with it, or does the coordination layer (cross-shard 2PC) re-couple the
groups the quorum events decoupled?

The matrix runs every Table 1 fault on the fabric's most-shared node,
crossed with:

* workload — ``single`` (every op stays in one group) vs ``cross``
  (a slice of traffic becomes multi-group 2PC transactions);
* system — DepFast programming support on vs off. ``depfast``: quorum
  discard, bounded send buffers, and the coordinator's §3.2 OrEvent
  race over prepare votes. ``raft``: no discard, unbounded buffers, and
  naive 2PC — the coordinator waits each shard's vote solo, in order,
  so one straggling shard gates even learning the other shards'
  answers.

Per cell we report per-group post-onset P99 and throughput against the
same group's pre-onset window, split into groups co-located with the
faulted node vs remote groups, plus 2PC latency inflation and the SPG
wait time flowing into the faulted node. The headline numbers:

* **containment** — on single-shard workloads the remote groups' P99
  barely moves while co-located groups degrade (the fabric analog of
  Figure 3's decoupling);
* **re-coupling amplification** — how much of the remote groups'
  throughput the cross-shard workload hands back to the faulted node,
  measured as remote throughput retention single vs cross.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.bench.matrix import CONTROL, CellParams, coupling_into, listed, verdict
from repro.cluster.cluster import Cluster
from repro.cluster.node import NodeSpec
from repro.fabric.deploy import deploy_fabric
from repro.fabric.router import FabricLoadDriver
from repro.faults.injector import FaultInjector
from repro.raft.config import RaftConfig

# workload -> the slice of traffic that becomes cross-shard 2PC
WORKLOADS = {"single": 0.0, "cross": 0.3}
# system -> DepFast programming support on?
SYSTEMS = {"raft": False, "depfast": True}


@dataclass
class FabricParams(CellParams):
    n_keys: int
    # Start of the pre-onset window each group's post-onset is held against.
    warmup_ms: float


@dataclass
class GroupWindow:
    """One group's pre-onset vs post-onset client-visible behaviour."""

    pre_p99_ms: float
    post_p99_ms: float
    pre_rate_ops_s: float
    post_rate_ops_s: float

    @property
    def p99_degradation(self) -> float:
        return self.post_p99_ms / max(self.pre_p99_ms, 0.05)

    @property
    def throughput_retention(self) -> float:
        """post/pre ops rate: 1.0 = unaffected, 0 = starved."""
        if self.pre_rate_ops_s <= 0:
            return 1.0
        return self.post_rate_ops_s / self.pre_rate_ops_s


@dataclass
class FabricRun:
    workload: str
    system: str
    fault: str
    seed: int
    fault_node: str
    colocated: List[str]
    remote: List[str]
    groups: Dict[str, GroupWindow]
    completed: int
    errors: int
    txns_committed: int
    txns_aborted: int
    txn_pre_p99_ms: float
    txn_post_p99_ms: float
    coupling_wait_ms: float
    coupling_red_edges: int

    def _deg(self, group_ids: List[str]) -> float:
        values = [self.groups[gid].p99_degradation for gid in group_ids]
        return max(values) if values else 1.0

    @property
    def colocated_degradation(self) -> float:
        """Worst post/pre P99 ratio among groups sharing the faulted node."""
        return self._deg(self.colocated)

    @property
    def remote_degradation(self) -> float:
        """Worst post/pre P99 ratio among groups with no faulted replica."""
        return self._deg(self.remote)

    @property
    def remote_retention(self) -> float:
        """Worst post/pre throughput retention among remote groups."""
        return min((self.groups[gid].throughput_retention for gid in self.remote), default=1.0)


def run_once(
    workload: str, system: str, fault: str, seed: int, params: FabricParams
) -> FabricRun:
    """One seeded (workload, system, fault) cell; deterministic end to end."""
    depfast = SYSTEMS[system]
    cluster = Cluster(seed=seed)
    fabric = deploy_fabric(
        cluster,
        n_groups=4,
        n_nodes=5,
        replicas=3,
        # deploy_fabric swaps in each group's preferred leader.
        config=RaftConfig(
            discard_on_quorum=depfast,
            client_commit_timeout_ms=2_000.0,
            snapshot_threshold_entries=400,
            compaction_keep_entries=128,
        ),
        spec=None if depfast else NodeSpec(),
    )
    fabric.wait_for_leaders()

    client = cluster.add_client("c1")
    client.start()
    router = fabric.router(
        client, request_timeout_ms=1_000.0, prepare_timeout_ms=3_000.0, race_votes=depfast
    )
    driver = FabricLoadDriver(
        cluster,
        router,
        n_clients=params.n_clients,
        n_keys=params.n_keys,
        write_ratio=0.5,
        cross_txn_ratio=WORKLOADS[workload],
        txn_span=2,
        think_time_ms=1.0,
        # Clients are partition-affine in both workloads, so cross-shard
        # 2PC is the *only* channel that can couple a remote group's
        # clients to the faulted node — the single-vs-cross retention
        # comparison then isolates exactly what 2PC re-couples.
        pin_clients=True,
    )

    fault_node = fabric.most_shared_node()
    if fault != CONTROL:
        FaultInjector(cluster).inject_transient(
            fault_node, fault, params.fault_at_ms, params.fault_ms
        )

    driver.start()
    cluster.run(until_ms=params.end_ms)
    driver.stop()

    pre = (params.warmup_ms, params.fault_at_ms)
    post = (params.fault_at_ms, params.end_ms)
    pre_len_s = (pre[1] - pre[0]) / 1_000.0
    post_len_s = (post[1] - post[0]) / 1_000.0
    groups: Dict[str, GroupWindow] = {}
    for group_id in fabric.group_ids():
        recorder = router.recorders[group_id]
        groups[group_id] = GroupWindow(
            pre_p99_ms=recorder.percentile(99.0, *pre),
            post_p99_ms=recorder.percentile(99.0, *post),
            pre_rate_ops_s=len(recorder.in_window(*pre)) / pre_len_s,
            post_rate_ops_s=len(recorder.in_window(*post)) / post_len_s,
        )

    colocated = fabric.groups_on(fault_node)
    remote = [gid for gid in fabric.group_ids() if gid not in colocated]

    coupling_wait, red_edges = coupling_into(cluster, fault_node)

    return FabricRun(
        workload=workload,
        system=system,
        fault=fault,
        seed=seed,
        fault_node=fault_node,
        colocated=colocated,
        remote=remote,
        groups=groups,
        completed=driver.completed,
        errors=driver.errors,
        txns_committed=driver.txns_committed,
        txns_aborted=driver.txns_aborted,
        txn_pre_p99_ms=router.txn_recorder.percentile(99.0, *pre),
        txn_post_p99_ms=router.txn_recorder.percentile(99.0, *post),
        coupling_wait_ms=coupling_wait,
        coupling_red_edges=red_edges,
    )


@dataclass
class FabricMatrix:
    # fault -> workload -> system -> run
    cells: Dict[str, Dict[str, Dict[str, FabricRun]]]

    def _faults(self) -> List[str]:
        return [fault for fault in self.cells if fault != CONTROL]

    def cell(self, fault: str, workload: str, system: str) -> FabricRun:
        return self.cells[fault][workload][system]

    def contained_faults(self, system: str = "depfast") -> List[str]:
        """Faults whose single-shard damage stays with co-located groups.

        Containment: the remote groups' P99 moves < 30% while at least
        one co-located group degrades at least twice as hard.
        """
        contained = []
        for fault in self._faults():
            run = self.cell(fault, "single", system)
            if (
                run.remote
                and run.remote_degradation <= 1.3
                and run.colocated_degradation >= 2.0 * run.remote_degradation
            ):
                contained.append(fault)
        return contained

    def recoupling_amplification(self, fault: str, system: str) -> float:
        """How much 2PC re-couples remote groups to the faulted node.

        Remote-group throughput retention under the fault, single-shard
        vs cross-shard: >1 means the cross-shard workload hands remote
        groups' progress back to the faulted node (closed-loop clients
        park inside 2PC waits whose prepare quorum includes a straggling
        group). 1.0 means 2PC added no coupling.
        """
        single = self.cell(fault, "single", system)
        cross = self.cell(fault, "cross", system)
        return max(
            1.0, single.remote_retention / max(cross.remote_retention, 1e-6)
        )

    def worst_recoupling(self, system: str) -> float:
        return max(
            (self.recoupling_amplification(fault, system) for fault in self._faults()),
            default=1.0,
        )

    @property
    def ok(self) -> bool:
        """The matrix demonstrates both effects the ROADMAP asks about."""
        return bool(self.contained_faults()) and self.worst_recoupling("depfast") >= 1.1


def run_matrix(faults: Sequence[str], seed: int, params: FabricParams) -> FabricMatrix:
    """Every (fault, workload, system) cell plus the fault-free control."""
    return FabricMatrix(
        cells={
            fault: {
                workload: {
                    system: run_once(workload, system, fault, seed, params)
                    for system in SYSTEMS
                }
                for workload in WORKLOADS
            }
            for fault in [CONTROL, *faults]
        }
    )


def determinism_gate(seed: int) -> Tuple[bool, str]:
    """The smoke profile's acceptance gate: the same seed must produce
    the same fabric trace, byte for byte, before any matrix numbers count."""
    from repro.bench.determinism import run_traced

    first = run_traced("fabric", seed=seed)
    second = run_traced("fabric", seed=seed)
    if first.trace_hash != second.trace_hash:
        return False, (
            "fabric: NONDETERMINISTIC — same seed produced different "
            f"traces ({first.trace_hash[:16]}… vs {second.trace_hash[:16]}…)"
        )
    return True, (
        f"fabric determinism: seed {seed} -> "
        f"{first.trace_hash[:16]}… twice ({first.deliveries} deliveries)"
    )


def render_run(run: FabricRun) -> str:
    per_group = " ".join(
        f"{gid}×{run.groups[gid].p99_degradation:.2f}"
        for gid in sorted(run.groups)
    )
    txn = ""
    if run.txns_committed or run.txns_aborted:
        txn = (
            f"  txn p99 {run.txn_pre_p99_ms:6.1f}->{run.txn_post_p99_ms:7.1f}ms "
            f"({run.txns_committed}c/{run.txns_aborted}a)"
        )
    return (
        f"    {run.workload:6s}/{run.system:7s} "
        f"coloc×{run.colocated_degradation:6.2f} remote×{run.remote_degradation:5.2f} "
        f"remote-tp {run.remote_retention:4.2f}  [{per_group}] "
        f"err={run.errors:<3d} "
        f"into-{run.fault_node}={run.coupling_wait_ms:7.0f}ms"
        f"{'!' * run.coupling_red_edges}{txn}"
    )


def render_matrix(result: FabricMatrix) -> str:
    lines = [
        "fabric matrix (fault on the most-shared node; post-onset vs "
        "pre-onset, per group):",
    ]
    for fault, by_workload in result.cells.items():
        lines.append(f"  {fault}:")
        for by_system in by_workload.values():
            lines += [render_run(run) for run in by_system.values()]
    lines.append(
        "  single-shard slowness contained to co-located groups under: "
        f"{listed(result.contained_faults())}"
    )
    for system in SYSTEMS:
        per_fault = ", ".join(
            f"{fault} ×{result.recoupling_amplification(fault, system):.2f}"
            for fault in result._faults()
        )
        lines.append(
            f"  2PC re-coupling amplification ({system}): {per_fault} "
            f"(worst ×{result.worst_recoupling(system):.2f})"
        )
    lines.append(
        f"{verdict(result.ok)}: need single-shard containment under >=1 fault and "
        "2PC re-coupling >=1.1x with quorum events on"
    )
    return "\n".join(lines)
