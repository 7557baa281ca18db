"""Hedging matrix: four fail-slow defenses raced across Table 1 faults.

Figure 3 of the paper shows quorum events decoupling a slow *follower*
from client latency. This matrix replays that experiment with the rival
defense in the ring, under every Table 1 fault plus a fault-free
control, for four systems:

* ``raft``           — baseline: quorum waits only (no discard,
  unbounded buffers);
* ``depfast``        — the paper's defense: quorum discard + bounded
  send buffers;
* ``hedged``         — the rival: racing instead of discarding (hedged
  AppendEntries + speculative reads; no discard, unbounded buffers);
* ``hedged+depfast`` — both bets together.

The fault lands on a follower, the workload is a mixed read/write
closed loop with ``read_index`` reads. Per cell we report the post-onset
P50/P99/P999 client latency, throughput, and the racing costs: duplicate
-work amplification ``(primaries + hedges) / primaries``, how many of
those duplicates were aimed at the already-faulted node, server-side
dedup/abort counts, and the SPG wait time into the faulted node — the
coupling the hedges re-introduce. The cell prologue and the SPG sum are
:mod:`repro.bench.matrix`'s. Seeded-deterministic end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.bench.matrix import (
    CONTROL,
    STARTUP_NOISE_MS,
    CellParams,
    coupling_into,
    deploy_cell,
    listed,
    verdict,
)
from repro.cluster.node import NodeSpec
from repro.faults.injector import FaultInjector
from repro.hedging.raft import HedgedRaftNode, deploy_hedged_raft
from repro.raft.config import RaftConfig
from repro.raft.service import deploy_depfast_raft

# system -> (deploy function, DepFast's quorum discard + bounded buffers?)
SYSTEMS = {
    "raft": (deploy_depfast_raft, False),
    "depfast": (deploy_depfast_raft, True),
    "hedged": (deploy_hedged_raft, False),
    "hedged+depfast": (deploy_hedged_raft, True),
}


@dataclass
class HedgingParams(CellParams):
    record_count: int


@dataclass
class HedgingRun:
    system: str
    fault: str
    seed: int
    completed: int
    errors: int
    throughput_ops_s: float
    p50_ms: float
    p99_ms: float
    p999_ms: float
    healthy_p99_ms: float
    # Racing costs (zero for the non-hedged systems).
    append_primaries: int
    append_hedges: int
    probe_hedges: int
    hedges_to_faulted: int
    speculative_reads: int
    speculation_rollbacks: int
    hedges_deduped: int
    hedges_aborted: int
    # SPG annotation: aggregate wait time server coroutines spent on
    # edges into the faulted node, and whether any of it was a red
    # (single-source) edge — the coupling signature.
    coupling_wait_ms: float
    coupling_red_edges: int

    @property
    def amplification(self) -> float:
        """Duplicate-work amplification on the replication fan-out."""
        if self.append_primaries <= 0:
            return 1.0
        return (self.append_primaries + self.append_hedges) / self.append_primaries


def run_once(system: str, fault: str, seed: int, params: HedgingParams) -> HedgingRun:
    """One seeded (system, fault) cell; deterministic end to end."""
    deploy, depfast = SYSTEMS[system]
    # Mixed workload: the write majority keeps an apply backlog alive
    # (what speculative reads overlap with) and exercises hedged
    # replication; the read minority exercises read_index reads.
    cell = deploy_cell(
        seed,
        RaftConfig(
            read_mode="read_index",
            discard_on_quorum=depfast,
            client_commit_timeout_ms=2_000.0,
            snapshot_threshold_entries=400,
            compaction_keep_entries=128,
        ),
        n_clients=params.n_clients,
        record_count=params.record_count,
        value_size=500,
        update_fraction=0.6,
        request_timeout_ms=1_000.0,
        deploy=deploy,
        # The non-DepFast systems also lose the bounded send buffers.
        spec=None if depfast else NodeSpec(),
    )
    cluster, raft, driver = cell.cluster, cell.raft, cell.driver

    fault_node = cell.group[-1]  # a follower (preferred leader is group[0])
    fault_at, end = params.fault_at_ms, params.end_ms
    if fault != CONTROL:
        FaultInjector(cluster).inject_transient(fault_node, fault, fault_at, params.fault_ms)

    driver.start()
    cluster.run(until_ms=end)
    driver.stop()

    hedged = [node for node in raft.values() if isinstance(node, HedgedRaftNode)]
    coupling_wait, red_edges = coupling_into(cluster, fault_node, sources=cell.group)
    recorder = driver.recorder
    return HedgingRun(
        system=system,
        fault=fault,
        seed=seed,
        completed=driver.completed,
        errors=driver.errors,
        throughput_ops_s=driver.report(fault_at, end).throughput_ops_s,
        p50_ms=recorder.percentile(50.0, fault_at, end),
        p99_ms=recorder.percentile(99.0, fault_at, end),
        p999_ms=recorder.percentile(99.9, fault_at, end),
        healthy_p99_ms=recorder.percentile(99.0, STARTUP_NOISE_MS, fault_at),
        append_primaries=sum(node.append_primaries for node in hedged),
        append_hedges=sum(node.append_hedges for node in hedged),
        probe_hedges=sum(node.probe_hedges for node in hedged),
        hedges_to_faulted=sum(node.hedges_by_peer.get(fault_node, 0) for node in hedged),
        speculative_reads=sum(node.speculative_reads for node in hedged),
        speculation_rollbacks=sum(node.speculation_rollbacks for node in hedged),
        hedges_deduped=sum(n.ep.hedges_deduped for n in raft.values()),
        hedges_aborted=sum(n.ep.hedges_aborted for n in raft.values()),
        coupling_wait_ms=coupling_wait,
        coupling_red_edges=red_edges,
    )


@dataclass
class HedgingMatrix:
    cells: Dict[str, Dict[str, HedgingRun]]  # fault -> system -> run

    def _faults(self) -> List[str]:
        return [fault for fault in self.cells if fault != CONTROL]

    def p99_wins(self) -> List[str]:
        """Faults where a hedged system beats DepFastRaft on P99."""
        wins = []
        for fault in self._faults():
            row = self.cells[fault]
            hedged_best = min(row["hedged"].p99_ms, row["hedged+depfast"].p99_ms)
            if hedged_best < row["depfast"].p99_ms:
                wins.append(fault)
        return wins

    def recoupling(self) -> List[str]:
        """Faults where hedging re-couples the slowness DepFast decoupled.

        Evidence: duplicate work aimed at the faulted node (the hedge
        pays the slow link again) combined with a P99 no better than
        DepFast's, or measurable amplification with worse throughput.
        """
        recoupled = []
        for fault in self._faults():
            hedged, depfast = self.cells[fault]["hedged"], self.cells[fault]["depfast"]
            wasted = hedged.hedges_to_faulted > 0 or hedged.amplification > 1.02
            no_gain = (
                hedged.p99_ms >= depfast.p99_ms
                or hedged.throughput_ops_s < depfast.throughput_ops_s
            )
            if wasted and no_gain:
                recoupled.append(fault)
        return recoupled

    @property
    def ok(self) -> bool:
        return bool(self.p99_wins()) and bool(self.recoupling())


def run_matrix(faults: Sequence[str], seed: int, params: HedgingParams) -> HedgingMatrix:
    """The full campaign: every (fault, system) cell plus the control row."""
    return HedgingMatrix(
        cells={
            fault: {system: run_once(system, fault, seed, params) for system in SYSTEMS}
            for fault in [CONTROL, *faults]
        }
    )


def render_run(run: HedgingRun) -> str:
    extras = ""
    if run.append_hedges or run.probe_hedges or run.speculative_reads:
        extras = (
            f"  amp={run.amplification:.3f} hedges={run.append_hedges}"
            f"(->faulted {run.hedges_to_faulted}) probes+{run.probe_hedges} "
            f"dedup={run.hedges_deduped} spec={run.speculative_reads}"
            f"/rb{run.speculation_rollbacks}"
        )
    return (
        f"    {run.system:15s} p50={run.p50_ms:7.2f} p99={run.p99_ms:8.2f} "
        f"p999={run.p999_ms:8.2f}  {run.throughput_ops_s:6.0f} ops/s "
        f"err={run.errors:<4d} couple={run.coupling_wait_ms:8.0f}ms"
        f"{'!' * run.coupling_red_edges}{extras}"
    )


def render_matrix(result: HedgingMatrix) -> str:
    lines = [
        "hedging matrix (follower faults; post-onset client latency, ms):",
    ]
    for fault, row in result.cells.items():
        lines.append(f"  {fault}:")
        lines += [render_run(run) for run in row.values()]
    lines.append(f"  hedging beats depfast on P99 under: {listed(result.p99_wins())}")
    lines.append(f"  hedging re-couples slowness under: {listed(result.recoupling())}")
    lines.append(
        f"{verdict(result.ok)}: need >=1 fault where racing wins and >=1 where it "
        "re-couples the straggler"
    )
    return "\n".join(lines)
