"""Figure 2: the slowness propagation graph of a 3-shard deployment.

Deploys DepFastRaft three times (shards {s1–s3}, {s4–s6}, {s7–s9}), drives
each shard from its own client (c1–c3), and builds the SPG from the shared
tracer. The paper's figure shows: green quorum edges (labelled 2/3) inside
each shard, red single-wait edges (1/1) only from clients to leaders.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.bench.experiments import ExperimentParams
from repro.cluster.cluster import Cluster
from repro.raft.config import RaftConfig
from repro.raft.service import deploy_depfast_raft
from repro.trace.spg import Spg, build_spg, quorum_edges, render_spg, single_wait_edges
from repro.trace.verify import ToleranceReport, check_fail_slow_tolerance
from repro.workload.driver import ClosedLoopDriver
from repro.workload.ycsb import YcsbWorkload

SHARDS: List[List[str]] = [
    ["s1", "s2", "s3"],
    ["s4", "s5", "s6"],
    ["s7", "s8", "s9"],
]


@dataclass
class Figure2Result:
    graph: Spg
    tolerance: ToleranceReport
    green_edges: List[Tuple[str, str]]
    red_edges: List[Tuple[str, str]]
    wait_records: int


def run_figure2(
    run_ms: float = 3000.0,
    clients_per_shard: int = 8,
    seed: int = 7,
) -> Figure2Result:
    cluster = Cluster(seed=seed)
    for index, shard in enumerate(SHARDS):
        deploy_depfast_raft(
            cluster, shard, config=RaftConfig(preferred_leader=shard[0])
        )
    for index, shard in enumerate(SHARDS):
        workload = YcsbWorkload(
            cluster.rng.stream(f"ycsb-{index}"), record_count=10_000, value_size=1000
        )
        # One client machine per shard, named c1..c3 like the figure.
        driver = ClosedLoopDriver(
            cluster,
            shard,
            workload,
            n_clients=clients_per_shard,
            client_ids=[f"c{index+1}"],
        )
        driver.start()
    cluster.run(until_ms=run_ms)

    records = cluster.tracer.records
    graph = build_spg(records)
    tolerance = check_fail_slow_tolerance(records, SHARDS)
    return Figure2Result(
        graph=graph,
        tolerance=tolerance,
        green_edges=quorum_edges(graph),
        red_edges=single_wait_edges(graph),
        wait_records=len(records),
    )


def render_figure2(result: Figure2Result) -> str:
    lines = [
        "Figure 2: slowness propagation graph (3-shard DepFastRaft)",
        render_spg(result.graph),
        "",
        result.tolerance.summary(),
    ]
    return "\n".join(lines)


def shape_checks(result: Figure2Result) -> Dict[str, bool]:
    """The figure's qualitative content."""
    leaders = {shard[0] for shard in SHARDS}
    # Every red (single-wait) edge originates at a client; servers never
    # single-wait on each other. Startup retries may touch followers, but
    # each client's *dominant* red edge is its shard leader.
    red_from_clients_only = all(src.startswith("c") for src, _dst in result.red_edges)
    dominant_targets_leaders = True
    for client in ("c1", "c2", "c3"):
        client_edges = [
            (result.graph.edges[(src, dst)]["count"], dst)
            for src, dst in result.red_edges
            if src == client
        ]
        if not client_edges:
            dominant_targets_leaders = False
            continue
        _count, dominant = max(client_edges)
        dominant_targets_leaders &= dominant in leaders
    intra_shard_green = any(
        result.graph.edges[edge]["label"] == "2/3" for edge in result.green_edges
    )
    return {
        "no_intra_quorum_single_waits": result.tolerance.tolerant,
        "red_edges_only_from_clients": red_from_clients_only,
        "clients_wait_dominantly_on_leaders": dominant_targets_leaders,
        "green_quorum_edges_labelled_2_of_3": intra_shard_green,
        "all_shards_present": all(
            result.graph.has_node(node) for shard in SHARDS for node in shard
        ),
    }
