"""Seeded event-trace digests: the determinism harness for the hot path.

Every performance change to the simulator substrate (kernel queue, network
delivery, metrics) must be *equivalence-preserving*: the paper's claims are
about virtual-time behaviour, so an optimisation that shifts a single
virtual timestamp invalidates every artifact. This module runs small,
fully-seeded scenarios — 3-node Raft, Multi-Paxos, chain replication and
one chaos schedule — and folds their complete delivery traces into a
SHA-256 digest.

The digests captured *before* the PR-5 hot-path overhaul are committed in
``tests/fixtures/determinism_golden.json``; ``tests/test_determinism.py``
asserts the current code still produces them bit-for-bit. Regenerate the
goldens (only when semantics change intentionally) with::

    PYTHONPATH=src python -m repro.bench.determinism --write-golden

What goes into a digest:

* every successful message delivery, in order: ``repr`` of the virtual
  delivery time plus src/dst/method/msg_id — so both timestamps and the
  global delivery order are pinned;
* the final virtual clock reading;
* client-visible outcomes (operations completed, errors) and, for the
  chaos scenario, the safety verdicts and replica state digest.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from dataclasses import asdict, dataclass
from typing import Callable, Dict

from repro.cluster.cluster import Cluster
from repro.faults.injector import FaultInjector
from repro.workload.driver import ClosedLoopDriver
from repro.workload.ycsb import YcsbWorkload

GOLDEN_PATH = (
    pathlib.Path(__file__).resolve().parents[3]
    / "tests"
    / "fixtures"
    / "determinism_golden.json"
)

DEFAULT_SEED = 42


@dataclass
class TraceDigest:
    """Bit-for-bit summary of one seeded scenario run."""

    scenario: str
    seed: int
    trace_hash: str
    deliveries: int
    final_time_ms: float
    completed_ops: int
    errors: int


class _TraceHasher:
    """Accumulates the delivery stream into a SHA-256 digest.

    Message ids come from a process-global counter, so the hash folds in
    ids *relative to the scenario's first message* — the digest must not
    depend on how many messages earlier runs in the same process created.
    """

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self.deliveries = 0
        self._base_msg_id: int | None = None

    def on_delivery(self, now: float, message) -> None:
        self.deliveries += 1
        if self._base_msg_id is None:
            self._base_msg_id = message.msg_id
        rel_id = message.msg_id - self._base_msg_id
        self._hash.update(
            f"{now!r} {message.src} {message.dst} {message.method} {rel_id}\n".encode()
        )

    def fold(self, *values) -> None:
        for value in values:
            self._hash.update(f"{value!r}\n".encode())

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def _run_rsm_scenario(scenario: str, seed: int) -> TraceDigest:
    """Raft / Paxos / chain: short faulted YCSB run with a delivery probe."""
    cluster = Cluster(seed=seed)
    hasher = _TraceHasher()
    cluster.network.delivery_probe = hasher.on_delivery
    group = ["s1", "s2", "s3"]

    if scenario == "raft":
        from repro.raft.config import RaftConfig
        from repro.raft.service import deploy_depfast_raft

        deploy_depfast_raft(cluster, group, config=RaftConfig(preferred_leader="s1"))
    elif scenario == "hedged":
        from repro.hedging import deploy_hedged_raft
        from repro.raft.config import RaftConfig

        # Hedge timers and the P² delay estimator both run off the seeded
        # kernel clock, so the racing path is pinned like everything else.
        deploy_hedged_raft(cluster, group, config=RaftConfig(preferred_leader="s1"))
    elif scenario == "paxos":
        from repro.paxos import PaxosConfig, deploy_paxos

        deploy_paxos(cluster, group, config=PaxosConfig(preferred_leader="s1"))
    elif scenario == "chain":
        from repro.chain import deploy_chain

        deploy_chain(cluster, group)
    else:  # pragma: no cover - registry guards this
        raise ValueError(f"unknown RSM scenario {scenario!r}")

    # One fail-slow follower for the whole run, so the faulted code paths
    # (resource re-timing, backpressure) are part of the pinned trace.
    FaultInjector(cluster).inject("s3", "cpu_slow")

    workload = YcsbWorkload(
        cluster.rng.stream("ycsb"),
        record_count=1_000,
        value_size=100,
        update_fraction=1.0,
    )
    driver = ClosedLoopDriver(cluster, group, workload, n_clients=8)
    driver.start()
    cluster.run(until_ms=3_000.0)

    hasher.fold(cluster.kernel.now, driver.completed, driver.errors)
    return TraceDigest(
        scenario=scenario,
        seed=seed,
        trace_hash=hasher.hexdigest(),
        deliveries=hasher.deliveries,
        final_time_ms=cluster.kernel.now,
        completed_ops=driver.completed,
        errors=driver.errors,
    )


def _run_chaos_scenario(scenario: str, seed: int) -> TraceDigest:
    """One short seeded chaos schedule (crashes/partitions/loss/fail-slow)."""
    from repro.bench.chaos import ChaosParams, run_chaos_once

    hasher = _TraceHasher()
    final_time = {}

    def on_cluster(cluster: Cluster) -> None:
        cluster.network.delivery_probe = hasher.on_delivery
        final_time["cluster"] = cluster

    params = ChaosParams(
        n_clients=4,
        events=6,
        warmup_ms=800.0,
        chaos_window_ms=3_000.0,
        converge_deadline_ms=8_000.0,
    )
    result = run_chaos_once(seed, params, on_cluster=on_cluster)
    kernel_now = final_time["cluster"].kernel.now
    hasher.fold(
        kernel_now,
        result.completed_ops,
        result.client_errors,
        result.linearizable,
        result.converged,
        result.double_applies,
        result.crashes,
        result.restarts,
        result.partitions,
        result.digest,
    )
    return TraceDigest(
        scenario=scenario,
        seed=seed,
        trace_hash=hasher.hexdigest(),
        deliveries=hasher.deliveries,
        final_time_ms=kernel_now,
        completed_ops=result.completed_ops,
        errors=result.client_errors,
    )


def _run_breaker_scenario(scenario: str, seed: int) -> TraceDigest:
    """Write-behind breaker path: trip, absorb, crash-while-tripped, restart.

    A follower's disk crawls for the whole run; the attribution loop trips
    its breaker, acks come from the write-behind queue, then the node is
    killed while OPEN (the queue dies unfsynced) and restarted. The fold
    pins the breaker telemetry alongside the delivery trace, so the
    trip/absorb/retire/recover paths are all equivalence-checked.
    """
    from repro.bench.breaker import BACKEND_CONTENTION
    from repro.breaker import AttributionConfig, install_breaker_wals
    from repro.detector.mitigation import MitigationConfig, MitigationController
    from repro.raft.config import RaftConfig
    from repro.raft.service import deploy_depfast_raft, restart_raft_node

    cluster = Cluster(seed=seed)
    hasher = _TraceHasher()
    cluster.network.delivery_probe = hasher.on_delivery
    group = ["s1", "s2", "s3"]
    raft = deploy_depfast_raft(cluster, group, config=RaftConfig(preferred_leader="s1"))
    install_breaker_wals(cluster, group)
    controller = MitigationController(
        cluster,
        raft,
        detectors=[],
        config=MitigationConfig(
            window_ms=250.0,
            attribution=AttributionConfig(suspect_windows=1, min_samples=3),
        ),
    )
    controller.start()

    FaultInjector(cluster).inject_transient("s3", BACKEND_CONTENTION, 500.0, 3_000.0)
    cluster.kernel.schedule_at(1_800.0, lambda: cluster.node("s3").crash("breaker scenario"))
    cluster.kernel.schedule_at(2_300.0, lambda: restart_raft_node(cluster, raft, "s3"))

    workload = YcsbWorkload(
        cluster.rng.stream("ycsb"),
        record_count=1_000,
        value_size=100,
        update_fraction=1.0,
    )
    driver = ClosedLoopDriver(cluster, group, workload, n_clients=8)
    driver.start()
    cluster.run(until_ms=3_500.0)

    wal = cluster.node("s3").wal
    hasher.fold(
        cluster.kernel.now,
        driver.completed,
        driver.errors,
        controller.breaker_trips,
        controller.breaker_releases,
        raft["s3"].durable.lost_on_recovery,
        wal.state.value,
        wal.absorbed_syncs,
    )
    return TraceDigest(
        scenario=scenario,
        seed=seed,
        trace_hash=hasher.hexdigest(),
        deliveries=hasher.deliveries,
        final_time_ms=cluster.kernel.now,
        completed_ops=driver.completed,
        errors=driver.errors,
    )


def _run_fabric_scenario(scenario: str, seed: int) -> TraceDigest:
    """Sharded fabric: 4 Raft groups striped over 5 shared nodes.

    Mixed traffic (single-key ops routed by hash, plus cross-shard 2PC
    transactions) runs through the router while the most-shared node is
    fail-slow — so group-namespaced RPC dispatch, the striped placement,
    per-group elections, 2PC over groups and the co-location coupling
    paths are all part of the pinned trace.
    """
    from repro.fabric import FabricLoadDriver, deploy_fabric

    cluster = Cluster(seed=seed)
    hasher = _TraceHasher()
    cluster.network.delivery_probe = hasher.on_delivery

    fabric = deploy_fabric(cluster, n_groups=4, n_nodes=5, replicas=3)
    FaultInjector(cluster).inject(fabric.most_shared_node(), "cpu_slow")

    client = cluster.add_client("c1")
    client.start()
    router = fabric.router(client)
    driver = FabricLoadDriver(
        cluster,
        router,
        n_clients=8,
        n_keys=200,
        write_ratio=0.5,
        cross_txn_ratio=0.2,
    )
    driver.start()
    cluster.run(until_ms=3_000.0)

    hasher.fold(
        cluster.kernel.now,
        driver.completed,
        driver.errors,
        driver.txns_committed,
        driver.txns_aborted,
        tuple(sorted(router.routed.items())),
    )
    return TraceDigest(
        scenario=scenario,
        seed=seed,
        trace_hash=hasher.hexdigest(),
        deliveries=hasher.deliveries,
        final_time_ms=cluster.kernel.now,
        completed_ops=driver.completed,
        errors=driver.errors,
    )


SCENARIOS: Dict[str, Callable[..., TraceDigest]] = {
    "raft": _run_rsm_scenario,
    "hedged": _run_rsm_scenario,
    "paxos": _run_rsm_scenario,
    "chain": _run_rsm_scenario,
    "chaos": _run_chaos_scenario,
    "breaker": _run_breaker_scenario,
    "fabric": _run_fabric_scenario,
}


def run_traced(scenario: str, seed: int = DEFAULT_SEED) -> TraceDigest:
    """Run one named scenario with the trace probe installed."""
    runner = SCENARIOS.get(scenario)
    if runner is None:
        raise ValueError(f"unknown scenario {scenario!r}; known: {sorted(SCENARIOS)}")
    return runner(scenario, seed)


def write_golden(path: pathlib.Path = GOLDEN_PATH) -> Dict[str, dict]:
    """Capture all scenarios and write the golden fixture."""
    golden = {name: asdict(run_traced(name)) for name in sorted(SCENARIOS)}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    return golden


def load_golden(path: pathlib.Path = GOLDEN_PATH) -> Dict[str, dict]:
    return json.loads(path.read_text())


if __name__ == "__main__":  # pragma: no cover - capture utility
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--write-golden", action="store_true")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args()
    if args.write_golden:
        for name, entry in write_golden().items():
            print(f"{name}: {entry['trace_hash'][:16]}… ({entry['deliveries']} deliveries)")
    else:
        for name in sorted(SCENARIOS):
            digest = run_traced(name, seed=args.seed)
            print(
                f"{name}: hash={digest.trace_hash} deliveries={digest.deliveries} "
                f"t={digest.final_time_ms} ops={digest.completed_ops}"
            )
