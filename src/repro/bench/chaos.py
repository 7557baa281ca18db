"""Chaos campaign: nemesis schedules + safety verdicts over many seeds.

One chaos *run* deploys a DepFastRaft group, points session-enabled
closed-loop clients at it, lets a seeded :class:`~repro.faults.chaos.Nemesis`
compose crash–restarts, partitions, message loss and Table 1 fail-slow
transients for a window, heals everything, waits for convergence, and
then renders verdicts:

* **linearizable** — the recorded client history passes the Wing–Gong
  checker (:mod:`repro.trace.linearize`);
* **exactly-once** — no client request id was applied twice by any
  replica's state machine (session dedup held across retries, failover
  and recovery);
* **converged** — after the final heal every replica applied the same
  prefix and their state digests agree;
* **availability** — throughput during the chaos window vs. the healthy
  warm-up, plus errors (an availability *report*, not an assertion: a
  run with the leader crashed is expected to dip).

A *campaign* repeats this across seeds and group sizes; one failing seed
fails the campaign and prints its nemesis log for replay. Everything
downstream of the seed is deterministic, so a verdict is reproducible
with ``python -m repro chaos --seed N``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Sequence

from repro.bench.matrix import SafetyVerdict, deploy_cell, safety_verdict
from repro.cluster.cluster import Cluster
from repro.faults.chaos import Nemesis
from repro.faults.injector import FaultInjector
from repro.raft.config import RaftConfig
from repro.trace.linearize import HistoryRecorder


@dataclass
class ChaosParams:
    """Knobs for one chaos run (defaults sized for a few wall-seconds)."""

    group_size: int = 3
    n_clients: int = 6
    warmup_ms: float = 1_500.0
    chaos_window_ms: float = 8_000.0
    converge_deadline_ms: float = 10_000.0
    events: int = 10
    majority_guard: bool = True


@dataclass
class ChaosRunResult(SafetyVerdict):
    group_size: int
    duplicates_deduped: int
    crashes: int
    restarts: int
    partitions: int
    heals: int
    skipped_events: int
    recoveries: int
    lost_unacked_entries: int
    healthy_throughput_ops_s: float
    chaos_throughput_ops_s: float
    nemesis_log: List = field(default_factory=list)

    @property
    def availability(self) -> float:
        if self.healthy_throughput_ops_s <= 0:
            return 0.0
        return self.chaos_throughput_ops_s / self.healthy_throughput_ops_s


def run_chaos_once(
    seed: int,
    params: Optional[ChaosParams] = None,
    on_cluster: Optional[Callable[[Cluster], None]] = None,
) -> ChaosRunResult:
    """One seeded chaos run; deterministic end to end.

    ``on_cluster`` is called with the freshly-built cluster before any
    node is deployed — the determinism harness uses it to install
    observation probes without perturbing the run.
    """
    params = params or ChaosParams()
    history = HistoryRecorder()
    cell = deploy_cell(
        seed,
        # Tighter timing than the measurement experiments: chaos windows
        # are short, and we want failover (not its timeout constants) to
        # dominate the run.
        RaftConfig(
            heartbeat_interval_ms=50.0,
            election_timeout_min_ms=300.0,
            election_timeout_max_ms=600.0,
            client_commit_timeout_ms=1_000.0,
            read_mode="read_index",
            snapshot_threshold_entries=400,
            compaction_keep_entries=128,
        ),
        n_clients=params.n_clients,
        record_count=32,  # small keyspace → real read/write races
        value_size=16,
        update_fraction=0.6,
        request_timeout_ms=400.0,
        group_size=params.group_size,
        on_cluster=on_cluster,
        backoff_ms=20.0,
        max_attempts=40,
        history=history,
    )
    cluster, raft, driver = cell.cluster, cell.raft, cell.driver
    driver.start()
    cluster.run(params.warmup_ms)

    nemesis = Nemesis(
        cluster,
        raft,
        injector=FaultInjector(cluster),
        majority_guard=params.majority_guard,
    )
    chaos_start = params.warmup_ms
    chaos_end = chaos_start + params.chaos_window_ms
    nemesis.random_schedule(
        cluster.rng.stream("nemesis"), chaos_start, chaos_end, events=params.events
    )
    cluster.run(chaos_end)
    nemesis.heal_everything()

    # Stop new traffic, drain in-flight operations, then wait until every
    # replica applied the same prefix and the digests agree.
    driver.stop()
    safety = safety_verdict(cell, seed, history, chaos_end + params.converge_deadline_ms)
    nodes = [raft[node_id] for node_id in cell.group]
    return ChaosRunResult(
        **safety,
        group_size=params.group_size,
        duplicates_deduped=sum(node.kv.duplicates_deduped for node in nodes),
        crashes=nemesis.crashes,
        restarts=nemesis.restarts,
        partitions=nemesis.partitions,
        heals=nemesis.heals,
        skipped_events=nemesis.skipped,
        recoveries=sum(node.durable.recoveries for node in nodes),
        lost_unacked_entries=sum(node.durable.lost_on_recovery for node in nodes),
        healthy_throughput_ops_s=driver.report(0.0, chaos_start).throughput_ops_s,
        chaos_throughput_ops_s=driver.report(chaos_start, chaos_end).throughput_ops_s,
        nemesis_log=list(nemesis.log),
    )


@dataclass
class CampaignResult:
    runs: List[ChaosRunResult]

    @property
    def ok(self) -> bool:
        return all(run.ok for run in self.runs)

    @property
    def failures(self) -> List[ChaosRunResult]:
        return [run for run in self.runs if not run.ok]


def run_chaos_campaign(
    seeds: Sequence[int],
    group_sizes: Sequence[int] = (3, 5),
    params: Optional[ChaosParams] = None,
) -> CampaignResult:
    """The acceptance campaign: every (seed, group size) must be safe."""
    base = params or ChaosParams()
    return CampaignResult(
        runs=[
            run_chaos_once(seed, replace(base, group_size=group_size))
            for group_size in group_sizes
            for seed in seeds
        ]
    )


def render_chaos_run(run: ChaosRunResult, verbose: bool = False) -> str:
    lines = [
        f"seed={run.seed} n={run.group_size}: {' '.join(run.flags())}",
        f"  ops: {run.completed_ops} completed, {run.checked_ops} checked, "
        f"{run.indeterminate_ops} indeterminate, {run.duplicates_deduped} retries deduped, "
        f"{run.client_errors} gave up",
        f"  nemesis: {run.crashes} crashes / {run.restarts} restarts "
        f"({run.recoveries} recoveries, {run.lost_unacked_entries} unacked entries dropped), "
        f"{run.partitions} partitions / {run.heals} heals, {run.skipped_events} skipped",
        f"  availability during chaos: {100 * run.availability:.0f}% "
        f"({run.chaos_throughput_ops_s:.0f} of {run.healthy_throughput_ops_s:.0f} ops/s)  "
        f"digest={run.digest}",
    ]
    if verbose or not run.ok:
        for t, kind, detail in run.nemesis_log:
            lines.append(f"    {t:9.1f}ms {kind:10s} {detail}")
    return "\n".join(lines)


def render_chaos_campaign(result: CampaignResult, verbose: bool = False) -> str:
    lines = [render_chaos_run(run, verbose=verbose) for run in result.runs]
    verdict = "CAMPAIGN SAFE" if result.ok else f"{len(result.failures)} UNSAFE RUNS"
    lines.append(
        f"{verdict}: {len(result.runs)} runs, "
        f"{sum(run.crashes for run in result.runs)} crashes, "
        f"{sum(run.partitions for run in result.runs)} partitions, "
        f"{sum(run.duplicates_deduped for run in result.runs)} retries deduped, "
        f"0 tolerated double-applies"
    )
    return "\n".join(lines)
