"""The one experiment shape behind every matrix, and the table of matrices.

The paper's evaluation is a single experiment repeated (Figures 1 and 3):
deploy an RSM, warm it, inject a Table 1 fault on a chosen victim,
compare the post-onset window with the pre-onset one. This module owns
that shape — cell prologue, windowed sampling, recovery search, SPG
coupling sum, convergence + safety verdict, the on/off result — so a
matrix module holds only what differs: fault scheduling, per-run
counters, verdict predicate, row format. :func:`matrices` is the table
the CLI turns into subcommands and ``benchmarks/bench_*_matrix.py`` into
profiles.

**Order is behaviour.** Every step of :func:`deploy_cell` draws from the
cluster's seeded RNG streams or schedules kernel events, so moving one
changes every number downstream. Hooks, not flags, let a matrix attach
its defense where it always did: ``after_deploy`` runs before the
workload and clients exist (the breaker swaps WALs and starts its
controller there); whatever needs an elected leader (the mitigation
loop, fault scheduling) runs after the call returns.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.node import NodeSpec
from repro.faults.catalog import fault_names
from repro.raft.config import RaftConfig
from repro.raft.service import deploy_depfast_raft, wait_for_leader
from repro.trace.linearize import HistoryRecorder, check_linearizable
from repro.trace.spg import build_spg
from repro.workload.driver import ClosedLoopDriver
from repro.workload.ycsb import YcsbWorkload

# The fault name of the fault-free control row.
CONTROL = "none"

# Healthy baselines skip the first second: startup and election noise.
STARTUP_NOISE_MS = 1_000.0
SAMPLE_WINDOW_MS = 500.0
# Recovered = SUSTAIN_WINDOWS consecutive windows at or above this
# fraction of the healthy (pre-fault) per-window mean.
RECOVERY_FRACTION = 0.6
SUSTAIN_WINDOWS = 2
# "Faulted throughput" is the mean of the first windows after onset.
FAULTED_WINDOWS = 4
FLAP_CYCLES = 2


def smoke_profile() -> bool:
    """True when ``REPRO_BENCH_PROFILE=smoke`` asks benchmarks for the
    shortened profile (the CLI spells the same choice ``--smoke``)."""
    return os.environ.get("REPRO_BENCH_PROFILE", "paper") == "smoke"


@dataclass
class CellParams:
    """What a profile varies in every matrix: load and timeline."""

    n_clients: int
    fault_at_ms: float
    end_ms: float

    @property
    def fault_ms(self) -> float:
        """Faults run from onset to the horizon: the matrices ask what
        happens while a fault *persists*, not after it expires."""
        return self.end_ms - self.fault_at_ms


@dataclass
class OnOffParams(CellParams):
    """Defense-on/off matrices add the flapping row's pulse lengths."""

    flap_on_ms: float
    flap_off_ms: float


@dataclass
class Cell:
    cluster: Cluster
    group: List[str]  # group[0] is the preferred leader
    raft: Dict[str, Any]
    driver: ClosedLoopDriver  # built, not started
    attached: Any  # whatever ``after_deploy`` returned


def deploy_cell(
    seed: int,
    config: RaftConfig,
    *,
    n_clients: int,
    record_count: int,
    value_size: int,
    update_fraction: float,
    request_timeout_ms: float,
    group_size: int = 3,
    deploy: Callable[..., Dict[str, Any]] = deploy_depfast_raft,
    spec: Optional[NodeSpec] = None,
    on_cluster: Optional[Callable[[Cluster], None]] = None,
    after_deploy: Optional[Callable[[Cluster, Dict[str, Any], List[str]], Any]] = None,
    **driver_kwargs: Any,
) -> Cell:
    """Build one seeded cell up to its first leader; the caller schedules
    faults and starts the driver. ``on_cluster`` sees the bare cluster
    before any node exists; ``after_deploy`` runs before the workload."""
    cluster = Cluster(seed=seed)
    if on_cluster is not None:
        on_cluster(cluster)
    group = [f"s{i + 1}" for i in range(group_size)]
    config = replace(config, preferred_leader=group[0])
    raft = deploy(cluster, group, config=config, spec=spec)
    attached = after_deploy(cluster, raft, group) if after_deploy is not None else None
    workload = YcsbWorkload(
        cluster.rng.stream("workload"),
        record_count=record_count,
        value_size=value_size,
        update_fraction=update_fraction,
        distribution="uniform",
    )
    driver = ClosedLoopDriver(
        cluster,
        group,
        workload,
        n_clients=n_clients,
        think_time_ms=2.0,
        request_timeout_ms=request_timeout_ms,
        sessions=True,
        **driver_kwargs,
    )
    wait_for_leader(cluster, raft)
    return Cell(cluster, group, raft, driver, attached)


def on_off_config(**timing: float) -> RaftConfig:
    # Default protocol timing on purpose: tight chaos-style election
    # timeouts would let vanilla Raft "detect" a network-slow leader by
    # accident (delayed heartbeats blow a 600ms timeout), hiding exactly
    # the blind spot the detector loop is for.
    return RaftConfig(
        client_commit_timeout_ms=1_000.0,
        # Keep the log compacted: these runs commit tens of thousands of
        # entries.
        snapshot_threshold_entries=400,
        compaction_keep_entries=128,
        **timing,
    )


def deploy_on_off_cell(
    seed: int, params: OnOffParams, after_deploy: Optional[Callable[..., Any]] = None
) -> Cell:
    """The cell both defense-on/off matrices load: enough closed-loop
    pressure that a fail-slow leader or quorum visibly backs up."""
    return deploy_cell(
        seed,
        on_off_config(),
        n_clients=params.n_clients,
        record_count=10_000,
        value_size=1_000,
        update_fraction=0.8,
        request_timeout_ms=400.0,
        after_deploy=after_deploy,
    )


def run_windows(
    cell: Cell, end_ms: float, on_window: Optional[Callable[[float], None]] = None
) -> List[Tuple[float, float]]:
    """Start the driver and advance to ``end_ms`` in sampling windows;
    returns ``(window_end_ms, ops_per_s)`` per window."""
    cell.driver.start()
    samples: List[Tuple[float, float]] = []
    t = 0.0
    while t < end_ms:
        t_next = min(t + SAMPLE_WINDOW_MS, end_ms)
        cell.cluster.run(t_next)
        samples.append((t_next, cell.driver.report(t, t_next).throughput_ops_s))
        if on_window is not None:
            on_window(t_next)
        t = t_next
    cell.driver.stop()
    return samples


@dataclass
class Recovery:
    healthy_ops_s: float
    faulted_ops_s: float
    recovery_ms: float  # censored at horizon_ms when not recovered
    recovered: bool
    horizon_ms: float

    @property
    def censored(self) -> bool:
        return not self.recovered


def recovery_time(
    samples: Sequence[Tuple[float, float]],
    fault_at_ms: float,
    end_ms: float,
    control: bool = False,
) -> Recovery:
    """Onset to the first sustained window back above the threshold.

    Censored at the horizon when throughput never comes back (or there
    was no healthy baseline to come back to); a fault-free ``control``
    run has nothing to recover from and reports 0 ms.
    """
    horizon = end_ms - fault_at_ms
    baseline = [ops for end, ops in samples if STARTUP_NOISE_MS < end <= fault_at_ms]
    healthy = sum(baseline) / len(baseline) if baseline else 0.0
    tail = [(end, ops) for end, ops in samples if end > fault_at_ms]
    first = [ops for _, ops in tail[:FAULTED_WINDOWS]]
    faulted = sum(first) / len(first) if first else 0.0
    recovery_ms, recovered = horizon, False
    if control:
        recovery_ms, recovered = 0.0, True
    elif healthy > 0:
        threshold = RECOVERY_FRACTION * healthy
        for i in range(len(tail) - SUSTAIN_WINDOWS + 1):
            if all(ops >= threshold for _, ops in tail[i : i + SUSTAIN_WINDOWS]):
                recovery_ms, recovered = tail[i][0] - fault_at_ms, True
                break
    return Recovery(healthy, faulted, recovery_ms, recovered, horizon)


def since_onset(at_ms: Optional[float], fault_at_ms: float) -> Optional[float]:
    """A controller timestamp as latency after onset (None: before/never)."""
    if at_ms is None or at_ms < fault_at_ms:
        return None
    return at_ms - fault_at_ms


def coupling_into(
    cluster: Cluster, victim: str, sources: Optional[Iterable[str]] = None
) -> Tuple[float, int]:
    """SPG wait time flowing into ``victim`` (from ``sources`` only, if
    given) and how many of those edges are red — single-source waits,
    the coupling signature."""
    wanted = None if sources is None else set(sources)
    wait_ms, red_edges = 0.0, 0
    for src, dst, data in build_spg(cluster.tracer.records).edges(data=True):
        if dst == victim and (wanted is None or src in wanted):
            wait_ms += data["total_wait_ms"]
            if data["color"] == "red":
                red_edges += 1
    return wait_ms, red_edges


def wait_converged(cell: Cell, deadline_ms: float) -> bool:
    """Run until every replica is up, applied the same prefix and agrees
    on the state digest — or the deadline passes."""
    cluster, raft = cell.cluster, cell.raft
    while cluster.kernel.now < deadline_ms:
        cluster.run(min(deadline_ms, cluster.kernel.now + 250.0))
        if cluster.crashed_nodes():
            continue
        nodes = [raft[node_id] for node_id in cell.group]
        if (
            len({node.last_applied for node in nodes}) == 1
            and len({node.commit_index for node in nodes}) == 1
            and len({node.kv.stable_digest() for node in nodes}) == 1
        ):
            return True
    return False


@dataclass
class SafetyVerdict:
    """What a run that crashed or partitioned nodes must still uphold."""

    seed: int
    linearizable: bool
    converged: bool
    double_applies: int
    checked_ops: int
    indeterminate_ops: int
    completed_ops: int
    client_errors: int
    digest: str

    @property
    def ok(self) -> bool:
        return self.linearizable and self.converged and self.double_applies == 0

    def flags(self) -> List[str]:
        return [
            "linearizable" if self.linearizable else "NOT-LINEARIZABLE",
            "converged" if self.converged else "NOT-CONVERGED",
            "exactly-once"
            if self.double_applies == 0
            else f"{self.double_applies} DOUBLE-APPLIES",
        ]


def safety_verdict(
    cell: Cell, seed: int, history: HistoryRecorder, deadline_ms: float
) -> Dict[str, Any]:
    """Converge, then check the recorded history (Wing–Gong) and
    exactly-once apply; returns the :class:`SafetyVerdict` fields."""
    converged = wait_converged(cell, deadline_ms)
    verdict = check_linearizable(history)
    return dict(
        seed=seed,
        linearizable=verdict.ok,
        converged=converged,
        double_applies=sum(cell.raft[n].kv.double_applies for n in cell.group),
        checked_ops=verdict.checked_ops,
        indeterminate_ops=verdict.indeterminate_ops,
        completed_ops=cell.driver.completed,
        client_errors=cell.driver.errors,
        digest=cell.raft[cell.group[0]].kv.stable_digest(),
    )


@dataclass
class OnOffRun(Recovery):
    fault: str
    on: bool
    seed: int


def fmt_ms(value: Optional[float]) -> str:
    return f"{value:7.0f}ms" if value is not None else "      --"


def render_on_off_run(
    run: OnOffRun, label: str, times: Dict[str, Optional[float]], counters: str
) -> str:
    """One row: ``label=on|off``, named latencies, recovery, throughput."""
    shown = " ".join(f"{name}={fmt_ms(ms)}" for name, ms in times.items())
    recover = f"{run.recovery_ms:7.0f}ms" + (" (censored)" if run.censored else "")
    return (
        f"  {run.fault:16s} {label}={'on ' if run.on else 'off'} {shown} "
        f"recover={recover}  "
        f"tput {run.faulted_ops_s:6.0f}/{run.healthy_ops_s:6.0f} ops/s  {counters}"
    )


@dataclass
class OnOffMatrix:
    """Every fault with the defense on and off, plus the fault-free control."""

    pairs: List[Tuple[Any, Any]]  # (on, off) per fault
    control: Any

    @classmethod
    def run(cls, run_once: Callable[..., Any], faults: Sequence[str], seed: int, params: Any):
        """``run_once(fault, on, seed, params)`` for every pair, then the control."""
        pairs = [
            (run_once(fault, True, seed, params), run_once(fault, False, seed, params))
            for fault in faults
        ]
        return cls(pairs=pairs, control=run_once(CONTROL, True, seed, params))

    def speedup(self, fault: str) -> float:
        """Throughput-recovery speedup of defense-on over defense-off."""
        for on, off in self.pairs:
            if on.fault == fault:
                if on.recovery_ms <= 0:
                    return float("inf")
                return off.recovery_ms / on.recovery_ms
        raise KeyError(fault)

    def speedup_text(self, fault: str) -> str:
        speedup = self.speedup(fault)
        return "inf" if speedup == float("inf") else f"{speedup:.1f}x"

    @property
    def faults_at_2x(self) -> List[str]:
        return [on.fault for on, _ in self.pairs if self.speedup(on.fault) >= 2.0]


def listed(names: Sequence[str]) -> str:
    return ", ".join(names) if names else "none"


def verdict(ok: bool) -> str:
    return "MATRIX OK" if ok else "MATRIX BELOW TARGET"


@dataclass
class Matrix:
    """One row: everything the CLI and the benchmarks need to run it."""

    name: str  # the CLI subcommand
    help: str
    faults: List[str]  # the paper profile's fault list; also what --faults accepts
    paper: Any  # Params
    smoke: Any
    smoke_faults: List[str]
    # run(faults, seed, params, **{kwarg: bool}) -> result with ``.ok``
    run: Callable[..., Any]
    render: Callable[[Any], str]
    # (flag, run kwarg it switches off, help)
    flags: Sequence[Tuple[str, str, str]] = ()
    # Smoke-only precondition: seed -> (ok, line to print).
    smoke_gate: Optional[Callable[[int], Tuple[bool, str]]] = None

    def profile(self, smoke: bool) -> Tuple[Any, List[str]]:
        """The one place ``paper`` vs ``smoke`` is resolved."""
        return (self.smoke, self.smoke_faults) if smoke else (self.paper, self.faults)


def matrices() -> Dict[str, Matrix]:
    """The table of matrices. Adding a defense is adding a row.

    Built on call, not at import: each row's module builds on the
    helpers above, so importing them at the top would be circular.
    """
    from repro.bench import breaker, fabric, hedging, mitigation

    on_off_paper = OnOffParams(32, 3_000.0, 20_000.0, flap_on_ms=4_000.0, flap_off_ms=3_000.0)
    on_off_smoke = OnOffParams(16, 2_000.0, 12_000.0, flap_on_ms=3_000.0, flap_off_ms=2_000.0)
    table1 = fault_names()
    rows = [
        Matrix(
            name="mitigate",
            help="mitigation matrix: detector-on vs -off across Table 1 leader faults",
            faults=table1,
            paper=on_off_paper,
            smoke=on_off_smoke,
            smoke_faults=table1,
            run=mitigation.run_matrix,
            render=mitigation.render_matrix,
            flags=[("--no-flapping", "include_flapping", "skip the flapping-fault row")],
        ),
        Matrix(
            name="hedge",
            help="hedging matrix: four fail-slow defenses raced across follower faults",
            faults=table1,
            paper=hedging.HedgingParams(24, 2_000.0, 8_000.0, record_count=2_000),
            smoke=hedging.HedgingParams(12, 1_500.0, 5_000.0, record_count=1_000),
            smoke_faults=["cpu_slow", "network_slow"],
            run=hedging.run_matrix,
            render=hedging.render_matrix,
        ),
        Matrix(
            name="breaker",
            help="breaker matrix: write-behind WAL breaker on vs off across disk faults",
            faults=["disk_contention", "fsync_jitter", "disk_flapping"],
            paper=on_off_paper,
            smoke=on_off_smoke,
            smoke_faults=["disk_contention"],
            run=breaker.run_matrix,
            render=breaker.render_matrix,
            flags=[
                (
                    "--no-chaos",
                    "include_chaos",
                    "skip the crash-during-tripped-breaker chaos row",
                )
            ],
        ),
        Matrix(
            name="fabric",
            help="fabric matrix: sharded multi-Raft coupling under one fail-slow node "
            "(--smoke first double-runs the seeded fabric scenario and fails on "
            "any trace-hash mismatch)",
            faults=table1,
            paper=fabric.FabricParams(16, 2_500.0, 7_000.0, n_keys=400, warmup_ms=1_500.0),
            smoke=fabric.FabricParams(12, 1_800.0, 4_800.0, n_keys=200, warmup_ms=1_000.0),
            smoke_faults=["cpu_slow", "disk_slow"],
            run=fabric.run_matrix,
            render=fabric.render_matrix,
            smoke_gate=fabric.determinism_gate,
        ),
    ]
    return {row.name: row for row in rows}
