"""Breaker matrix: write-behind circuit breaker on vs off across disk faults.

The mitigation matrix (PR 6) showed why this bench targets *followers*:
a single fail-slow disk on one member of a 3-node DepFast group is fully
hidden by the quorum (2-of-{local fsync, f1, f2} commits without it), so
leader-disk rows recover at 1.0x with zero damage. The scenario where a
sick disk actually hurts — and the common production one — is a **shared
storage backend**: both followers' disks degrade together, every commit
quorum must include at least one slow-disk follower ack, and the
follower's AppendEntries handler fsyncs before replying. Throughput
collapses to the crawling device's drain rate.

Each cell replays one disk fault on both followers, twice: once with the
full attribution + breaker loop attached, once bare. Reported per run:

* **detection latency** — fault onset to the first disk-attribution
  suspicion; **trip latency** — onset to the first breaker trip;
* **throughput-recovery time** — onset to the first sustained window back
  above the recovery threshold of the healthy baseline (censored at the
  horizon when it never recovers — the expected breaker-off outcome);
* **staleness high-water marks** — max queued bytes and max queue-head
  age across all breaker WALs, which must stay within the configured
  bounds;
* **false trips** — any trip in the fault-free control run (must be 0).

The rows are deliberately harsher than the Table 1 catalog defaults
(which model one cgroup-limited process, not a dying shared backend):
fail-slow studies place faulty-disk throughput at 1% or less of rated.

A separate **crash-during-tripped-breaker chaos run** kills one follower
while its breaker is OPEN, restarts it, and checks the §4 safety story:
the write-behind queue dies with the process (``lost_on_recovery`` > 0),
the group still converges, and the recorded client history stays
linearizable (Wing–Gong).

The cell shape (deploy, load, windows, recovery search, convergence) is
:mod:`repro.bench.matrix`'s. Everything is seeded-deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.bench.matrix import (
    CONTROL,
    FLAP_CYCLES,
    OnOffMatrix,
    OnOffParams,
    OnOffRun,
    SafetyVerdict,
    deploy_cell,
    deploy_on_off_cell,
    listed,
    on_off_config,
    recovery_time,
    render_on_off_run,
    run_windows,
    safety_verdict,
    since_onset,
    verdict,
)
from repro.breaker.attribution import AttributionConfig
from repro.breaker.write_behind import (
    BreakerConfig,
    BreakerState,
    CircuitBreakerWal,
    install_breaker_wals,
)
from repro.detector.mitigation import MitigationConfig, MitigationController
from repro.detector.signal import DISK
from repro.faults.catalog import FaultSpec, FaultType
from repro.faults.injector import FaultInjector
from repro.raft.service import restart_raft_node
from repro.trace.linearize import HistoryRecorder

# Shared-backend disk faults: a dying storage backend, not a cgroup cap.
# At 200 MB/s rated, 0.997 contention / 0.003 cap both leave ~0.6 MB/s —
# about 1.5 minutes per write-behind staleness budget of 64 MB.
BACKEND_CONTENTION = FaultSpec(
    FaultType.DISK_CONTENTION,
    description="shared storage backend contention: effective disk ~0.6 MB/s",
    params={"contender_load": 0.997},
)
FSYNC_STALL = FaultSpec(
    FaultType.DISK_SLOW,
    description="fsync stall pulse: bandwidth pinned to ~0.6 MB/s",
    params={"cap_fraction": 0.003},
)
# fsync_jitter row: short stall pulses — every sample window contains
# one, so a jittery disk cannot look healthy between stalls.
JITTER_ON_MS = 400.0
JITTER_OFF_MS = 200.0

BREAKER = BreakerConfig()
# Trip on the first suspicious window instead of the library-default
# two: recovery time is dominated by the pre-trip backlog the leader
# streams into the followers' disk queues (inflow x trip latency /
# sick drain rate), so every saved window is worth seconds. The
# fault-free control row asserts this costs no false trips.
MITIGATION = MitigationConfig(attribution=AttributionConfig(suspect_windows=1))


def _attach_breaker(cluster, raft, group) -> MitigationController:
    """Swap in write-behind WALs and start the attribution loop — before
    the workload exists, so its RNG stream and clients come after."""
    install_breaker_wals(cluster, group, config=BREAKER)
    controller = MitigationController(cluster, raft, detectors=[], config=MITIGATION)
    controller.start()
    return controller


@dataclass
class BreakerRun(OnOffRun):
    detection_ms: Optional[float]  # None = disks never suspected
    trip_ms: Optional[float]       # None = breaker never tripped
    trips: int
    releases: int
    demotions: int
    absorbed_syncs: int
    queued_bytes_hwm: int
    lag_ms_hwm: float
    false_trips: int               # control row only

    @property
    def staleness_ok(self) -> bool:
        return (
            self.queued_bytes_hwm <= BREAKER.max_queued_bytes
            and self.lag_ms_hwm <= BREAKER.max_lag_ms
        )


def _schedule_fault(
    injector: FaultInjector, params: OnOffParams, fault: str, followers: List[str]
) -> None:
    start, horizon = params.fault_at_ms, params.end_ms
    pulses = []  # (spec, at, duration), laid on every follower
    if fault == "disk_contention":
        pulses.append((BACKEND_CONTENTION, start, params.fault_ms))
    elif fault == "fsync_jitter":
        t = start
        while t < horizon:
            pulses.append((FSYNC_STALL, t, JITTER_ON_MS))
            t += JITTER_ON_MS + JITTER_OFF_MS
    elif fault == "disk_flapping":
        period = params.flap_on_ms + params.flap_off_ms
        for cycle in range(FLAP_CYCLES):
            pulses.append((BACKEND_CONTENTION, start + cycle * period, params.flap_on_ms))
    elif fault != CONTROL:
        raise KeyError(f"unknown breaker fault {fault!r}")
    for spec, at, duration in pulses:
        for node_id in followers:
            injector.inject_transient(node_id, spec, at, duration)


def run_once(fault: str, on: bool, seed: int, params: OnOffParams) -> BreakerRun:
    """One seeded fault-vs-breaker run; deterministic end to end."""
    cell = deploy_on_off_cell(seed, params, after_deploy=_attach_breaker if on else None)
    controller: Optional[MitigationController] = cell.attached
    # The shared-backend story: every follower's disk degrades; the
    # (preferred) leader's own device stays healthy as the baseline.
    _schedule_fault(FaultInjector(cell.cluster), params, fault, cell.group[1:])

    samples = run_windows(cell, params.end_ms)
    fault_at = params.fault_at_ms
    recovery = recovery_time(samples, fault_at, params.end_ms, control=fault == CONTROL)

    detection_ms: Optional[float] = None
    trip_ms: Optional[float] = None
    trips = releases = demotions = 0
    if controller is not None:
        detection_ms = since_onset(controller.signal.first_suspected_at(DISK), fault_at)
        trip_ms = since_onset(controller.first_action_at(("breaker_trip",)), fault_at)
        trips = controller.breaker_trips
        releases = controller.breaker_releases
        demotions = controller.demotions

    wals = [cell.cluster.node(node_id).wal for node_id in cell.group]
    wals = [wal for wal in wals if isinstance(wal, CircuitBreakerWal)]
    return BreakerRun(
        **vars(recovery),
        fault=fault,
        on=on,
        seed=seed,
        detection_ms=detection_ms,
        trip_ms=trip_ms,
        trips=trips,
        releases=releases,
        demotions=demotions,
        absorbed_syncs=sum(wal.absorbed_syncs for wal in wals),
        queued_bytes_hwm=max((wal.queued_bytes_hwm for wal in wals), default=0),
        lag_ms_hwm=max((wal.lag_ms_hwm for wal in wals), default=0.0),
        false_trips=trips if fault == CONTROL else 0,
    )


# ----------------------------------------------------------------------
# Crash-during-tripped-breaker chaos
# ----------------------------------------------------------------------
@dataclass
class BreakerChaosResult(SafetyVerdict):
    breaker_open_at_crash: bool
    queued_bytes_at_crash: int
    lost_on_recovery: int
    trips: int


def run_chaos(seed: int, params: OnOffParams) -> BreakerChaosResult:
    """Crash one follower while its breaker is OPEN; check safety.

    Timeline: backend contention hits both followers at ``fault_at``;
    once tripped, the crashed follower's write-behind queue dies with the
    process. It restarts two seconds later, recovers only what was
    actually fsynced, and the group must converge (and the client history
    stay linearizable) after the fault clears.
    """
    history = HistoryRecorder()
    cell = deploy_cell(
        seed,
        # Chaos-style election timing so failover, not timeout constants,
        # dominates the crash window.
        on_off_config(
            heartbeat_interval_ms=50.0,
            election_timeout_min_ms=300.0,
            election_timeout_max_ms=600.0,
        ),
        n_clients=8,
        record_count=64,
        value_size=1_000,
        update_fraction=0.6,
        request_timeout_ms=400.0,
        after_deploy=_attach_breaker,
        backoff_ms=20.0,
        max_attempts=40,
        history=history,
    )
    cluster, raft = cell.cluster, cell.raft
    followers = cell.group[1:]
    victim = followers[0]
    fault_at = params.fault_at_ms
    # Heal well before the horizon so convergence happens on a healthy
    # backend; crash 60% of the way through the fault window (the breaker
    # is reliably OPEN by then) and restart while the disk is still sick.
    clear_at = params.end_ms - 4_000.0
    injector = FaultInjector(cluster)
    for node_id in followers:
        injector.inject_transient(node_id, BACKEND_CONTENTION, fault_at, clear_at - fault_at)

    crash_state: Dict[str, object] = {}

    def _crash_victim() -> None:
        wal = cluster.node(victim).wal
        crash_state["open"] = (
            isinstance(wal, CircuitBreakerWal) and wal.state == BreakerState.OPEN
        )
        crash_state["queued"] = getattr(wal, "queued_bytes", 0)
        cluster.node(victim).crash("chaos: crash while breaker tripped")

    crash_at = fault_at + 0.6 * (clear_at - fault_at)
    cluster.kernel.schedule_at(crash_at, _crash_victim)
    cluster.kernel.schedule_at(
        crash_at + 2_000.0, lambda: restart_raft_node(cluster, raft, victim)
    )

    cell.driver.start()
    cluster.run(params.end_ms)
    cell.driver.stop()

    return BreakerChaosResult(
        **safety_verdict(cell, seed, history, params.end_ms + 10_000.0),
        breaker_open_at_crash=bool(crash_state.get("open", False)),
        queued_bytes_at_crash=int(crash_state.get("queued", 0)),
        lost_on_recovery=raft[victim].durable.lost_on_recovery,
        trips=cell.attached.breaker_trips,
    )


# ----------------------------------------------------------------------
# The matrix
# ----------------------------------------------------------------------
@dataclass
class BreakerMatrix(OnOffMatrix):
    chaos: Optional[BreakerChaosResult] = None

    @property
    def staleness_ok(self) -> bool:
        return all(on.staleness_ok for on, _ in self.pairs) and self.control.staleness_ok

    @property
    def ok(self) -> bool:
        return (
            len(self.faults_at_2x) == len(self.pairs)
            and self.control.false_trips == 0
            and self.staleness_ok
            and (self.chaos is None or self.chaos.ok)
        )


def run_matrix(
    faults: Sequence[str], seed: int, params: OnOffParams, include_chaos: bool = True
) -> BreakerMatrix:
    """The full campaign: every fault on/off, plus control and chaos."""
    result = BreakerMatrix.run(run_once, faults, seed, params)
    if include_chaos:
        result.chaos = run_chaos(seed, params)
    return result


def render_run(run: BreakerRun) -> str:
    counters = f"trips={run.trips} releases={run.releases} demotions={run.demotions}"
    if run.on and (run.trips or run.absorbed_syncs):
        counters += (
            f"  queue hwm {run.queued_bytes_hwm / 1e6:.1f}MB"
            f"/{BREAKER.max_queued_bytes / 1e6:.0f}MB"
            f" lag hwm {run.lag_ms_hwm / 1e3:.1f}s/{BREAKER.max_lag_ms / 1e3:.0f}s"
        )
    return render_on_off_run(
        run, "breaker", {"detect": run.detection_ms, "trip": run.trip_ms}, counters
    )


def render_chaos(run: BreakerChaosResult) -> str:
    flags = run.flags() + [
        "crashed-while-OPEN" if run.breaker_open_at_crash else "crashed-while-closed"
    ]
    return (
        f"  crash-under-trip  {' '.join(flags)}\n"
        f"    queued at crash: {run.queued_bytes_at_crash / 1e6:.2f}MB -> "
        f"{run.lost_on_recovery} entries lost on recovery; trips={run.trips}, "
        f"{run.completed_ops} ops ({run.checked_ops} checked, "
        f"{run.indeterminate_ops} indeterminate, {run.client_errors} gave up)  "
        f"digest={run.digest}"
    )


def render_matrix(result: BreakerMatrix) -> str:
    lines = ["breaker matrix (both-follower disk faults, write-behind on vs off):"]
    for on, off in result.pairs:
        lines += [render_run(on), render_run(off)]
        bound = "within bounds" if on.staleness_ok else "STALENESS BOUND EXCEEDED"
        lines.append(
            f"    -> recovery speedup {result.speedup_text(on.fault)}; staleness {bound}"
        )
    lines.append(render_run(result.control))
    lines.append(f"    -> false trips on fault-free control: {result.control.false_trips}")
    if result.chaos is not None:
        lines.append(render_chaos(result.chaos))
    lines.append(
        f"{verdict(result.ok)}: {len(result.faults_at_2x)}/{len(result.pairs)} disk faults "
        f">=2x faster recovery with the breaker on ({listed(result.faults_at_2x)})"
    )
    return "\n".join(lines)
