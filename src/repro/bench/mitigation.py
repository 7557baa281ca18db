"""Mitigation matrix: detector-on vs detector-off across Table 1 faults.

Each cell of the matrix replays one Table 1 fail-slow fault against the
group's leader under a closed-loop workload, twice: once with the
detection/mitigation loop attached (follower-side leader detectors +
the :class:`~repro.detector.mitigation.MitigationController`) and once
bare. Per run we report

* **detection latency** — fault onset to the first suspicion (detector
  verdict or health-signal hysteresis edge);
* **mitigation time** — fault onset to the first effective action
  (leadership moved off the faulted node, or a controller demotion);
* **throughput-recovery time** — fault onset to the first sustained
  window back above the recovery threshold, censored at the horizon when
  the run never recovers (the expected detector-off outcome: a fail-slow
  leader stays leader);
* **false-positive demotions** — any demotion or suspicion in the
  fault-free control run (must be zero).

A *flapping* row drives the leader slow/healthy/slow via
:meth:`~repro.faults.chaos.Nemesis.schedule_flapping` and additionally
reports how many distinct suspicions were raised — a one-shot detector
scores 1 and sleeps through later pulses.

The cell shape (deploy, load, windows, recovery search) is
:mod:`repro.bench.matrix`'s; everything is seeded-deterministic: one
(seed, fault, detector_on) triple always produces the same numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.bench.matrix import (
    CONTROL,
    FLAP_CYCLES,
    OnOffMatrix,
    OnOffParams,
    OnOffRun,
    deploy_on_off_cell,
    listed,
    recovery_time,
    render_on_off_run,
    run_windows,
    since_onset,
    verdict,
)
from repro.detector.leader_detector import DetectorConfig
from repro.detector.mitigation import deploy_mitigation
from repro.faults.chaos import Nemesis
from repro.faults.injector import FaultInjector
from repro.raft.service import find_leader

# The sentinel fault name of the flapping row.
FLAPPING = "flapping"

# Slightly more sensitive crawl threshold than the detector default:
# memory contention degrades commits to ~1/3 of healthy, right at the
# stock 0.3 boundary. Healthy rate tracks the learned best rate closely,
# so 0.4 stays far from false-positive territory (the control row
# asserts that).
DETECTOR = DetectorConfig(commit_rate_fraction=0.4)


@dataclass
class MitigationRun(OnOffRun):
    detection_ms: Optional[float]  # None = never detected
    mitigation_ms: Optional[float]  # None = leadership never moved / no action
    suspicions: int
    transfers: int
    demotions: int
    promotions: int
    false_positive_demotions: int


def run_once(fault: str, on: bool, seed: int, params: OnOffParams) -> MitigationRun:
    """One seeded fault-vs-loop run; deterministic end to end.

    ``fault`` is a Table 1 name, ``"none"`` for the fault-free control,
    or ``"flapping"`` for the pulsed-leader-slowness row.
    """
    cell = deploy_on_off_cell(seed, params)
    controller = None
    if on:
        _detectors, controller = deploy_mitigation(
            cell.cluster, cell.raft, detector_config=DETECTOR
        )

    injector = FaultInjector(cell.cluster)
    fault_node = cell.group[0]  # the preferred leader
    fault_at = params.fault_at_ms
    if fault == FLAPPING:
        nemesis = Nemesis(cell.cluster, cell.raft, injector=injector)
        nemesis.schedule_flapping(
            "__leader__", "cpu_slow", fault_at, params.flap_on_ms, params.flap_off_ms, FLAP_CYCLES
        )
    elif fault != CONTROL:
        injector.inject_transient(fault_node, fault, fault_at, params.fault_ms)

    leaders: List[Tuple[float, Optional[str]]] = []  # (window end, leader id)

    def sample_leader(end: float) -> None:
        leader = find_leader(cell.raft)
        leaders.append((end, leader.id if leader is not None else None))

    samples = run_windows(cell, params.end_ms, on_window=sample_leader)
    recovery = recovery_time(samples, fault_at, params.end_ms, control=fault == CONTROL)

    # Mitigation: when did leadership actually move off the faulted node
    # (or, failing that, when did the controller first act)?
    mitigation_ms: Optional[float] = None
    for end, leader in leaders:
        if end > fault_at and leader is not None and leader != fault_node:
            mitigation_ms = end - fault_at
            break
    detection_ms: Optional[float] = None
    suspicions = transfers = demotions = promotions = 0
    if controller is not None:
        detection_ms = since_onset(controller.first_detection_at(), fault_at)
        suspicions = sum(len(d.suspicions) for d in controller.detectors)
        transfers = controller.transfers
        demotions = controller.demotions
        promotions = controller.promotions
        if mitigation_ms is None:
            mitigation_ms = since_onset(controller.first_action_at(), fault_at)

    return MitigationRun(
        **vars(recovery),
        fault=fault,
        on=on,
        seed=seed,
        detection_ms=detection_ms,
        mitigation_ms=mitigation_ms,
        suspicions=suspicions,
        transfers=transfers,
        demotions=demotions,
        promotions=promotions,
        false_positive_demotions=demotions + suspicions if fault == CONTROL else 0,
    )


@dataclass
class MitigationMatrix(OnOffMatrix):
    flapping: Optional[MitigationRun] = None

    @property
    def target_at_2x(self) -> int:
        # The acceptance bar is >=3 fault types on the full Table 1
        # matrix; a user-narrowed subset scales down to "all requested"
        # so a clean 2/2 run isn't reported as below target.
        return min(3, len(self.pairs))

    @property
    def ok(self) -> bool:
        return (
            len(self.faults_at_2x) >= self.target_at_2x
            and self.control.false_positive_demotions == 0
        )


def run_matrix(
    faults: Sequence[str], seed: int, params: OnOffParams, include_flapping: bool = True
) -> MitigationMatrix:
    """The full campaign: every fault on/off, plus control and flapping."""
    result = MitigationMatrix.run(run_once, faults, seed, params)
    if include_flapping:
        result.flapping = run_once(FLAPPING, True, seed, params)
    return result


def render_run(run: MitigationRun) -> str:
    return render_on_off_run(
        run,
        "loop",
        {"detect": run.detection_ms, "mitigate": run.mitigation_ms},
        f"suspicions={run.suspicions} transfers={run.transfers} "
        f"demotions={run.demotions} promotions={run.promotions}",
    )


def render_matrix(result: MitigationMatrix) -> str:
    lines = ["mitigation matrix (leader faults, detector on vs off):"]
    for on, off in result.pairs:
        lines += [render_run(on), render_run(off)]
        lines.append(f"    -> recovery speedup {result.speedup_text(on.fault)}")
    lines.append(render_run(result.control))
    lines.append(
        f"    -> false-positive demotions: {result.control.false_positive_demotions}"
    )
    if result.flapping is not None:
        lines.append(render_run(result.flapping))
        lines.append(
            f"    -> re-detections across pulses: {result.flapping.suspicions}"
        )
    lines.append(
        f"{verdict(result.ok)}: {len(result.faults_at_2x)}/{len(result.pairs)} faults "
        f">=2x faster recovery with the loop on (target {result.target_at_2x}; "
        f"{listed(result.faults_at_2x)})"
    )
    return "\n".join(lines)
