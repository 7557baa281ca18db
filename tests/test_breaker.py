"""Write-behind breaker WAL, disk attribution, and the controller wiring."""

import pytest

from repro.breaker.attribution import AttributionConfig, DiskAttributor
from repro.breaker.write_behind import (
    BreakerConfig,
    BreakerState,
    CircuitBreakerWal,
    install_breaker_wals,
)
from repro.cluster.cluster import Cluster
from repro.detector.mitigation import MitigationConfig, MitigationController
from repro.detector.scoring import ScoringConfig, SlownessScorer
from repro.detector.signal import DISK, HealthSignal, PeerHealth, Suspect
from repro.raft.config import RaftConfig
from repro.raft.service import deploy_depfast_raft, wait_for_leader
from repro.runtime.io_helper import IoHelperPool
from repro.sim.kernel import Kernel
from repro.sim.resources import DiskResource
from repro.trace.tracepoints import Tracer
from repro.workload.driver import ClosedLoopDriver
from repro.workload.ycsb import YcsbWorkload


def make_breaker_wal(bandwidth=1.0, latency=0.0, **config):
    kernel = Kernel()
    disk = DiskResource(kernel, bandwidth_mbps=bandwidth, op_latency_ms=latency)
    wal = CircuitBreakerWal(
        IoHelperPool(disk, node="n0"), config=BreakerConfig(**config)
    )
    return kernel, wal


class TestCircuitBreakerWal:
    def test_closed_breaker_is_a_plain_wal(self):
        kernel, wal = make_breaker_wal()
        wal.append(1000)
        event = wal.sync()
        assert not event.ready()  # a real fsync: the caller waits
        kernel.run_until_idle()
        assert event.ready()
        assert wal.durable_bytes == 1000
        assert wal.absorbed_syncs == 0

    def test_trip_releases_acks_parked_on_inflight_fsyncs(self):
        # 1KB on a 0.001 MB/s disk: the fsync takes ~1000ms. Trip before
        # it lands — the caller's ack fires at trip time (its bytes are
        # already in the device FIFO), but durability bookkeeping keeps
        # following the real fsync.
        kernel, wal = make_breaker_wal(bandwidth=0.001)
        wal.append(1000)
        event = wal.sync()
        assert not event.ready()
        kernel.run(10.0)
        wal.trip()
        assert event.ready()  # released by the trip, not the platter
        assert event.triggered_at == pytest.approx(10.0)
        assert wal.early_acks_on_trip == 1
        assert wal.durable_bytes == 0  # the real fsync is still in flight
        kernel.run(10_000.0)  # 1000B payload + 4KiB flush-cache at 1B/ms
        assert wal.durable_bytes == 1000

    def test_open_breaker_acks_immediately_from_memory(self):
        kernel, wal = make_breaker_wal()
        wal.trip()
        assert wal.state == BreakerState.OPEN
        wal.append(1000)
        event = wal.sync()
        assert event.ready()  # pre-completed: no disk wait on the ack path
        assert wal.queued_bytes == 1000
        assert wal.durable_bytes == 0
        assert wal.absorbed_syncs == 1

    def test_on_durable_deferred_until_probe_drain(self):
        kernel, wal = make_breaker_wal(probe_interval_ms=10.0)
        wal.trip()
        fired = []
        wal.append(500)
        wal.sync(on_durable=lambda: fired.append("a"))
        assert fired == []  # acked, but not durable yet
        kernel.run(100.0)  # probe ticks drain the queue through the disk
        assert fired == ["a"]
        assert wal.durable_bytes == 500
        assert wal.queued_bytes == 0

    def test_probe_drain_preserves_fifo_order(self):
        kernel, wal = make_breaker_wal(probe_interval_ms=10.0, probe_max_bytes=100)
        wal.trip()
        fired = []
        for tag in ("a", "b", "c"):
            wal.append(100)
            wal.sync(on_durable=lambda tag=tag: fired.append(tag))
        kernel.run(500.0)
        assert fired == ["a", "b", "c"]

    def test_passthrough_at_byte_budget(self):
        kernel, wal = make_breaker_wal(
            max_queued_bytes=1000, probe_interval_ms=10_000.0
        )
        wal.trip()
        wal.append(600)
        wal.sync()
        assert wal.queued_bytes == 600
        wal.append(600)
        event = wal.sync()  # 1200 > budget: the whole queue flushes for real
        assert not event.ready()  # backpressure: this caller waits
        assert wal.passthrough_syncs == 1
        assert wal.queued_bytes == 0
        kernel.run(100.0)  # bounded: the probe timer rearms while OPEN
        assert event.ready()
        assert wal.durable_bytes == 1200

    def test_passthrough_at_lag_budget(self):
        kernel, wal = make_breaker_wal(max_lag_ms=50.0, probe_interval_ms=10_000.0)
        wal.trip()
        wal.append(100)
        wal.sync()
        kernel.run(100.0)  # the queue head is now 100ms old, over budget
        wal.append(100)
        event = wal.sync()
        assert not event.ready()
        assert wal.passthrough_syncs == 1

    def test_release_drains_queue_and_closes(self):
        kernel, wal = make_breaker_wal(probe_interval_ms=10_000.0)
        wal.trip()
        fired = []
        for tag in ("a", "b"):
            wal.append(200)
            wal.sync(on_durable=lambda tag=tag: fired.append(tag))
        wal.release()
        assert wal.state == BreakerState.DRAINING
        kernel.run_until_idle()
        assert wal.state == BreakerState.CLOSED
        assert fired == ["a", "b"]
        assert wal.durable_bytes == 400
        assert wal.releases == 1

    def test_retire_drops_queue_and_suppresses_callbacks(self):
        kernel, wal = make_breaker_wal(probe_interval_ms=10.0)
        wal.trip()
        fired = []
        wal.append(300)
        wal.sync(on_durable=lambda: fired.append("lost"))
        wal.retire()  # the process died; the queue dies with it
        assert wal.queued_bytes == 0
        assert wal.dropped_entries_on_retire == 1
        assert wal.dropped_bytes_on_retire == 300
        kernel.run(200.0)  # in-flight probe timers must stay inert
        assert fired == []
        assert wal.durable_bytes == 0

    def test_staleness_high_water_marks(self):
        kernel, wal = make_breaker_wal(probe_interval_ms=10_000.0)
        wal.trip()
        wal.append(700)
        wal.sync()
        kernel.run(40.0)
        wal.append(300)
        wal.sync()
        assert wal.queued_bytes_hwm == 1000
        assert wal.lag_ms_hwm == pytest.approx(40.0)

    def test_empty_queue_probe_is_barrier_only_health_sample(self):
        kernel, wal = make_breaker_wal(probe_interval_ms=10.0)
        wal.trip()
        kernel.run(55.0)  # several probe intervals with nothing queued
        assert wal.probe_fsyncs >= 2
        assert wal.durable_bytes == 0  # barriers carry no payload bytes

    def test_noop_sync_while_open_does_not_enqueue(self):
        kernel, wal = make_breaker_wal()
        wal.trip()
        event = wal.sync()  # nothing buffered
        assert event.ready()
        assert wal.noop_syncs == 1
        assert wal.queued_bytes == 0


def feed_fsyncs(tracer, node, latency_ms, n=8, now=0.0):
    for i in range(n):
        tracer.on_fsync_complete(node, 4096, latency_ms, now + i)


class TestDiskAttributor:
    def attributor(self, **overrides):
        tracer = Tracer(Kernel())
        return tracer, DiskAttributor(tracer, AttributionConfig(**overrides))

    def test_slow_disk_flagged_against_cross_node_baseline(self):
        tracer, disks = self.attributor(suspect_windows=2)
        feed_fsyncs(tracer, "s1", 1.0)
        feed_fsyncs(tracer, "s2", 1.0)
        feed_fsyncs(tracer, "s3", 30.0)
        assert disks.signal.score("s3", DISK) > 1.0
        assert disks.signal.score("s2", DISK) <= 1.0
        disks.roll_window(500.0)
        assert disks.signal.state("s3", DISK) == PeerHealth.HEALTHY  # hysteresis holds
        disks.roll_window(1000.0)
        assert disks.signal.state("s3", DISK) == PeerHealth.SUSPECT
        assert disks.signal.suspects() == [Suspect("s3", DISK)]
        assert disks.signal.first_suspected_at() == 1000.0

    def test_single_node_never_judged(self):
        tracer, disks = self.attributor()
        feed_fsyncs(tracer, "s1", 500.0)  # huge, but nothing to compare against
        assert disks.signal.score("s1", DISK) == 0.0
        disks.roll_window(500.0)
        disks.roll_window(1000.0)
        assert disks.signal.suspects() == []

    def test_absolute_floor_filters_fast_disk_noise(self):
        tracer, disks = self.attributor(abs_floor_ms=2.0)
        feed_fsyncs(tracer, "s1", 0.05)
        feed_fsyncs(tracer, "s2", 0.5)  # 10x ratio, but absolutely tiny
        assert disks.signal.score("s2", DISK) == 0.0

    def test_stalled_inflight_fsync_detected_without_completions(self):
        """A stalled disk delivers no completion samples at all — the
        age of its one in-flight fsync must indict it anyway."""
        tracer, disks = self.attributor(suspect_windows=1, min_samples=3)
        feed_fsyncs(tracer, "s1", 1.0)  # healthy cross-node baseline
        tracer.on_fsync_begin("s3", 1 << 20, 0.0)  # issued... and stuck
        for window in range(1, 4):
            disks.roll_window(window * 500.0)
        assert disks.censored_samples >= 3
        assert disks.signal.score("s3", DISK) > 1.0
        assert disks.signal.suspects() == [Suspect("s3", DISK)]
        # The stall finally lands: the real latency replaces censored ages.
        tracer.on_fsync_complete("s3", 1 << 20, 2_000.0, 2_000.0)
        assert not disks._inflight["s3"]

    def test_young_inflight_fsyncs_fold_no_censored_samples(self):
        tracer, disks = self.attributor()
        feed_fsyncs(tracer, "s1", 4.0)
        feed_fsyncs(tracer, "s2", 4.0)
        tracer.on_fsync_begin("s2", 4096, 499.0)  # 1ms old at the roll
        disks.roll_window(500.0)
        assert disks.censored_samples == 0
        assert disks.signal.suspects() == []

    def test_abort_drops_stale_inflight_entries(self):
        """A crashed node's in-flight fsync never completes: without the
        abort hook its issue time would age into a permanent suspicion."""
        tracer, disks = self.attributor(suspect_windows=1, min_samples=3)
        feed_fsyncs(tracer, "s1", 1.0)
        feed_fsyncs(tracer, "s3", 1.0)
        tracer.on_fsync_begin("s3", 4096, 0.0)
        tracer.on_fsync_abort("s3", 10.0)  # crash retires the WAL
        for window in range(1, 8):
            disks.roll_window(window * 500.0)
        assert disks.censored_samples == 0
        assert disks.signal.suspects() == []

    def test_recovered_disk_clears_after_healthy_streak(self):
        tracer, disks = self.attributor(suspect_windows=1, clear_windows=2)
        feed_fsyncs(tracer, "s1", 1.0)
        feed_fsyncs(tracer, "s2", 30.0)
        disks.roll_window(500.0)
        assert disks.signal.state("s2", DISK) == PeerHealth.SUSPECT
        feed_fsyncs(tracer, "s2", 1.0, n=60)  # EWMA decays back to baseline
        assert disks.signal.score("s2", DISK) < 1.0
        disks.roll_window(1000.0)
        assert disks.signal.state("s2", DISK) == PeerHealth.SUSPECT  # not yet
        disks.roll_window(1500.0)
        assert disks.signal.state("s2", DISK) == PeerHealth.HEALTHY


class TestSuspects:
    """Link and disk feeders joined under one signal, as the controller does."""

    def build(self):
        kernel = Kernel()
        tracer = Tracer(kernel)
        scorer = SlownessScorer(tracer, ScoringConfig(min_samples=4, suspect_windows=1))
        disks = DiskAttributor(tracer, AttributionConfig(suspect_windows=1))
        return tracer, HealthSignal(scorer, disks)

    def test_disk_verdict_wins_over_link_symptom(self):
        tracer, signal = self.build()
        # s3's slow disk makes its *acks* slow: the link scorer sees it
        # too, but attribution must tag the disk, not the link.
        for _ in range(10):
            tracer.on_rpc_complete("s1", "s2", "append", 1.0, 0.0)
            tracer.on_rpc_complete("s1", "s3", "append", 20.0, 0.0)
        feed_fsyncs(tracer, "s1", 1.0)
        feed_fsyncs(tracer, "s2", 1.0)
        feed_fsyncs(tracer, "s3", 30.0)
        edges = signal.roll_window(500.0)
        # Both keys of s3 flipped (links roll first) — one tag comes out.
        assert [(e.node, e.resource) for e in edges] == [("s3", "link:s1"), ("s3", DISK)]
        assert signal.suspects() == [Suspect("s3", "disk")]

    def test_link_suspect_with_healthy_disk_tagged_as_link(self):
        tracer, signal = self.build()
        for _ in range(10):
            tracer.on_rpc_complete("s1", "s2", "append", 1.0, 0.0)
            tracer.on_rpc_complete("s1", "s3", "append", 20.0, 0.0)
        feed_fsyncs(tracer, "s1", 1.0)
        feed_fsyncs(tracer, "s2", 1.0)
        feed_fsyncs(tracer, "s3", 1.0)  # disk is fine; the link is not
        signal.roll_window(500.0)
        assert signal.suspects() == [Suspect("s3", "link:s1")]


@pytest.mark.slow
class TestControllerBreakerIntegration:
    def deploy(self, seed=7):
        from repro.bench.breaker import BACKEND_CONTENTION
        from repro.faults.injector import FaultInjector

        cluster = Cluster(seed=seed)
        group = ["s1", "s2", "s3"]
        raft = deploy_depfast_raft(
            cluster, group, config=RaftConfig(preferred_leader="s1")
        )
        install_breaker_wals(cluster, group)
        controller = MitigationController(
            cluster,
            raft,
            detectors=[],
            config=MitigationConfig(
                window_ms=250.0,
                attribution=AttributionConfig(suspect_windows=1, min_samples=3),
                breaker_probation_windows=2,
            ),
        )
        controller.start()
        workload = YcsbWorkload(
            cluster.rng.stream("ycsb"), record_count=1_000, value_size=200
        )
        driver = ClosedLoopDriver(cluster, group, workload, n_clients=8)
        wait_for_leader(cluster, raft)
        driver.start()
        return cluster, raft, controller, FaultInjector(cluster), BACKEND_CONTENTION

    def test_disk_fault_trips_breaker_not_demotion(self):
        cluster, raft, controller, injector, spec = self.deploy()
        injector.inject_transient("s3", spec, 500.0, 3_000.0)
        cluster.run(3_000.0)
        wal = cluster.node("s3").wal
        assert controller.breaker_trips == 1
        assert wal.state == BreakerState.OPEN
        assert wal.absorbed_syncs > 0
        # The link symptom was diverted to the breaker, not a demotion.
        assert controller.demotions == 0
        assert [a.kind for a in controller.actions] == ["breaker_trip"]

    def test_recovered_disk_releases_breaker_after_probation(self):
        cluster, raft, controller, injector, spec = self.deploy()
        injector.inject_transient("s3", spec, 500.0, 2_000.0)  # clears at 2500
        cluster.run(8_000.0)
        wal = cluster.node("s3").wal
        assert controller.breaker_trips == 1
        assert controller.breaker_releases == 1
        assert wal.state == BreakerState.CLOSED
        assert wal.queued_bytes == 0

    def test_fault_free_run_trips_nothing(self):
        cluster, raft, controller, injector, spec = self.deploy()
        cluster.run(5_000.0)
        assert controller.breaker_trips == 0
        assert controller.demotions == 0
