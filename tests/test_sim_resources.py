"""Unit tests for resource models: CPU, disk, memory, NIC."""

import pytest

from repro.sim.kernel import Kernel
from repro.sim.resources import (
    CpuResource,
    DiskResource,
    MemoryResource,
    NicResource,
)


def run_all(kernel):
    kernel.run_until_idle()


class TestCpuResource:
    def test_single_job_takes_cost_over_rate(self):
        kernel = Kernel()
        cpu = CpuResource(kernel, base_rate=1.0)
        done_at = []
        cpu.submit(10.0, on_done=lambda: done_at.append(kernel.now))
        run_all(kernel)
        assert done_at == [10.0]

    def test_fifo_queueing(self):
        kernel = Kernel()
        cpu = CpuResource(kernel, base_rate=1.0)
        done = []
        cpu.submit(5.0, on_done=lambda: done.append(("a", kernel.now)))
        cpu.submit(5.0, on_done=lambda: done.append(("b", kernel.now)))
        run_all(kernel)
        assert done == [("a", 5.0), ("b", 10.0)]

    def test_quota_slows_service(self):
        kernel = Kernel()
        cpu = CpuResource(kernel, base_rate=1.0)
        cpu.set_quota(0.05)  # the Table 1 "CPU slow" fault
        done_at = []
        cpu.submit(1.0, on_done=lambda: done_at.append(kernel.now))
        run_all(kernel)
        assert done_at == [pytest.approx(20.0)]

    def test_contender_share_matches_cfs_formula(self):
        kernel = Kernel()
        cpu = CpuResource(kernel, base_rate=1.0)
        cpu.set_contender_share(16.0)  # the Table 1 "CPU contention" fault
        done_at = []
        cpu.submit(1.0, on_done=lambda: done_at.append(kernel.now))
        run_all(kernel)
        assert done_at == [pytest.approx(17.0)]

    def test_rate_change_retimes_inflight_job(self):
        kernel = Kernel()
        cpu = CpuResource(kernel, base_rate=1.0)
        done_at = []
        cpu.submit(10.0, on_done=lambda: done_at.append(kernel.now))
        # After 5 ms, half the work is done; throttle to 50%.
        kernel.schedule(5.0, cpu.set_quota, 0.5)
        run_all(kernel)
        # Remaining 5 cost units at rate 0.5 take 10 ms more.
        assert done_at == [pytest.approx(15.0)]

    def test_fault_clear_speeds_job_back_up(self):
        kernel = Kernel()
        cpu = CpuResource(kernel, base_rate=1.0)
        cpu.set_quota(0.1)
        done_at = []
        cpu.submit(10.0, on_done=lambda: done_at.append(kernel.now))
        kernel.schedule(50.0, cpu.set_quota, 1.0)  # 5 units done by then
        run_all(kernel)
        assert done_at == [pytest.approx(55.0)]

    def test_cancelled_job_never_completes(self):
        kernel = Kernel()
        cpu = CpuResource(kernel, base_rate=1.0)
        done = []
        cpu.submit(5.0, on_done=lambda: done.append("a"))
        job = cpu.submit(5.0, on_done=lambda: done.append("b"))
        job.cancel()
        run_all(kernel)
        assert done == ["a"]

    def test_penalty_multiplies_cost(self):
        kernel = Kernel()
        cpu = CpuResource(kernel, base_rate=1.0)
        cpu.set_penalty(4.0)
        done_at = []
        cpu.submit(1.0, on_done=lambda: done_at.append(kernel.now))
        run_all(kernel)
        assert done_at == [pytest.approx(4.0)]

    def test_invalid_parameters_rejected(self):
        cpu = CpuResource(Kernel())
        with pytest.raises(ValueError):
            cpu.set_quota(0.0)
        with pytest.raises(ValueError):
            cpu.set_quota(1.5)
        with pytest.raises(ValueError):
            cpu.set_contender_share(-1.0)
        with pytest.raises(ValueError):
            cpu.set_penalty(0.5)
        with pytest.raises(ValueError):
            cpu.submit(-1.0)

    def test_queue_depth_tracks_waiting_and_in_service(self):
        kernel = Kernel()
        cpu = CpuResource(kernel, base_rate=1.0)
        cpu.submit(10.0)
        cpu.submit(10.0)
        kernel.run(until_ms=1.0)
        assert cpu.queue_depth() == 2
        kernel.run(until_ms=11.0)
        assert cpu.queue_depth() == 1
        run_all(kernel)
        assert cpu.queue_depth() == 0

    def test_busy_fraction(self):
        kernel = Kernel()
        cpu = CpuResource(kernel, base_rate=1.0)
        cpu.submit(10.0)
        kernel.run(until_ms=20.0)
        assert cpu.busy_fraction() == pytest.approx(0.5)


class TestDiskResource:
    def test_write_latency_includes_setup_and_bandwidth(self):
        kernel = Kernel()
        # 1 MB/s => 1000 bytes per ms.
        disk = DiskResource(kernel, bandwidth_mbps=1.0, op_latency_ms=2.0)
        done_at = []
        disk.submit(5000.0, on_done=lambda: done_at.append(kernel.now))
        run_all(kernel)
        assert done_at == [pytest.approx(7.0)]  # 2 ms setup + 5 ms transfer

    def test_cap_fraction_throttles_bandwidth_not_setup(self):
        kernel = Kernel()
        disk = DiskResource(kernel, bandwidth_mbps=1.0, op_latency_ms=2.0)
        disk.set_cap_fraction(0.5)  # Table 1 "disk slow"
        done_at = []
        disk.submit(5000.0, on_done=lambda: done_at.append(kernel.now))
        run_all(kernel)
        assert done_at == [pytest.approx(12.0)]  # 2 + 10

    # Known, pinned, not fixed: reconfigure() treats a job still in its
    # setup latency like one in service — it cancels the pending
    # _begin_service and starts service at the toggle. The fix (leave such
    # a job alone; _begin_service reads the new rate when it runs) is two
    # lines, but it moves virtual behaviour: `breaker --smoke`'s
    # crash-under-trip row and `fabric --smoke`'s cross/raft cell (PR 22
    # measured it and promised bit-identical runs; ROADMAP item 3).
    @pytest.mark.xfail(strict=True, reason="a rate change mid-setup starts service at once")
    def test_rate_change_during_setup_latency_does_not_cut_it_short(self):
        kernel = Kernel()
        disk = DiskResource(kernel, 200.0, op_latency_ms=0.1)
        done_at = []
        disk.submit(4096.0, on_done=lambda: done_at.append(kernel.now))
        kernel.schedule(0.05, disk.set_cap_fraction, 1.0)  # a no-op toggle mid-setup
        run_all(kernel)
        assert done_at == [pytest.approx(0.12048)]  # today 0.07048

    @pytest.mark.xfail(strict=True, reason="a rate change mid-setup starts service at once")
    def test_rate_change_during_setup_latency_applies_to_the_transfer(self):
        kernel = Kernel()
        disk = DiskResource(kernel, bandwidth_mbps=1.0, op_latency_ms=2.0)
        done_at = []
        disk.submit(5000.0, on_done=lambda: done_at.append(kernel.now))
        kernel.schedule(1.0, disk.set_cap_fraction, 0.5)
        run_all(kernel)
        assert done_at == [pytest.approx(12.0)]  # 2 ms setup in full + 10 ms; today 11.0

    def test_contender_load_shares_bandwidth(self):
        kernel = Kernel()
        disk = DiskResource(kernel, bandwidth_mbps=1.0, op_latency_ms=0.0)
        disk.set_contender_load(0.75)  # Table 1 "disk contention"
        done_at = []
        disk.submit(1000.0, on_done=lambda: done_at.append(kernel.now))
        run_all(kernel)
        assert done_at == [pytest.approx(4.0)]

    def test_fifo_ordering(self):
        kernel = Kernel()
        disk = DiskResource(kernel, bandwidth_mbps=1.0, op_latency_ms=1.0)
        done = []
        disk.submit(1000.0, on_done=lambda: done.append("a"))
        disk.submit(1000.0, on_done=lambda: done.append("b"))
        run_all(kernel)
        assert done == ["a", "b"]

    def test_zero_byte_op_costs_setup_only(self):
        kernel = Kernel()
        disk = DiskResource(kernel, bandwidth_mbps=1.0, op_latency_ms=3.0)
        done_at = []
        disk.submit(0.0, on_done=lambda: done_at.append(kernel.now))
        run_all(kernel)
        assert done_at == [pytest.approx(3.0)]

    def test_invalid_parameters_rejected(self):
        disk = DiskResource(Kernel())
        with pytest.raises(ValueError):
            disk.set_cap_fraction(0.0)
        with pytest.raises(ValueError):
            disk.set_contender_load(1.0)
        with pytest.raises(ValueError):
            disk.set_contender_load(-0.1)


class TestMemoryResource:
    def test_allocate_free_accounting(self):
        mem = MemoryResource(capacity_bytes=1000)
        mem.allocate(400, owner="buf")
        assert mem.used == 400
        assert mem.usage_of("buf") == 400
        mem.free(150, owner="buf")
        assert mem.used == 250
        assert mem.peak == 400

    def test_over_free_rejected(self):
        mem = MemoryResource(capacity_bytes=1000)
        mem.allocate(100, owner="a")
        with pytest.raises(ValueError):
            mem.free(200, owner="a")

    def test_oom_callback_fires_once_per_excursion(self):
        mem = MemoryResource(capacity_bytes=1000)
        ooms = []
        mem.on_oom = lambda: ooms.append(mem.used)
        mem.allocate(900)
        mem.allocate(200)  # crosses
        mem.allocate(100)  # still over; no second call
        assert ooms == [1100]
        mem.free(500)
        mem.allocate(600)  # crosses again
        assert len(ooms) == 2

    def test_set_limit_models_memory_contention(self):
        mem = MemoryResource(capacity_bytes=1000)
        mem.allocate(400)
        ooms = []
        mem.on_oom = lambda: ooms.append(True)
        mem.set_limit(300)
        assert ooms == [True]
        assert mem.pressure() > 1.0

    def test_swap_penalty_ramps_above_threshold(self):
        mem = MemoryResource(capacity_bytes=1000, swap_threshold=0.8, max_swap_penalty=5.0)
        mem.allocate(700)
        assert mem.swap_penalty() == 1.0
        mem.allocate(200)  # 90% -> halfway up the ramp
        assert mem.swap_penalty() == pytest.approx(3.0)
        mem.allocate(100)  # 100% -> full penalty
        assert mem.swap_penalty() == pytest.approx(5.0)

    def test_swap_penalty_saturates(self):
        mem = MemoryResource(capacity_bytes=1000, swap_threshold=0.8, max_swap_penalty=5.0)
        mem.allocate(2000)
        assert mem.swap_penalty() == pytest.approx(5.0)

    def test_invalid_sizes_rejected(self):
        mem = MemoryResource(capacity_bytes=1000)
        with pytest.raises(ValueError):
            mem.allocate(-1)
        with pytest.raises(ValueError):
            mem.free(-1)
        with pytest.raises(ValueError):
            MemoryResource(capacity_bytes=0)


class TestNicResource:
    def test_extra_delay_adds_to_base(self):
        nic = NicResource(base_delay_ms=0.25)
        assert nic.delay_ms() == 0.25
        nic.set_extra_delay(400.0)  # Table 1 "network slow"
        assert nic.delay_ms() == 400.25
        nic.set_extra_delay(0.0)
        assert nic.delay_ms() == 0.25

    def test_negative_delays_rejected(self):
        with pytest.raises(ValueError):
            NicResource(base_delay_ms=-1.0)
        with pytest.raises(ValueError):
            NicResource().set_extra_delay(-1.0)
