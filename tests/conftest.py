"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.bench.determinism import DEFAULT_SEED, run_traced
from repro.cluster.cluster import Cluster
from repro.sim.kernel import Kernel
from repro.sim.resources import CpuResource, DiskResource
from repro.runtime.runtime import Runtime
from repro.trace.tracepoints import Tracer


@pytest.fixture
def kernel() -> Kernel:
    return Kernel()


@pytest.fixture
def runtime(kernel: Kernel) -> Runtime:
    cpu = CpuResource(kernel, base_rate=1.0)
    disk = DiskResource(kernel, bandwidth_mbps=200.0, op_latency_ms=0.1)
    return Runtime(kernel, node="n0", cpu=cpu, disk=disk)


def drain(kernel: Kernel, max_time_ms: float = 1e9) -> None:
    """Run the kernel until it has no more work."""
    kernel.run_until_idle(max_time_ms)


@pytest.fixture(scope="session")
def traced_run():
    """``run_traced(scenario, seed)``, ``horizon_factor`` times as long, once
    per session: its digest and its tracer's wait log. The golden-hash and
    the wait-shape tests read the same run instead of simulating it twice."""
    runs = {}

    def run(scenario, seed=DEFAULT_SEED, horizon_factor=1):
        key = (scenario, seed, horizon_factor)
        if key not in runs:
            made = []
            build, advance = Tracer.__init__, Cluster.run

            def capture(self, *args, **kwargs):
                build(self, *args, **kwargs)
                made.append(self)

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(Tracer, "__init__", capture)
                patch.setattr(
                    Cluster, "run", lambda self, until_ms: advance(self, until_ms * horizon_factor)
                )
                digest = run_traced(scenario, seed=seed)
            (tracer,) = made
            runs[key] = digest, tracer.records
        return runs[key]

    return run
