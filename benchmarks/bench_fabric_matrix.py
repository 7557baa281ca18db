"""The fabric coupling matrix: Figure 3's fail-slow question at fleet scale.

Runs every Table 1 fault on the fabric's most-shared node, crossed with
single-shard vs cross-shard 2PC workloads and DepFast programming
support on vs off, and holds the result to the PR's bar:

* **containment** — on single-shard workloads with partition-affine
  clients, at least one fault class degrades only groups co-located
  with the faulted node: remote P99 moves < 30% while a co-located
  group degrades at least twice as hard;
* **re-coupling** — switching a slice of traffic to cross-shard 2PC
  hands remote groups' throughput back to the faulted node (>= 1.1x
  amplification of remote retention, single vs cross), quantifying the
  coordination-layer coupling the quorum events cannot remove;
* the fault-free control is flat: no fault -> no degradation, no
  errors, on every workload x system cell.
"""

import pytest
from conftest import save_result

from repro.bench.fabric import SYSTEMS, WORKLOADS
from repro.bench.matrix import CONTROL, matrices, smoke_profile

# The paper-profile matrix runs for minutes; CI exercises the smoke
# profile through `python -m repro fabric --smoke` in the bench lane.
pytestmark = pytest.mark.slow


def test_fabric_matrix(benchmark):
    row = matrices()["fabric"]
    params, faults = row.profile(smoke_profile())

    result = benchmark.pedantic(
        lambda: row.run(faults, 7, params), rounds=1, iterations=1
    )
    save_result("fabric_matrix", row.render(result))

    # Both halves of the story: containment and 2PC re-coupling.
    contained = result.contained_faults()
    assert contained, "no fault class contained to co-located groups"
    assert result.worst_recoupling("depfast") >= 1.1, (
        "cross-shard 2PC never re-coupled remote groups to the faulted node"
    )
    assert result.ok

    # Fault-free control: flat everywhere.
    for workload in WORKLOADS:
        for system in SYSTEMS:
            run = result.cell(CONTROL, workload, system)
            assert run.errors == 0
            assert run.colocated_degradation < 1.5, (
                f"control {workload}/{system}: "
                f"x{run.colocated_degradation:.2f} without a fault"
            )
            assert run.remote_retention > 0.8

    # Every faulted cell kept serving: the fabric never wedged outright.
    for fault, row in result.cells.items():
        for workload in WORKLOADS:
            for system in SYSTEMS:
                run = row[workload][system]
                assert run.completed > 0, f"{fault}/{workload}/{system}: no ops"
