"""The disk-breaker acceptance matrix: attribute → trip → absorb → drain.

Replays shared-backend disk faults on both followers (plus a fault-free
control) with the write-behind circuit breaker on and off, and holds the
loop to the PR's bar:

* breaker-on recovers throughput >= 2x faster than breaker-off for every
  disk fault row (off is censored at the horizon whenever the quorum
  stays pinned to the crawling disks);
* the fault-free control run trips zero breakers;
* the write-behind queue never exceeds its staleness budget (bytes or
  lag) on any run;
* crashing a follower while its breaker is OPEN loses the queued
  entries (honest recovery) yet the group converges and the recorded
  client history stays linearizable.
"""

import pytest
from conftest import save_result

from repro.bench.matrix import matrices, smoke_profile

# The paper-profile matrix runs for minutes; CI exercises the smoke
# profile through `python -m repro breaker --smoke` in the bench lane.
pytestmark = pytest.mark.slow


def test_breaker_matrix(benchmark):
    row = matrices()["breaker"]
    params, faults = row.profile(smoke_profile())

    result = benchmark.pedantic(
        lambda: row.run(faults, 7, params), rounds=1, iterations=1
    )
    save_result("breaker_matrix", row.render(result))

    # Zero trips on a healthy cluster.
    assert result.control.false_trips == 0
    assert result.control.trips == 0

    # The breaker pays for itself on every disk fault row.
    assert len(result.faults_at_2x) == len(result.pairs), (
        f"only {result.faults_at_2x} recovered >=2x faster"
    )

    # Bounded staleness held everywhere.
    assert result.staleness_ok

    # Crash-during-tripped-breaker: queued entries die with the process,
    # but safety holds.
    assert result.chaos is not None
    assert result.chaos.linearizable
    assert result.chaos.converged
    assert result.chaos.double_applies == 0
    assert result.chaos.breaker_open_at_crash
    assert result.chaos.lost_on_recovery > 0
