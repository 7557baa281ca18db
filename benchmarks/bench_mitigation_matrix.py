"""The closed-loop acceptance matrix: detect → mitigate → recover.

Replays Table 1 leader faults (plus a flapping variant and a fault-free
control) with the full detection/mitigation loop on and off, and holds
the loop to the PR's bar:

* detector-on recovers throughput >= 2x faster than detector-off for at
  least three fault types (off is censored at the horizon whenever the
  fail-slow leader simply keeps its lease);
* the fault-free control run performs zero mitigations — no
  false-positive demotions, transfers, or suspicions;
* the flapping fault is re-detected on later pulses, not just the first.
"""

from conftest import save_result

from repro.bench.matrix import matrices, smoke_profile


def test_mitigation_matrix(benchmark):
    row = matrices()["mitigate"]
    params, faults = row.profile(smoke_profile())

    result = benchmark.pedantic(
        lambda: row.run(faults, 7, params), rounds=1, iterations=1
    )
    save_result("mitigation_matrix", row.render(result))

    # Zero mitigation actions on a healthy cluster.
    assert result.control.false_positive_demotions == 0
    assert result.control.suspicions == 0
    assert result.control.transfers == 0

    # The loop pays for itself on at least three Table 1 fault types.
    assert len(result.faults_at_2x) >= 3, (
        f"only {result.faults_at_2x} recovered >=2x faster"
    )

    # Flapping slowness is caught again on later pulses (the one-shot
    # detector regression), and the loop still recovers throughput.
    assert result.flapping is not None
    assert result.flapping.suspicions >= 2
    assert result.flapping.recovered
