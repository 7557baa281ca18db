"""Tail-at-scale matrix: hedged/speculative execution vs quorum events.

Races four fail-slow defenses — baseline Raft, DepFastRaft (quorum
discard + bounded buffers), hedged-Raft (racing instead of discarding),
and hedged+DepFast — across the six Table 1 follower faults plus a
fault-free control, and holds the result to the PR's bar:

* at least one fault class where a hedged system beats DepFastRaft on
  post-onset P99 client latency;
* at least one fault class where hedging *re-couples* the slowness the
  quorum events decoupled: duplicate work aimed at the faulted link
  (amplification > 1) without a latency or throughput gain;
* the fault-free control pays a bounded hedging tax — duplicate-work
  amplification stays under 10% (the P95 trigger fires on ~5% of sends
  by construction);
* speculative reads never roll back in any steady-leader run (rollback
  is reserved for actual term changes).
"""

from conftest import save_result

from repro.bench.matrix import CONTROL, matrices, smoke_profile


def test_hedging_matrix(benchmark):
    row = matrices()["hedge"]
    params, faults = row.profile(smoke_profile())

    result = benchmark.pedantic(
        lambda: row.run(faults, 7, params), rounds=1, iterations=1
    )
    save_result("hedging_matrix", row.render(result))

    # The head-to-head produced both halves of the story.
    wins = result.p99_wins()
    recoupled = result.recoupling()
    assert wins, "no fault class where hedging beat DepFastRaft on P99"
    assert recoupled, "no fault class where hedging re-coupled the straggler"

    # Fault-free control: the racing tax is bounded and reads are clean.
    for system in ("hedged", "hedged+depfast"):
        control = result.cells[CONTROL][system]
        assert control.amplification < 1.10, (
            f"{system}: control amplification {control.amplification:.3f}"
        )
        assert control.speculation_rollbacks == 0
        assert control.errors == 0

    # Hedge copies that reached a server were deduplicated, not
    # re-executed: dedup+abort accounts for copies actually delivered
    # (the remainder died in send buffers or were still in flight).
    for fault, row in result.cells.items():
        for run in row.values():
            delivered = run.hedges_deduped + run.hedges_aborted
            assert delivered <= run.append_hedges + run.probe_hedges, (
                f"{run.system}/{fault}: more dedups than hedges sent"
            )
