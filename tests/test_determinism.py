"""Golden-trace determinism harness guarding the hot-path overhaul.

The fixtures in ``tests/fixtures/determinism_golden.json`` were captured
against the pre-overhaul (PR ≤4) simulator: a plain ``heapq`` kernel and
unbatched per-message network delivery. The tests assert that today's
kernel/network/metrics produce *bit-for-bit identical* seeded event
traces — every delivery timestamp, the global delivery order, the final
virtual clock and all client-visible outcomes.

If one of these fails after a change to ``repro.sim``, ``repro.net``,
``repro.events`` or ``repro.runtime``, the change is NOT an optimisation:
it altered simulated behaviour. Only regenerate the goldens
(``python -m repro.bench.determinism --write-golden``) for an intentional
semantic change, and say so loudly in the commit message.
"""

import pytest

from repro.bench.determinism import SCENARIOS, load_golden, run_traced


@pytest.fixture(scope="module")
def golden():
    return load_golden()


def test_golden_covers_all_scenarios(golden):
    assert sorted(golden) == sorted(SCENARIOS)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_event_trace_matches_pre_refactor_golden(scenario, golden, traced_run):
    digest, _waits = traced_run(scenario, seed=golden[scenario]["seed"])
    expected = golden[scenario]
    # Compare the human-readable fields first so a mismatch says *what*
    # diverged (count/time/ops) before the opaque hash does.
    assert digest.deliveries == expected["deliveries"]
    assert digest.final_time_ms == expected["final_time_ms"]
    assert digest.completed_ops == expected["completed_ops"]
    assert digest.errors == expected["errors"]
    assert digest.trace_hash == expected["trace_hash"]


@pytest.mark.slow
def test_trace_is_reproducible_within_this_build():
    """Same seed twice → identical digest (independent of the goldens)."""
    first = run_traced("raft", seed=7)
    second = run_traced("raft", seed=7)
    assert first == second


@pytest.mark.slow
def test_different_seeds_diverge():
    """The digest actually depends on the seed (the probe isn't inert)."""
    assert run_traced("raft", seed=7).trace_hash != run_traced("raft", seed=8).trace_hash
