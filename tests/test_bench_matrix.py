"""The shared matrix harness: recovery search, on/off verdict, one
shrunken seeded cell per matrix, and the table that drives the CLI."""

from dataclasses import replace

import pytest

from repro.bench import breaker, fabric, hedging, mitigation
from repro.bench.matrix import (
    SAMPLE_WINDOW_MS,
    OnOffMatrix,
    OnOffParams,
    OnOffRun,
    matrices,
    recovery_time,
)
from repro.cli import build_parser, main

FAULT_AT, END = 2_000.0, 5_000.0


def _samples(after_onset, healthy=100.0):
    """Windows of ``healthy`` ops/s up to onset, then ``after_onset``."""
    ops = [healthy] * int(FAULT_AT / SAMPLE_WINDOW_MS) + list(after_onset)
    return [((i + 1) * SAMPLE_WINDOW_MS, rate) for i, rate in enumerate(ops)]


class TestRecoveryTime:
    def test_never_recovers_is_censored_at_the_horizon(self):
        result = recovery_time(_samples([10.0] * 6), FAULT_AT, END)
        assert not result.recovered and result.censored
        assert result.recovery_ms == result.horizon_ms == END - FAULT_AT
        assert result.healthy_ops_s == 100.0
        assert result.faulted_ops_s == 10.0

    def test_recovery_needs_sustained_windows(self):
        # One good window between bad ones does not count; the run of two
        # starting at the fifth window after onset does.
        result = recovery_time(_samples([10.0, 90.0, 10.0, 10.0, 70.0, 80.0]), FAULT_AT, END)
        assert result.recovered
        assert result.recovery_ms == 5 * SAMPLE_WINDOW_MS

    def test_fault_free_control_has_nothing_to_recover_from(self):
        result = recovery_time(_samples([10.0] * 6), FAULT_AT, END, control=True)
        assert result.recovered and result.recovery_ms == 0.0

    def test_zero_healthy_baseline_is_censored_without_dividing(self):
        result = recovery_time(_samples([50.0] * 6, healthy=0.0), FAULT_AT, END)
        assert not result.recovered
        assert result.recovery_ms == END - FAULT_AT


def _run(fault, on, recovery_ms):
    return OnOffRun(0.0, 0.0, recovery_ms, True, 3_000.0, fault=fault, on=on, seed=1)


class TestOnOffMatrix:
    def test_speedup_and_faults_at_2x(self):
        result = OnOffMatrix(
            pairs=[
                (_run("cpu_slow", True, 0.0), _run("cpu_slow", False, 3_000.0)),
                (_run("disk_slow", True, 2_000.0), _run("disk_slow", False, 3_000.0)),
            ],
            control=_run("none", True, 0.0),
        )
        assert result.speedup("cpu_slow") == float("inf")
        assert result.speedup("disk_slow") == 1.5
        assert result.faults_at_2x == ["cpu_slow"]
        with pytest.raises(KeyError):
            result.speedup("network_slow")


ON_OFF = OnOffParams(4, 1_500.0, 2_000.0, flap_on_ms=400.0, flap_off_ms=200.0)
HEDGING = hedging.HedgingParams(4, 1_200.0, 1_700.0, record_count=200)
FABRIC = fabric.FabricParams(2, 600.0, 900.0, n_keys=100, warmup_ms=300.0)
# name -> (one shrunken cell, does another seed visibly change its record?)
# The on/off records hold window-quantised throughput and whole-window
# times, so two seeds may legitimately agree; client latencies never do.
CELLS = {
    "mitigate": (lambda seed: mitigation.run_once("cpu_slow", True, seed, ON_OFF), False),
    "hedge": (lambda seed: hedging.run_once("hedged", "network_slow", seed, HEDGING), True),
    "breaker": (lambda seed: breaker.run_once("disk_contention", True, seed, ON_OFF), False),
    "fabric": (lambda seed: fabric.run_once("cross", "depfast", "cpu_slow", seed, FABRIC), True),
}


@pytest.mark.parametrize("name", sorted(CELLS))
def test_cell_is_a_pure_function_of_its_seed(name):
    run, seed_visible = CELLS[name]
    first = run(7)
    assert run(7) == first
    if seed_visible:
        assert replace(run(8), seed=7) != first


@pytest.mark.parametrize("name", sorted(matrices()))
class TestTableDrivesTheCli:
    def test_row_parses_the_shared_flags(self, name):
        row = matrices()[name]
        args = build_parser().parse_args(
            [name, "--smoke", "--seed", "3", "--faults", row.faults[0]]
        )
        assert args.smoke and args.seed == 3 and args.faults == [row.faults[0]]
        assert args.matrix.name == name
        assert all(getattr(args, kwarg) for _flag, kwarg, _help in row.flags)

    def test_unknown_fault_exits_2(self, name, capsys):
        assert main([name, "--faults", "gamma_rays"]) == 2
        assert "unknown fault(s) gamma_rays" in capsys.readouterr().out

    def test_smoke_profile_is_a_subset_of_the_paper_profile(self, name):
        row = matrices()[name]
        _params, smoke_faults = row.profile(smoke=True)
        _params, paper_faults = row.profile(smoke=False)
        assert paper_faults == row.faults
        assert set(smoke_faults) <= set(paper_faults)


def test_set_of_matrices_matches_cells():
    assert sorted(matrices()) == sorted(CELLS)
