"""Self-test of the benchmark (``python -m pytest benchmarks/perf -q``).

Runs everything with ``--quick`` (one tenth of the virtual duration, one
episode per workload), so it checks shape, determinism and the correctness
gates -- not speed.
"""

from __future__ import annotations

import copy
import json
import math
import pathlib
import re
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
from episode import import_workloads  # noqa: E402
from run import load_spec  # noqa: E402

workloads = import_workloads()
SPEC = load_spec()
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run_py(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--repeats", "1", *args],
        capture_output=True,
        text=True,
        timeout=170,
    )


def result_set(tmp_path_factory, seed: int, *args: str) -> dict:
    out = tmp_path_factory.mktemp("results") / f"seed{seed}.json"
    done = run_py("--seed", str(seed), "--out", str(out), *args)
    assert done.returncode == 0, done.stderr
    result = json.loads(out.read_text())
    result["stdout"] = done.stdout
    return result


@pytest.fixture(scope="module")
def first(tmp_path_factory):
    return result_set(tmp_path_factory, 42)


@pytest.fixture(scope="module")
def second(tmp_path_factory):
    return result_set(tmp_path_factory, 42)


def check_metrics(listed: list, result: dict) -> None:
    """The result line holds exactly the listed metrics, finite, with units."""
    assert set(result["metrics"]) == {metric["name"] for metric in listed}
    for metric in listed:
        got = result["metrics"][metric["name"]]
        assert NAME.fullmatch(metric["name"])
        assert got["unit"] == metric["unit"]
        assert math.isfinite(got["value"]), metric["name"]


def test_every_end_to_end_metric_is_reported_for_every_workload(first):
    for workload in SPEC["workloads"]:
        summary = first["workloads"][workload["name"]]
        assert summary["gates"] == []
        assert summary["attempted"] >= 1 and summary["failed"] == 0
        for metric in SPEC["end_to_end"]:
            stats = summary["metrics"][metric["name"]]
            assert math.isfinite(stats["median"]) and stats["median"] != 0, metric["name"]
            assert f"{metric['name']:<22}{metric['unit']:<15}" in first["stdout"]
    for rung in first["ladder"]:
        assert f"{rung:<44}" in first["stdout"]


def test_result_lines_follow_the_contract():
    done = run_py("--workload", "raft_read", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    check_metrics(SPEC["end_to_end"], result)

    done = run_py("--workload", "raft_read", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    check_metrics(SPEC["per_layer"], result)
    assert "trace.overhead_ratio" in done.stdout
    trace = json.loads((HERE / "results" / "raft_read.trace.json").read_text())
    assert len(trace["hottest"]) == 10 and trace["caller_callee_s"]
    self_s = sum(layer["self_s"] for layer in trace["layers"].values())
    assert self_s == pytest.approx(trace["traced_wall_s"], rel=0.05)


def test_same_seed_runs_agree_exactly_on_everything_virtual(first, second):
    host = set(compare.HOST_METRICS)
    for name, ours in first["workloads"].items():
        theirs = second["workloads"][name]
        assert ours["trace_hash"] == theirs["trace_hash"]
        for metric, stats in ours["metrics"].items():
            if metric not in host:
                assert stats == theirs["metrics"][metric], (name, metric)
        assert ours["counters"] == theirs["counters"], name
    lines, passed = compare.compare(SPEC, first, second)
    assert not any("virtual behaviour changed" in line for line in lines)


def test_another_seed_gives_another_trace(tmp_path_factory, first):
    other = result_set(tmp_path_factory, 43, "--workload", "raft_write")
    assert (
        other["workloads"]["raft_write"]["trace_hash"]
        != first["workloads"]["raft_write"]["trace_hash"]
    )


def test_compare_flags_a_regression_beyond_the_bound_and_passes_3_percent(first):
    bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "ops_per_wall_s")

    def slowed(by: float) -> dict:
        candidate = copy.deepcopy(first)
        stats = candidate["workloads"]["raft_read"]["metrics"]["ops_per_wall_s"]
        for key in ("median", "q1", "q3"):
            stats[key] *= 1.0 - by
        return candidate

    lines, passed = compare.compare(SPEC, first, slowed(bound + 0.05))
    assert not passed
    assert [line for line in lines if "ops_per_wall_s" in line and "worse" in line]
    _lines, passed = compare.compare(SPEC, first, slowed(0.03))
    assert passed

    failing = copy.deepcopy(first)
    failing["workloads"]["chaos_open"]["failed"] = 1
    _lines, passed = compare.compare(SPEC, first, failing)
    assert not passed


def test_a_corrupted_history_fails_chaos_open():
    scenario = workloads.ChaosOpen(42_000, scale=0.1)
    record = scenario.history.complete

    def corrupt(op_id, result, now):
        record(op_id, "never-written" if op_id is not None and op_id % 7 == 0 else result, now)

    scenario.history.complete = corrupt
    scenario.drive()
    assert any("not linearizable" in gate for gate in scenario.result()["gates"])


def test_open_loop_generator_counts_waiting_and_unfinished_ops():
    scenario = workloads.ChaosOpen(7, scale=0.1)
    slow = workloads.OpenLoopGenerator(
        scenario.cluster,
        sorted(scenario.raft),
        scenario.generator.workload,
        rate_per_s=4_000.0,
        n_sessions=2,
        history=scenario.history,
        client_id="ol2",
    )
    start = scenario.cluster.kernel.now
    slow.start(start, start + 500.0)
    scenario.advance(start + 500.0)

    assert len(slow.arrivals) >= 1_000 and slow.check() == []
    mean_gap_ms = (slow.arrivals[-1] - slow.arrivals[0]) / (len(slow.arrivals) - 1)
    assert mean_gap_ms == pytest.approx(0.25, rel=0.05)
    assert slow.generator_late_ms < 1e-6
    # Two sessions cannot keep up with 4 000 ops/s: ops queue, and the wait
    # for a session is inside the latency measured from the intended arrival.
    waited = [op for op in slow.ops if op.done_at != math.inf and op.queued_ms > 1.0]
    assert waited and all(op.done_at - op.due_at >= op.queued_ms for op in waited)
    # Ops still queued when the run stops are attempted and not acknowledged.
    unfinished = [op for op in slow.ops if op.done_at == math.inf]
    assert unfinished and slow.max_backlog >= len(unfinished) - 2
    scenario.generator = slow
    attempted, acked, _ontime = scenario.totals()
    assert attempted == len(slow.ops) and attempted - acked == len(unfinished)
    # One request at a time per session keeps the state machine's dedup valid.
    assert sum(raft.kv.double_applies for raft in scenario.raft.values()) == 0
