"""The repo benchmark: run workloads, check them, print every metric.

    python benchmarks/perf/run.py                        # all workloads + ladder
    python benchmarks/perf/run.py --workload raft_read   # one of them
    python benchmarks/perf/run.py --trace 1              # the traced run of each
    python benchmarks/perf/run.py --quick --repeats 1    # a smoke pass

A *run* of a scenario workload is a series of *episodes*: fresh processes
that each simulate a fixed stretch of virtual time with seed
``seed * 1000 + index``. The first ``EPISODES[workload]`` episodes define
the virtual-time metrics (their median), so those depend on the seed and
never on how fast the host is; episodes keep coming until ``--seconds`` of
wall time are used, and host-time metrics are the median over all of them.

The last line of standard output is one JSON object
(``correct``/``attempted``/``failed``/``metrics``); with ``--trace 1`` the
metrics are the per-layer ones. Any failed correctness gate makes the exit
code non-zero, with the workload and seed named.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"

# Episodes that define a run's virtual-time metrics (and its minimum
# length). Short episodes pool more of them: raft_read to steady its P99,
# chaos_open because its open-loop arrival count is Poisson-noisy.
EPISODES = {
    "raft_write": 3,
    "raft_read": 5,
    "fabric_txn": 3,
    "chaos_open": 9,
    "breaker_disk": 3,
}
LADDER = "ladder"
QUICK_SCALE = 0.1
EPISODE_TIMEOUT_S = 170
HOST_METRICS = ("setup_s", "ops_per_wall_s", "sim_speedup", "peak_rss_mb")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(script: str, *args: str) -> dict:
    """Run one of this directory's scripts; its last output line is JSON."""
    command = [sys.executable, str(HERE / script), *args]
    done = subprocess.run(
        command, env=child_env(), capture_output=True, text=True, timeout=EPISODE_TIMEOUT_S
    )
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spawn_episode(workload: str, seed: int, scale: float, profile: bool = False) -> dict:
    args = ["--workload", workload, "--seed", str(seed), "--scale", repr(scale)]
    if profile:
        args.append("--profile")
    return run_child("episode.py", *args, "--spawned-at", repr(time.time()))


def quartiles(values: List[float]) -> dict:
    """Median, quartiles and count, as the report and compare.py use them."""
    if len(values) > 1:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


class WorkloadRun:
    """The episodes of one workload at one seed, and what they add up to."""

    def __init__(self, name: str, seed: int, scale: float, seconds: float, repeats: Optional[int]):
        self.name = name
        self.seed = seed
        self.scale = scale
        self.seconds = seconds
        self.sim_episodes = EPISODES[name] if repeats is None else min(EPISODES[name], repeats)
        self.repeats = repeats
        self.episodes: List[dict] = []
        self.spent_s = 0.0

    def step(self) -> None:
        started = time.perf_counter()
        index = len(self.episodes)
        self.episodes.append(spawn_episode(self.name, self.seed * 1000 + index, self.scale))
        self.spent_s += time.perf_counter() - started

    def done(self) -> bool:
        count = len(self.episodes)
        if self.repeats is not None:
            return count >= self.repeats
        if count < self.sim_episodes:
            return False
        return self.spent_s + self.spent_s / count > self.seconds

    # ------------------------------------------------------------------
    def gates(self) -> List[str]:
        return [
            f"{self.name} seed {episode['seed']}: {gate}"
            for episode in self.episodes
            for gate in episode["gates"]
        ]

    def summary(self) -> dict:
        """Every end-to-end metric with its quartiles, plus the exact parts."""
        defining = self.episodes[: self.sim_episodes]
        metrics = {
            name: quartiles([episode["host"][name] for episode in self.episodes])
            for name in HOST_METRICS
        }
        for name in defining[0]["sim"]:
            metrics[name] = quartiles([episode["sim"][name] for episode in defining])
        digest = hashlib.sha256(
            "".join(episode["trace_hash"] for episode in defining).encode()
        ).hexdigest()
        return {
            "seed": self.seed,
            "loop": defining[0]["loop"],
            "episodes": len(self.episodes),
            "sim_episodes": self.sim_episodes,
            "metrics": metrics,
            "samples_post_window": [episode["samples"]["post"] for episode in defining],
            "attempted": sum(episode["attempted"] for episode in self.episodes),
            "failed": sum(episode["failed"] for episode in self.episodes),
            "trace_hash": digest,
            "counters": [episode["counters"] for episode in defining],
            "run_cpu_s": statistics.median(e["host"]["run_cpu_s"] for e in self.episodes),
            "gates": self.gates(),
        }


def run_ladder(quick: bool) -> dict:
    return run_child("ladder.py", *(["--repeats", "1"] if quick else []))


def traced_run(name: str, seed: int, scale: float, ladder: Dict[str, float]) -> dict:
    """One untraced and one profiled episode of the same seed, plus the ladder.

    The untraced episode gives the boundary counters and the wall time the
    profile is compared with; both must agree on everything virtual.
    """
    plain = spawn_episode(name, seed * 1000, scale)
    traced = spawn_episode(name, seed * 1000, scale, profile=True)
    gates = [f"{name} seed {plain['seed']}: {gate}" for gate in plain["gates"]]
    if any(plain[key] != traced[key] for key in ("trace_hash", "sim", "counters")):
        gates.append(f"{name} seed {plain['seed']}: two same-seed runs disagree on virtual behaviour")
    layers = traced["layers"]
    metrics = dict(plain["counters"])
    metrics["trace.linearize.check_s"] = plain["linearize_check_s"]
    for layer, numbers in layers["layers"].items():
        for field, value in numbers.items():
            metrics[f"{layer}.{field}"] = value
    overhead = traced["host"]["run_wall_s"] / plain["host"]["run_wall_s"]
    metrics["trace.overhead_ratio"] = overhead
    metrics.update(ladder)
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{name}.trace.json").write_text(
        json.dumps(
            {
                "workload": name,
                "seed": plain["seed"],
                "untraced_wall_s": plain["host"]["run_wall_s"],
                "traced_wall_s": traced["host"]["run_wall_s"],
                "overhead_ratio": overhead,
                **layers,
            },
            indent=1,
        )
        + "\n"
    )
    return {
        "seed": seed,
        "metrics": metrics,
        "attempted": plain["attempted"],
        "failed": plain["failed"],
        "trace_hash": plain["trace_hash"],
        "gates": gates,
    }


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def print_summary(name: str, summary: dict, units: Dict[str, str]) -> None:
    print(
        f"\n== {name}  ({summary['loop']})  seed {summary['seed']}  {summary['episodes']} episodes "
        f"({summary['sim_episodes']} define the virtual metrics)  "
        f"attempted {summary['attempted']}  failed {summary['failed']}  "
        f"P99 over {min(summary['samples_post_window'])}+ samples"
    )
    print(f"   {'metric':<22}{'unit':<15}{'median':>14}{'q1':>14}{'q3':>14}{'n':>4}")
    for metric, stats in summary["metrics"].items():
        print(
            f"   {metric:<22}{units.get(metric, ''):<15}{stats['median']:>14.6g}"
            f"{stats['q1']:>14.6g}{stats['q3']:>14.6g}{stats['n']:>4}"
        )
    print(f"   trace_hash {summary['trace_hash'][:16]}  cpu {summary['run_cpu_s']:.3f} s/episode")


def print_layers(name: str, metrics: Dict[str, float], units: Dict[str, str]) -> None:
    print(f"\n== {name}  per-layer metrics")
    for metric, value in metrics.items():
        print(f"   {metric:<44}{units.get(metric, ''):<10}{value:>16.6g}")


def result_line(correct: bool, attempted: int, failed: int, metrics, units) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": units[name]} for name, value in metrics.items()
            },
        }
    )


def main(argv=None) -> int:
    spec = load_spec()
    scenario_names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*scenario_names, LADDER], default=None)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--repeats", type=int, default=None, help="episodes per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: the traced run")
    parser.add_argument("--quick", action="store_true", help="one tenth of the virtual duration")
    parser.add_argument("--out", default=None, help="write the result set here (for compare.py)")
    args = parser.parse_args(argv)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    scale = QUICK_SCALE if args.quick else 1.0
    names = [args.workload] if args.workload else [*scenario_names, LADDER]
    scenarios = [name for name in names if name != LADDER]
    out: Dict[str, dict] = {"seed": args.seed, "quick": args.quick, "workloads": {}, "traced": {}}
    gates: List[str] = []

    if args.trace == 0:
        # Round-robin, so a noisy minute spreads over every workload.
        runs = {
            name: WorkloadRun(name, args.seed, scale, args.seconds, args.repeats)
            for name in scenarios
        }
        pending = list(scenarios)
        while pending:
            for name in list(pending):
                runs[name].step()
                if runs[name].done():
                    pending.remove(name)
        for name in scenarios:
            summary = runs[name].summary()
            out["workloads"][name] = summary
            gates.extend(summary["gates"])
            print_summary(name, summary, units)
    if LADDER in names or args.trace == 1:
        out[LADDER] = run_ladder(args.quick)
    if args.trace == 1:
        for name in scenarios:
            traced = traced_run(name, args.seed, scale, out[LADDER])
            out["traced"][name] = traced
            gates.extend(traced["gates"])
            print_layers(name, traced["metrics"], units)
    elif LADDER in names:
        print_layers(LADDER, out[LADDER], units)

    for gate in gates:
        print(f"GATE FAILED  {gate}", file=sys.stderr)
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(out, indent=1) + "\n")

    # The contract's result line describes one workload.
    if len(scenarios) == 1:
        name = scenarios[0]
        if args.trace == 1:
            part = out["traced"][name]
            wanted = [m["name"] for m in spec["per_layer"]]
            metrics = {metric: part["metrics"][metric] for metric in wanted}
        else:
            part = out["workloads"][name]
            wanted = [m["name"] for m in spec["end_to_end"]]
            metrics = {metric: part["metrics"][metric]["median"] for metric in wanted}
        print(result_line(not gates, part["attempted"], part["failed"], metrics, units))
    return 1 if gates else 0


if __name__ == "__main__":
    sys.exit(main())
