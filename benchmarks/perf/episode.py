"""One episode of one scenario workload, in a process of its own.

``run.py`` starts this file once per episode: the message-id counter and
``ru_maxrss`` are process-global, and set-up time must include interpreter
start and ``import repro``. Prints one JSON object on the last line of
standard output.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import pathlib
import resource
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
REPO_SRC = HERE.parents[1] / "src"


def use_checkout_src() -> None:
    """Make ``import repro`` mean this checkout's ``src`` and no other."""
    sys.path.insert(0, str(REPO_SRC))
    import repro

    if REPO_SRC not in pathlib.Path(repro.__file__).resolve().parents:
        raise ImportError(f"repro was imported from {repro.__file__}, not from {REPO_SRC}")


def import_workloads():
    use_checkout_src()
    sys.path.insert(0, str(HERE))
    import workloads

    return workloads


def run_episode(name: str, seed: int, scale: float, profile: bool, spawned_at: float) -> dict:
    workloads = import_workloads()
    scenario = workloads.SCENARIOS[name](seed, scale)
    virtual_start_ms = scenario.cluster.kernel.now
    gc.collect()
    gc.freeze()
    setup_s = time.time() - spawned_at

    drive = scenario.drive
    if profile:
        import trace as layer_trace

        drive = functools.partial(layer_trace.profile_call, scenario.drive)
    wall_start, cpu_start = time.perf_counter(), time.process_time()
    stats = drive()
    run_wall_s = time.perf_counter() - wall_start
    run_cpu_s = time.process_time() - cpu_start

    result = scenario.result()
    virtual_s = (scenario.cluster.kernel.now - virtual_start_ms) / 1000.0
    result["host"] = {
        "setup_s": setup_s,
        "run_wall_s": run_wall_s,
        "run_cpu_s": run_cpu_s,
        "ops_per_wall_s": result["acked"] / run_wall_s,
        "sim_speedup": virtual_s / run_wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if profile:
        result["layers"] = layer_trace.summarize(stats)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--profile", action="store_true")
    parser.add_argument("--spawned-at", type=float, default=None)
    args = parser.parse_args(argv)
    spawned_at = args.spawned_at if args.spawned_at is not None else time.time()
    result = run_episode(args.workload, args.seed, args.scale, args.profile, spawned_at)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
