"""What one benchmark episode leaves for CPython's cyclic collector.

Runs episode 0 of each ``benchmarks/perf`` workload twice, each in a
process of its own and set up exactly like ``perf/episode.py`` (build,
``gc.collect()``, ``gc.freeze()``, then drive):

* collector **off** for the episode — ``gc.collect()`` afterwards returns
  the number of objects only a collector pass could free (reference
  cycles); what is still tracked after it is what the run retains, by
  type, plus the RPC layer's never-answered ``_pending`` entries, the
  wait log's size (records, distinct shapes, bytes in its two columns),
  the RPC / fsync row logs' (rows, distinct keys, bytes), each node's one
  log (its durable store's entry list plus its seq column, summed over
  stores) and the entry caches' cut pairs;
* collector **on** — ``gc.callbacks`` time every pass by generation.

The collector-off run also reports the import closure: how many ``repro``
modules the benchmark's imports load and the peak RSS right after them.

Counts are exact for a seed; seconds are this machine's. Prints a table:

    python benchmarks/gc_census.py [--seed 42] [--workload raft_read ...]
"""

from __future__ import annotations

import argparse
import collections
import gc
import json
import os
import pathlib
import resource
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE / "perf"))

TOP_TYPES = 8


def _build(name: str, seed: int):
    import episode

    workloads = episode.import_workloads()
    closure = {
        "repro_modules": sum(1 for module in sys.modules if module.split(".")[0] == "repro"),
        "import_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    scenario = workloads.SCENARIOS[name](seed, 1.0)
    gc.collect()
    gc.freeze()
    return scenario, closure


def census_collector_off(name: str, seed: int) -> dict:
    scenario, closure = _build(name, seed)
    gc.disable()
    scenario.drive()
    result = scenario.result()
    unreachable = gc.collect()
    retained = collections.Counter(type(obj).__name__ for obj in gc.get_objects())
    gc.unfreeze()
    from repro.net.rpc import RpcEndpoint

    endpoints = [obj for obj in gc.get_objects() if isinstance(obj, RpcEndpoint)]
    tracer = scenario.cluster.tracer
    log, rpcs = tracer.records, tracer.rpc_latencies
    rafts = scenario._raft_objects
    durables = {id(raft.durable): raft.durable for raft in rafts}.values()
    return {
        **closure,
        "acked": result["acked"],
        "events": result["events"],
        "trace_hash": result["trace_hash"],
        "wait_records": len(log),
        "wait_shapes": len(log.shapes),
        "wait_log_bytes": sys.getsizeof(log.shape_of) + sys.getsizeof(log.times),
        "rpc_rows": len(rpcs),
        "rpc_keys": len(rpcs.shapes),
        "rpc_log_bytes": sys.getsizeof(rpcs.shape_of) + sys.getsizeof(rpcs.times),
        "fsync_rows": len(tracer.fsync_latencies),
        "durable_bytes": sum(sys.getsizeof(d._log) + sys.getsizeof(d._seqs) for d in durables),
        "cache_cuts": sum(len(raft.log._cuts) for raft in rafts),
        "unreachable": unreachable,
        "retained": sum(retained.values()),
        "retained_by_type": dict(retained.most_common(TOP_TYPES)),
        "rpc_pending": sum(len(endpoint._pending) for endpoint in endpoints),
    }


def census_collector_on(name: str, seed: int) -> dict:
    scenario, _closure = _build(name, seed)
    seconds, passes, started = [0.0, 0.0, 0.0], [0, 0, 0], [0.0]

    def on_gc(phase: str, info: dict) -> None:
        if phase == "start":
            started[0] = time.perf_counter()
        else:
            seconds[info["generation"]] += time.perf_counter() - started[0]
            passes[info["generation"]] += 1

    gc.callbacks.append(on_gc)
    wall_start = time.perf_counter()
    scenario.drive()
    wall_s = time.perf_counter() - wall_start
    gc.callbacks.remove(on_gc)
    return {"wall_s": wall_s, "gc_s": seconds, "gc_passes": passes}


def _child(mode: str, name: str, seed: int) -> dict:
    command = [sys.executable, __file__, "--child", mode, "--workload", name, "--seed", str(seed)]
    env = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONDONTWRITEBYTECODE": "1"}  # as run.py
    done = subprocess.run(command, env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="*", default=None)
    parser.add_argument("--seed", type=int, default=42, help="run.py's seed; episode 0 is seed*1000")
    parser.add_argument("--child", choices=("off", "on"), default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        census = census_collector_off if args.child == "off" else census_collector_on
        print(json.dumps(census(args.workload[0], args.seed)))
        return 0
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = args.workload or [workload["name"] for workload in spec["workloads"]]
    for name in names:
        off = _child("off", name, args.seed * 1000)
        on = _child("on", name, args.seed * 1000)
        gc_s = sum(on["gc_s"])
        print(
            f"{name}: acked {off['acked']}  events {off['events']}  "
            f"wait_records {off['wait_records']}  wait_shapes {off['wait_shapes']}  "
            f"wait_log_bytes {off['wait_log_bytes']}"
            f" ({off['wait_log_bytes'] / max(1, off['wait_records']):.1f} per wait)"
            f"  trace_hash {off['trace_hash'][:12]}"
        )
        print(
            f"  import closure: repro_modules {off['repro_modules']}"
            f"  import_rss_mb {off['import_rss_mb']:.1f}"
        )
        print(
            f"  collector off: unreachable {off['unreachable']}  retained {off['retained']}"
            f"  ({off['retained'] / max(1, off['wait_records']):.2f} per wait record)"
            f"  rpc_pending {off['rpc_pending']}"
        )
        print(
            f"  rpc_rows {off['rpc_rows']}  rpc_keys {off['rpc_keys']}"
            f"  rpc_log_bytes {off['rpc_log_bytes']}  fsync_rows {off['fsync_rows']}"
            f"  durable_bytes {off['durable_bytes']}  cache_cuts {off['cache_cuts']}"
        )
        print("  retained by type: " + "  ".join(f"{k} {v}" for k, v in off["retained_by_type"].items()))
        print(
            f"  collector on:  {gc_s:.3f} s of {on['wall_s']:.2f} s ({100 * gc_s / on['wall_s']:.1f}%)"
            f"  gen0/1/2 seconds {'/'.join(f'{s:.3f}' for s in on['gc_s'])}"
            f"  passes {'/'.join(str(n) for n in on['gc_passes'])}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
