"""The ladder: every layer alone, fixed work, no cluster.

Each rung drives one layer through its public API and nothing else, so a
rung moves only when its layer changes; a scenario regression can be
assigned to a layer by seeing which rung moved with it. A rung sets up
untimed, times a fixed amount of work, and reports work units per second
as the best of ``REPEATS`` tries (the least disturbed one). Prints one
JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import random
import sys
import time
from typing import Callable, Dict, Tuple

HERE = pathlib.Path(__file__).resolve().parent
REPEATS = 5

# A rung returns (work units done, seconds the timed part took).
Rung = Callable[[], Tuple[int, float]]
RUNGS: Dict[str, Rung] = {}


def rung(name: str) -> Callable[[Rung], Rung]:
    def register(fn: Rung) -> Rung:
        RUNGS[name] = fn
        return fn

    return register


def _nop(*_args) -> None:
    return None


def _timed(fn: Callable[[], None]) -> float:
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


# ----------------------------------------------------------------------
# sim
# ----------------------------------------------------------------------
@rung("sim.kernel.drain_events_per_s")
def kernel_drain():
    """20k callbacks over 97 due-times: the BENCH_kernel.json shape."""
    from repro.sim.kernel import Kernel

    kernel, n = Kernel(), 20_000

    def work() -> None:
        schedule = kernel.schedule
        for i in range(n):
            schedule(float(i % 97), _nop)
        kernel.run_until_idle()

    return n, _timed(work)


@rung("sim.resources.cpu_jobs_per_s")
def cpu_jobs():
    from repro.sim.kernel import Kernel
    from repro.sim.resources import CpuResource

    kernel, n = Kernel(), 10_000
    cpu = CpuResource(kernel, base_rate=4.0, name="ladder.cpu")

    def work() -> None:
        for _ in range(n):
            cpu.submit(0.05, _nop)
        kernel.run_until_idle()

    return n, _timed(work)


@rung("sim.metrics.records_per_s")
def metric_records():
    from repro.sim.metrics import LatencyRecorder

    recorder, n = LatencyRecorder("ladder"), 50_000

    def work() -> None:
        record = recorder.record
        for i in range(n):
            record(float(i), 1.0 + (i % 13))
        recorder.summary()

    return n, _timed(work)


# ----------------------------------------------------------------------
# runtime, events
# ----------------------------------------------------------------------
@rung("runtime.scheduler.switches_per_s")
def coroutine_switches():
    """50 coroutines each sleeping 100 times: suspend + resume pairs."""
    from repro.runtime.runtime import Runtime
    from repro.sim.kernel import Kernel

    kernel = Kernel()
    runtime = Runtime(kernel, node="ladder")
    coroutines, cycles = 50, 100

    def sleeper():
        for _ in range(cycles):
            yield runtime.sleep(1.0)

    def work() -> None:
        for index in range(coroutines):
            runtime.spawn(sleeper(), name=f"sleeper-{index}")
        kernel.run_until_idle()

    return coroutines * cycles, _timed(work)


@rung("events.quorum_fires_per_s")
def quorum_fires():
    """Compose a 51-of-100 quorum, trigger 51 children, observe it fire."""
    from repro.events.base import Event
    from repro.events.compound import QuorumEvent

    n = 200

    def work() -> None:
        for _ in range(n):
            quorum = QuorumEvent(51, n_total=100)
            children = [Event(name="child") for _ in range(100)]
            for child in children:
                quorum.add(child)
            for child in children[:51]:
                child.trigger(0.0)
            if not quorum.ready():
                raise AssertionError("quorum did not fire")

    return n, _timed(work)


# ----------------------------------------------------------------------
# net
# ----------------------------------------------------------------------
@rung("net.network.msgs_per_s")
def network_messages():
    from repro.net.inbox import Inbox
    from repro.net.message import Message
    from repro.net.network import Network
    from repro.sim.kernel import Kernel

    kernel, n = Kernel(), 10_000
    network = Network(kernel)
    inboxes = {node: Inbox(node) for node in ("a", "b")}
    for node, inbox in inboxes.items():
        network.attach(node, inbox)

    def work() -> None:
        for _ in range(n):
            network.send(Message("a", "b", "ladder", size_bytes=100))
            # Taking a message acks it, which reopens the sender's window.
            kernel.run_until_idle()
            inboxes["b"].get_event()

    return n, _timed(work)


@rung("net.rpc.roundtrips_per_s")
def rpc_roundtrips():
    """Two nodes, an echo handler, sequential calls from one coroutine."""
    from repro.cluster.cluster import Cluster

    cluster, n = Cluster(seed=1), 2_000
    server, caller = cluster.add_node("server"), cluster.add_node("caller")

    def echo(payload, _src):
        return payload
        yield  # a handler is a generator

    server.endpoint.register("echo", echo)
    server.start()
    caller.start()

    def calls():
        for index in range(n):
            event = caller.endpoint.call("server", "echo", {"n": index}, size_bytes=64)
            yield event.wait()
            if not event.ok:
                raise AssertionError("echo call failed")

    def work() -> None:
        caller.runtime.spawn(calls(), name="ladder-calls")
        cluster.kernel.run_until_idle()

    return n, _timed(work)


# ----------------------------------------------------------------------
# storage
# ----------------------------------------------------------------------
@rung("storage.wal.syncs_per_s")
def wal_syncs():
    from repro.cluster.cluster import Cluster

    cluster, n = Cluster(seed=1), 5_000
    node = cluster.add_node("disk")

    def work() -> None:
        for _ in range(n):
            node.wal.append(256)
            node.wal.sync()
        cluster.kernel.run_until_idle()

    return n, _timed(work)


def _durable_sync_cycles(retained: int):
    """stage + begin_sync + commit_sync with ``retained`` entries on disk."""
    from repro.raft.types import LogEntry
    from repro.storage.durable import DurableRaftState

    durable, cycles, batch = DurableRaftState("ladder"), 200, 4
    op = ("put", "key", "value")
    durable.stage_entries([LogEntry(1, index, op, 64) for index in range(1, retained + 1)])
    durable.commit_sync(durable.begin_sync())
    fresh = [
        [LogEntry(1, retained + 1 + cycle * batch + i, op, 64) for i in range(batch)]
        for cycle in range(cycles)
    ]

    def work() -> None:
        for entries in fresh:
            durable.stage_entries(entries)
            durable.commit_sync(durable.begin_sync())

    seconds = _timed(work)
    if durable.durable_count() != retained + cycles * batch:
        raise AssertionError("a sync cycle lost entries")
    return cycles, seconds


@rung("storage.durable.sync_cycles_per_s.n1k")
def durable_sync_1k():
    return _durable_sync_cycles(1_000)


@rung("storage.durable.sync_cycles_per_s.n16k")
def durable_sync_16k():
    return _durable_sync_cycles(16_000)


@rung("storage.kvstore.applies_per_s")
def kvstore_applies():
    from repro.storage.kvstore import KvStore

    store, n = KvStore(), 50_000
    ops = [("put", f"key{i % 1000}", f"value{i}") for i in range(n)]

    def work() -> None:
        apply = store.apply
        for op in ops:
            apply(op)

    return n, _timed(work)


# ----------------------------------------------------------------------
# raft, workload
# ----------------------------------------------------------------------
@rung("raft.log.appends_per_s")
def raft_log_appends():
    from repro.raft.log import RaftLog
    from repro.raft.types import LogEntry

    log, n = RaftLog(), 20_000
    entries = [LogEntry(1, index, ("put", "key", "value"), 64) for index in range(1, n + 1)]

    def work() -> None:
        for entry in entries:
            log.append(entry)
        if log.last_index() != n or len(log.slice(n - 63, n)) != 64:
            raise AssertionError("log lost entries")

    return n, _timed(work)


@rung("workload.ycsb.ops_per_s")
def ycsb_ops():
    from repro.workload.ycsb import YcsbWorkload

    workload, n = YcsbWorkload(random.Random(7), record_count=1_000, update_fraction=0.5), 20_000

    def work() -> None:
        next_op = workload.next_op
        for _ in range(n):
            next_op()

    return n, _timed(work)


# ----------------------------------------------------------------------
# trace
# ----------------------------------------------------------------------
class _Coro:
    """The attributes the tracer reads off a waiting coroutine."""

    name, node, dedication = "ladder-coro", "n1", None


def _wait_records(n: int):
    from repro.events.base import Event
    from repro.sim.kernel import Kernel
    from repro.trace.tracepoints import Tracer

    tracer = Tracer(Kernel())
    coro, event = _Coro(), Event(name="ladder-wait", source="n2")

    def work() -> None:
        for index in range(n):
            tracer.on_wait_start(coro, event, float(index), None)
            tracer.on_wait_end(coro, event, index + 0.5, False)

    return tracer, work


@rung("trace.tracepoints.wait_records_per_s")
def tracer_wait_records():
    n = 30_000
    tracer, work = _wait_records(n)
    seconds = _timed(work)
    if len(tracer.records) != n:
        raise AssertionError("tracer dropped wait records")
    return n, seconds


@rung("trace.spg.build_records_per_s")
def spg_build():
    from repro.trace.spg import build_spg

    n = 20_000
    tracer, record = _wait_records(n)
    record()
    return n, _timed(lambda: build_spg(tracer.records))


@rung("trace.linearize.ops_per_s")
def linearize_ops():
    """Eight clients interleaving puts and gets on 32 registers."""
    from repro.trace.linearize import HistoryRecorder, check_linearizable

    history, n, rng = HistoryRecorder(), 4_000, random.Random(7)
    values: Dict[str, object] = {}
    for index in range(n):
        key, now = f"key{rng.randrange(32)}", float(index)
        if rng.random() < 0.6:
            op_id = history.invoke(f"c{index % 8}", ("put", key, index), now)
            values[key] = index
            history.complete(op_id, None, now + 0.5)
        else:
            op_id = history.invoke(f"c{index % 8}", ("get", key), now)
            history.complete(op_id, values.get(key), now + 0.5)

    def work() -> None:
        if not check_linearizable(history).ok:
            raise AssertionError("a sequential history must be linearizable")

    return n, _timed(work)


# ----------------------------------------------------------------------
# detector, hedging, breaker: fed through the tracer's trace points
# ----------------------------------------------------------------------
def _rpc_samples(attach: Callable[[object], object]):
    from repro.sim.kernel import Kernel
    from repro.trace.tracepoints import Tracer

    tracer, n = Tracer(Kernel()), 30_000
    attach(tracer)
    peers = ["s2", "s3", "s4"]

    def work() -> None:
        on_rpc = tracer.on_rpc_complete
        for index in range(n):
            on_rpc("s1", peers[index % 3], "append_entries", 1.0 + (index % 7) * 0.1, float(index))

    return n, _timed(work)


@rung("detector.scoring.samples_per_s")
def scoring_samples():
    from repro.detector.scoring import SlownessScorer

    return _rpc_samples(SlownessScorer)


@rung("hedging.estimator.samples_per_s")
def hedging_samples():
    from repro.hedging.estimator import HedgeDelayEstimator

    return _rpc_samples(HedgeDelayEstimator().attach)


@rung("breaker.attribution.samples_per_s")
def attribution_samples():
    from repro.breaker.attribution import DiskAttributor
    from repro.sim.kernel import Kernel
    from repro.trace.tracepoints import Tracer

    tracer, n = Tracer(Kernel()), 30_000
    attributor = DiskAttributor(tracer)
    nodes = ["s1", "s2", "s3"]

    def work() -> None:
        for index in range(n):
            node, now = nodes[index % 3], float(index)
            tracer.on_fsync_begin(node, 512, now)
            tracer.on_fsync_complete(node, 512, 0.4 + (index % 5) * 0.05, now + 0.4)
            if index % 500 == 499:
                attributor.roll_window(now)

    return n, _timed(work)


# ----------------------------------------------------------------------
# fabric, analysis
# ----------------------------------------------------------------------
@rung("fabric.shardmap.lookups_per_s")
def shardmap_lookups():
    from repro.fabric.shardmap import HashShardMap

    shard_map, n = HashShardMap({f"g{i}": ["n1", "n2", "n3"] for i in range(4)}), 30_000
    keys = [f"key{i % 200:03d}" for i in range(n)]

    def work() -> None:
        shard_for = shard_map.shard_for
        for key in keys:
            shard_for(key)

    return n, _timed(work)


@rung("analysis.lint.files_per_s")
def lint_files():
    """depfast-lint over the events package (4 files, whole-program mode)."""
    import repro.events
    from repro.analysis.lint import run_lint

    package = pathlib.Path(repro.events.__file__).parent
    files = sorted(str(path) for path in package.glob("*.py"))
    return len(files), _timed(lambda: run_lint(files))


# ----------------------------------------------------------------------
def run_ladder(repeats: int = REPEATS) -> Dict[str, float]:
    """Every rung's best rate, their ratio metric and the summed time."""
    metrics: Dict[str, float] = {}
    wall_s = 0.0
    for name, fn in RUNGS.items():
        best_rate, best_seconds = 0.0, float("inf")
        for _ in range(repeats):
            gc.collect()
            units, seconds = fn()
            best_rate = max(best_rate, units / seconds)
            best_seconds = min(best_seconds, seconds)
        metrics[name] = best_rate
        wall_s += best_seconds
    # 1 is flat; ~16 is a scan of every retained entry on every fsync.
    metrics["storage.durable.sync_scaling"] = (
        metrics["storage.durable.sync_cycles_per_s.n1k"]
        / metrics["storage.durable.sync_cycles_per_s.n16k"]
    )
    metrics["ladder.wall_s"] = wall_s
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=REPEATS)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE))
    from episode import use_checkout_src

    use_checkout_src()
    print(json.dumps(run_ladder(args.repeats)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
