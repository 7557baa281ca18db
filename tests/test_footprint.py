"""What an operation's bookkeeping retains, measured with tracemalloc.

Raft keeps every entry it acknowledged and the tracer every RPC and fsync
it saw, so whatever one operation leaves behind is paid once per operation
for the whole run. These bounds are per item and timing-free: a store that
goes back to one object (or one tuple) per entry, row or sample fails them.
"""

import gc
import math
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.raft.log import RaftLog
from repro.raft.types import LogEntry
from repro.sim.kernel import Kernel
from repro.sim.metrics import LatencyRecorder
from repro.storage.durable import DurableRaftState
from repro.trace.tracepoints import Tracer


def retained_bytes(fill) -> int:
    """Bytes still allocated after ``fill()``, counting only what it allocated."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fill()
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_log_and_durable_store_keep_under_24_bytes_per_entry():
    """~153 B when the durable store was an index -> (entry, seq) dict and the
    entry cache an OrderedDict holding a second reference to each entry;
    ~26 B while the log kept its own entry list beside the store's run, ~17
    B now that the run is the only one."""
    n = 20_000
    entries = [LogEntry(1, index, ("put", "k", "v"), 48) for index in range(1, n + 1)]
    durable = DurableRaftState("s1")
    log = RaftLog(cache_entries=4096, store=durable)

    def fill():
        for first in range(0, n, 4):
            batch = entries[first : first + 4]
            for entry in batch:
                log.append(entry)
            durable.stage_entries(batch)

    assert retained_bytes(fill) / n <= 24
    assert log.last_index() == n and durable.durable_count() == 0


def test_an_rpc_and_an_fsync_row_keep_under_64_bytes():
    """~296 B for the pair as a 5-tuple and a 4-tuple with their floats."""
    tracer, n = Tracer(Kernel()), 10_000
    keys = [(f"s{i % 3 + 1}", f"s{(i + 1) % 3 + 1}", ("append", "vote")[i // 3]) for i in range(6)]

    def fill():
        for i in range(n):
            node, peer, method = keys[i % 6]
            tracer.on_rpc_complete(node, peer, method, 0.25 + i, float(i))
            tracer.on_fsync_complete(node, 4096 + i, 1.5 + i, float(i))

    assert retained_bytes(fill) / n <= 64
    assert len(tracer.rpc_latencies) == len(tracer.fsync_latencies) == n


def test_a_latency_sample_keeps_under_20_bytes():
    """~112 B as a (completed_at, latency) tuple in a list."""
    recorder, n = LatencyRecorder(), 10_000

    def fill():
        for i in range(n):
            recorder.record(float(i), 0.5 + i)

    assert retained_bytes(fill) / n <= 20
    assert recorder.count() == n


class _TupleRecorder:
    """The recorder as a list of (completed_at, latency) tuples: the reference."""

    def __init__(self):
        self.samples = []

    def in_window(self, start, end):
        return [latency for at, latency in self.samples if start <= at <= end]


_samples = st.lists(
    st.tuples(st.floats(0.0, 1e4, allow_nan=False), st.floats(0.0, 1e5, allow_nan=False)),
    max_size=80,
)
_bound = st.one_of(st.just(math.inf), st.floats(0.0, 1e4, allow_nan=False))


@settings(max_examples=200, deadline=None)
@given(samples=_samples, start=st.floats(0.0, 1e4, allow_nan=False), end=_bound)
def test_latency_recorder_reads_as_the_tuple_list(samples, start, end):
    recorder, reference = LatencyRecorder(), _TupleRecorder()
    for at, latency in samples:
        recorder.record(at, latency)
        reference.samples.append((at, latency))
    values = reference.in_window(start, end)
    assert recorder.in_window(start, end) == values
    assert recorder.count() == len(samples)
    ordered = sorted(values)
    for p in (0, 50, 99, 100):
        expected = ordered[max(1, math.ceil(p / 100.0 * len(ordered))) - 1] if ordered else 0.0
        assert recorder.percentile(p, start, end) == expected
    summary = recorder.summary(start, end)
    assert summary.count == len(values)
    if values:
        assert (summary.minimum, summary.maximum) == (ordered[0], ordered[-1])
        assert summary.mean == min(max(math.fsum(ordered) / len(ordered), ordered[0]), ordered[-1])
