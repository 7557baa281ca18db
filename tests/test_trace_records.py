"""The column-wise trace logs, the SPG's own digraph and what ``import repro`` loads.

``Tracer.records`` used to be a list of :class:`WaitRecord` objects and the
SPG a ``networkx.DiGraph``; both were replaced in place, so these tests pin
that each is still the thing its readers used — and the footprint that paid
for the change, without reading a clock.
"""

import gc
import os
import pathlib
import subprocess
import sys
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.events.base import Event
from repro.events.basic import RpcEvent
from repro.events.compound import QuorumEvent
from repro.sim.kernel import Kernel
from repro.trace.records import WaitLog
from repro.trace.spg import Spg, build_spg
from repro.trace.tracepoints import Tracer, WaitRecord

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
FIELDS = WaitRecord.__slots__


def fields(record):
    return tuple(getattr(record, field) for field in FIELDS)


def coro(name="worker", node="s1", dedication=None):
    return SimpleNamespace(name=name, node=node, dedication=dedication)


# ----------------------------------------------------------------------
# The import closure
# ----------------------------------------------------------------------
def test_importing_repro_loads_only_the_standard_library():
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import repro, repro.trace.spg, repro.bench.figure2\n"
        "added = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(sorted(added - set(sys.stdlib_module_names) - {'repro'}))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


# ----------------------------------------------------------------------
# WaitLog is the list it replaces
# ----------------------------------------------------------------------
_EDGE_SETS = [(), (("s2", 1, 1),), (("s2", 2, 3), ("s3", 2, 3))]
_times = st.one_of(st.integers(0, 10_000), st.floats(0.0, 10_000.0, allow_nan=False))
_waits = st.lists(
    st.tuples(
        st.sampled_from(["appender", "batcher", "client-7"]),  # few names: shapes repeat
        st.sampled_from(["s1", "s2", None]),
        st.sampled_from([None, "s3"]),
        st.sampled_from(range(len(_EDGE_SETS))),
        st.booleans(),
        _times,
        _times,
    ),
    max_size=60,
)


class _FixedEdges(Event):
    """An event whose wait edges are whatever the test hands it."""

    __slots__ = ("edges",)

    def __init__(self, edges, kind_name):
        super().__init__(name=kind_name)
        self.edges = edges

    def wait_edges(self):
        return self.edges


@settings(max_examples=60, deadline=None)
@given(waits=_waits, data=st.data())
def test_wait_log_reads_back_as_the_eager_list(waits, data):
    tracer, eager = Tracer(Kernel()), []
    assert tracer.records == [] and list(tracer.records) == []
    for name, node, dedication, which, timed_out, started_at, ended_at in waits:
        event = _FixedEdges(_EDGE_SETS[which], f"wait-{which}")
        tracer.on_wait(coro(name, node, dedication), event, started_at, ended_at, timed_out)
        eager.append(
            WaitRecord(
                name, node, event.kind, event.name, _EDGE_SETS[which],
                started_at, ended_at, timed_out, dedication,
            )
        )
    log = tracer.records
    assert len(log) == len(eager)
    assert [fields(record) for record in log] == [fields(record) for record in eager]
    assert [fields(record) for record in reversed(log)] == [fields(r) for r in reversed(eager)]
    assert log == eager and (log == []) == (not eager)
    for record in log:
        assert type(record.started_at) is float and type(record.ended_at) is float
    if eager:
        index = data.draw(st.integers(-len(eager), len(eager) - 1))
        assert fields(log[index]) == fields(eager[index])
        assert log[index] in log and log.index(log[index]) <= index % len(eager)
    bounds = st.one_of(st.none(), st.integers(-70, 70))
    cut = slice(data.draw(bounds), data.draw(bounds), data.draw(st.sampled_from([None, 1, 2, -1, -3])))
    sliced = log[cut]
    assert isinstance(sliced, list)
    assert [fields(record) for record in sliced] == [fields(record) for record in eager[cut]]
    for bad in (len(eager), -len(eager) - 1):
        with pytest.raises(IndexError):
            log[bad]
    # One table row per distinct shape, never one per wait.
    assert len(log.shapes) == len(log.shape_ids) == len({fields(r)[:5] + fields(r)[7:] for r in eager})
    assert set(log.shapes) == {fields(r)[:5] + fields(r)[7:] for r in eager}


_rpc_rows = st.lists(
    st.tuples(
        st.sampled_from(["s1", "s2"]),
        st.sampled_from(["s2", "s3"]),
        st.sampled_from(["append", "vote"]),
        st.integers(0, 1 << 20),
        st.floats(0.0, 1e4, allow_nan=False),
        st.floats(0.0, 1e6, allow_nan=False),
    ),
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(rows=_rpc_rows, data=st.data())
def test_rpc_and_fsync_rows_read_back_as_the_eager_tuples(rows, data):
    """``rpc_latencies`` / ``fsync_latencies`` used to be lists of tuples:
    field by field and type by type, they still read as those lists."""
    tracer, rpcs, fsyncs = Tracer(Kernel()), [], []
    assert tracer.rpc_latencies == [] and tracer.fsync_latencies == []
    for node, peer, method, n_bytes, latency, now in rows:
        tracer.on_rpc_complete(node, peer, method, latency, now)
        tracer.on_fsync_complete(node, n_bytes, latency, now)
        rpcs.append((node, peer, method, latency, now))
        fsyncs.append((node, n_bytes, latency, now))
    types = lambda rows: [tuple(map(type, row)) for row in rows]  # noqa: E731
    for log, eager in ((tracer.rpc_latencies, rpcs), (tracer.fsync_latencies, fsyncs)):
        assert len(log) == len(eager) and list(log) == eager and types(log) == types(eager)
        assert log == eager and (log == []) == (not eager)
        if eager:
            index = data.draw(st.integers(-len(eager), len(eager) - 1))
            assert log[index] == eager[index] and types([log[index]]) == types([eager[index]])
            assert eager[index] in log
        bounds = st.one_of(st.none(), st.integers(-45, 45))
        cut = slice(data.draw(bounds), data.draw(bounds), data.draw(st.sampled_from([None, 2, -1])))
        assert log[cut] == eager[cut] and isinstance(log[cut], list)
        with pytest.raises(IndexError):
            log[len(eager)]
    assert len(tracer.rpc_latencies.shapes) == len({row[:3] for row in rpcs})
    assert len(tracer.fsync_latencies.shapes) == len({row[:1] for row in fsyncs})


def test_edges_are_the_ones_at_wait_end():
    tracer, waiter = Tracer(Kernel()), coro()
    quorum = QuorumEvent(quorum=1, n_total=3, name="repl")
    quorum.add(RpcEvent("ae", to_node="s2"))
    tracer.on_wait(waiter, quorum, 0.0, 1.0, False)
    quorum.add(RpcEvent("ae", to_node="s3"))  # a late child changes nothing recorded
    tracer.on_wait(waiter, quorum, 1.0, 2.0, False)
    first, second = tracer.records
    assert first.edges == (("s2", 1, 3),)
    assert second.edges == (("s2", 1, 3), ("s3", 1, 3))
    assert len(tracer.records.shapes) == 2


def test_a_record_read_from_the_log_is_a_fresh_object():
    tracer = Tracer(Kernel())
    tracer.on_wait(coro(), Event(name="e", source="s2"), 1.0, 4.0, False)
    record = tracer.records[0]
    assert record is not tracer.records[0] and record == tracer.records[0]
    record.node, record.ended_at = "elsewhere", 99.0
    assert fields(tracer.records[0])[:2] == ("worker", "s1")
    assert tracer.records[0].waited_ms == 3.0
    assert record != tracer.records[0]


def test_a_disabled_tracer_interns_nothing_either():
    tracer = Tracer(Kernel(), enabled=False)
    tracer.on_wait(coro(), Event(source="s2"), 0.0, 1.0, False)
    tracer.on_wait_start(coro(), Event(), 0.0, None)
    log = tracer.records
    assert log == [] and len(log) == 0 and not log.shapes and not log.times
    assert tracer._open_waits == {}


def test_unhashable_wait_edges_fail_at_the_wait_and_name_the_contract():
    tracer = Tracer(Kernel())
    with pytest.raises(TypeError, match="WaitEdges"):
        tracer.on_wait(coro(), _FixedEdges([("s2", 1, 1)], "listy"), 0.0, 1.0, False)
    assert tracer.records == [] and not tracer.records.shapes


def test_a_wait_costs_twenty_bytes_and_no_tracked_object():
    tracer, n, n_shapes = Tracer(Kernel()), 10_000, 20
    waiters = [coro(name=f"stream-{index}") for index in range(n_shapes)]
    event = Event(name="ack", source="s2")
    gc.collect()
    tracked_before = len(gc.get_objects())
    for index in range(n):
        tracer.on_wait(waiters[index % n_shapes], event, float(index), index + 0.5, False)
    tracked = len(gc.get_objects()) - tracked_before
    log = tracer.records
    assert len(log) == n and len(log.shapes) == n_shapes
    assert (sys.getsizeof(log.shape_of) + sys.getsizeof(log.times)) / n <= 24
    assert tracked <= 4 * n_shapes  # one shape tuple each, not one object per wait


def test_raft_waits_fall_into_few_shapes(monkeypatch):
    """A wait path that mints a unique name per wait would cost more than
    the record object did (~250 B for the shape and its table slot)."""
    from repro.bench import determinism

    made = []

    class Capturing(determinism.Cluster):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(determinism, "Cluster", Capturing)
    determinism.run_traced("raft")
    (cluster,) = made
    log = cluster.tracer.records
    assert isinstance(log, WaitLog) and len(log) > 10_000
    assert len(log.shapes) * 10 <= len(log)


# ----------------------------------------------------------------------
# Spg is the graph the callers use
# ----------------------------------------------------------------------
class TestSpgGraph:
    def test_edges_mapping_and_call_agree_in_insertion_order(self):
        graph = Spg()
        graph.add_node("lonely")
        graph.add_edge("s1", "s2", color="green", count=3)
        graph.add_edge("c1", "s1", color="red", count=1)
        graph.add_edge("s1", "s3", color="green", count=2)
        assert graph.edges(data=True) == [
            ("s1", "s2", {"color": "green", "count": 3}),
            ("c1", "s1", {"color": "red", "count": 1}),
            ("s1", "s3", {"color": "green", "count": 2}),
        ]
        assert graph.edges[("c1", "s1")]["color"] == "red"
        assert list(graph.nodes) == ["lonely", "s1", "s2", "c1", "s3"]
        assert graph.number_of_nodes() == 5 and graph.number_of_edges() == 3
        assert graph.has_node("s3") and graph.has_node("lonely") and not graph.has_node("s9")

    def test_missing_edge_is_a_key_error(self):
        graph = Spg()
        graph.add_edge("s1", "s2", color="green")
        with pytest.raises(KeyError):
            graph.edges[("s2", "s1")]
        with pytest.raises(KeyError):
            graph.edges[("s1", "s9")]

    def test_build_spg_from_a_wait_log(self):
        tracer = Tracer(Kernel())
        quorum = QuorumEvent(quorum=2, n_total=3, name="repl")
        for peer in ("s2", "s3"):
            quorum.add(RpcEvent("ae", to_node=peer))
        tracer.on_wait(coro(node="s1"), quorum, 0.0, 4.0, False)
        tracer.on_wait(coro(node="c1"), RpcEvent("put", to_node="s1"), 0.0, 6.0, False)
        graph = build_spg(tracer.records)
        assert graph.edges[("s1", "s2")] == {
            "color": "green", "label": "2/3", "count": 1, "total_wait_ms": 4.0,
        }
        assert graph.edges[("c1", "s1")]["color"] == "red"
        assert graph.number_of_nodes() == 4 and graph.number_of_edges() == 3


@settings(max_examples=60, deadline=None)
@given(
    waits=st.lists(
        st.tuples(
            st.sampled_from(["a", "b", "c", "d", None]),
            st.lists(st.tuples(st.sampled_from("abcde"), st.integers(1, 2), st.just(2)), max_size=3),
            st.floats(0.0, 50.0, allow_nan=False),
        ),
        max_size=40,
    )
)
def test_build_spg_lists_edges_in_the_order_networkx_did(waits):
    """``coupling_into`` sums floats over ``edges(data=True)``: the order is
    output. Checked against the real thing wherever it is still installed."""
    nx = pytest.importorskip("networkx")
    records = [
        WaitRecord("c", node, "quorum", "e", tuple(edges), 0.0, waited, False)
        for node, edges, waited in waits
    ]
    ours = build_spg(records)
    theirs, first_seen = nx.DiGraph(), {}
    for record in records:
        if record.node is not None:
            theirs.add_node(record.node)
            for source, _k, _n in record.edges:
                if source != record.node:
                    theirs.add_node(source)
                    first_seen[(record.node, source)] = None
    for src, dst in first_seen:  # nodes first, then edges as first waited on
        theirs.add_edge(src, dst, **ours.edges[(src, dst)])
    assert list(ours.nodes) == list(theirs.nodes)
    assert ours.edges(data=True) == list(theirs.edges(data=True))
