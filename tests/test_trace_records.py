"""The column-wise trace logs, the SPG's own digraph, what ``import repro`` loads, how
many wait shapes a run interns, and every reader of a run against its per-wait oracle.

``Tracer.records`` used to be a list of :class:`WaitRecord` objects and the
SPG a ``networkx.DiGraph``; both were replaced in place, so these tests pin
that each is still the thing its readers used — and the footprint that paid
for the change, without reading a clock.
"""

import ast
import gc
import os
import pathlib
import subprocess
import sys
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.spgdiff import RuntimeEdge, _runtime_edges
from repro.bench.determinism import SCENARIOS
from repro.events.base import Event
from repro.events.basic import RpcEvent
from repro.events.compound import QuorumEvent
from repro.sim.kernel import Kernel
from repro.trace import analysis
from repro.trace.records import WaitLog
from repro.trace.spg import Spg, build_spg
from repro.trace.tracepoints import Tracer, WaitRecord
from repro.trace.verify import check_fail_slow_tolerance

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
BENCH_PERF = SRC.parent / "benchmarks" / "perf"
FIELDS = WaitRecord.__slots__


def fields(record):
    return tuple(getattr(record, field) for field in FIELDS)


def coro(name="worker", node="s1", dedication=None):
    return SimpleNamespace(name=name, node=node, dedication=dedication)


# ----------------------------------------------------------------------
# The import closure
# ----------------------------------------------------------------------
def _run(script):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout


def test_importing_repro_loads_only_the_standard_library():
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import repro, repro.trace.spg, repro.bench.figure2\n"
        "added = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(sorted(added - set(sys.stdlib_module_names) - {'repro'}))\n"
    )
    assert _run(script).strip() == "[]"


def _benchmark_imports():
    """The module-level ``repro`` imports of ``benchmarks/perf/*.py``, plus
    the ``import repro`` every episode runs: what a benchmark episode loads."""
    statements = ["import repro"]
    for path in sorted(BENCH_PERF.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            if any(module.split(".")[0] == "repro" for module in modules):
                statements.append(ast.unparse(node))
    return statements


def test_a_benchmark_episode_loads_no_package_it_does_not_run():
    """Lazy package exports: ``import repro`` and ``from repro.detector.mitigation
    import ...`` load no baseline, Paxos, linter, harness or trace checker."""
    statements = _benchmark_imports()
    assert any("repro.fabric" in statement for statement in statements)
    script = "\n".join(statements) + "\nimport sys\nprint(*sorted(sys.modules))\n"
    loaded = _run(script).split()
    unused = ("repro.baselines", "repro.paxos", "repro.analysis", "repro.bench", "repro.trace.verify")
    assert [name for name in loaded if name.startswith(unused)] == []
    assert {"repro.raft.node", "repro.txn.coordinator", "repro.breaker.write_behind"} <= set(loaded)


@pytest.mark.parametrize(
    "package",
    sorted(
        ".".join(path.parent.relative_to(SRC).parts) for path in (SRC / "repro").rglob("__init__.py")
    ),
)
def test_every_package_imports_first_in_a_fresh_interpreter(package):
    """No package relies on another having been imported before it (e.g. the
    ``breaker.attribution`` <-> ``detector.mitigation`` cycle); its exports resolve."""
    script = (
        f"import {package} as package\n"
        "missing = [name for name in getattr(package, '__all__', ()) if not hasattr(package, name)]\n"
        "print(missing)\n"
    )
    assert _run(script).strip() == "[]"


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


# The shape table of every determinism scenario (3 000 virtual ms) reads
# 35-217 entries; one name per batch, transaction or sequence number read
# 997-4 921 here and grew with the run.
SHAPE_CEILING = 300


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_wait_shapes_stay_under_a_fixed_ceiling(scenario, traced_run):
    """A wait's shape names a code site: the table fits a fixed ceiling,
    not a share of the run (each shape costs ~250 B for its tuple and slot)."""
    _digest, log = traced_run(scenario)
    assert isinstance(log, WaitLog) and len(log) > 10_000
    assert len(log.shapes) <= SHAPE_CEILING


@pytest.mark.slow
@pytest.mark.parametrize("scenario", ["raft", "fabric"])
def test_wait_shapes_are_bounded_by_the_code_not_the_run(scenario, traced_run):
    """Twice the virtual time: twice the waits, the same shapes. A name with
    a batch, transaction or sequence number in it fails this."""
    _digest, short = traced_run(scenario)
    _digest, long = traced_run(scenario, horizon_factor=2)
    assert len(long) > 1.5 * len(short)
    assert len(long.shapes) == len(short.shapes)


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


# ----------------------------------------------------------------------
# Every reader of a run is a query over shapes: the per-wait loops the
# readers were before, kept here as oracles
# ----------------------------------------------------------------------
_NODES = ["s1", "s2", "s3", "t1", "t2", "c1"]
_GROUPS = [["s1", "s2", "s3"], ["t1", "t2"]]
_OVERLAPPING = [["s1", "s2", "s3"], ["s3", "t1", "t2"]]  # a fabric node hosts two groups
_edge = st.integers(1, 3).flatmap(
    lambda n: st.tuples(st.sampled_from(_NODES), st.integers(1, n), st.just(n))
)


@st.composite
def _wide_shape(draw):
    edges = draw(st.lists(_edge, max_size=3).map(tuple))
    # A stream is often dedicated to a peer it waits on (the exempt case).
    dedication = draw(st.sampled_from([None, "t1"] + [source for source, _k, _n in edges]))
    return (
        draw(st.sampled_from(["appender", "batcher", "client-7"])),
        draw(st.sampled_from(_NODES + [None])),
        dedication,
        draw(st.sampled_from(["quorum", "and", "or", "rpc", "disk"])),
        draw(st.sampled_from(["repl", "ack", "fsync"])),
        edges,
        draw(st.booleans()),
    )


# Waits drawn from a few shapes, so most shapes repeat; the second float is
# the wait's length (totals are sums of non-negative floats).
_wide_waits = st.lists(_wide_shape(), min_size=1, max_size=6).flatmap(
    lambda shapes: st.lists(st.tuples(st.sampled_from(shapes), _times, _times), max_size=60)
)


def _oracle_spg(records):
    nodes, edges = {}, {}
    for record in records:
        if record.node is None:
            continue
        nodes[record.node] = None
        for source, k, n in record.edges:
            if source == record.node:
                continue
            nodes[source] = None
            color = "green" if k < n else "red"
            edge = edges.setdefault((record.node, source), [color, {}, 0, 0.0])
            if color == "red":
                edge[0] = "red"
            edge[1][f"{k}/{n}"] = edge[1].get(f"{k}/{n}", 0) + 1
            edge[2] += 1
            edge[3] += record.waited_ms
    rank = {node: index for index, node in enumerate(nodes)}
    ordered = sorted(edges.items(), key=lambda item: rank[item[0][0]])
    return list(nodes), [
        (src, dst, color, max(labels.items(), key=lambda item: item[1])[0], count, total)
        for (src, dst), (color, labels, count, total) in ordered
    ]


def _oracle_verdict(records, groups):
    group_of = {member: index for index, members in enumerate(groups) for member in members}
    sites, boundary, checked, dedicated = {}, {}, 0, 0
    for record in records:
        if record.node is None:
            continue
        for source, k, n in record.edges:
            if source == record.node:
                continue
            checked += 1
            if group_of.get(record.node, -1) != group_of.get(source, -2):
                boundary[(record.node, source)] = boundary.get((record.node, source), 0) + 1
                continue
            if record.dedication == source:
                dedicated += 1
                continue
            if record.event_kind in ("quorum", "and", "or") and k < n:
                continue
            if record.event_kind == "quorum":
                reason = f"quorum wait requires all members ({k}/{n})"
            else:
                reason = f"single-event wait ({record.event_kind}, {k}/{n})"
            key = (fields(record)[:5] + fields(record)[7:], source, reason)
            sites[key] = sites.get(key, 0) + 1
    return checked, boundary, dedicated, [key + (count,) for key, count in sites.items()]


def _oracle_runtime_edges(records, groups):
    memberships = {}
    for index, members in enumerate(groups):
        for member in members:
            memberships[member] = memberships.get(member, frozenset()) | {index}
    empty, ordered = frozenset(), {}
    for record in records:
        if record.node is None:
            continue
        waiter = memberships.get(record.node, empty)
        reached = [memberships.get(s, empty) for s, _k, _n in record.edges if s != record.node]
        spans = any(a and b and not (a & b) for i, a in enumerate(reached) for b in reached[i + 1 :])
        for source, k, n in record.edges:
            if source == record.node:
                continue
            theirs = memberships.get(source, empty)
            if waiter & theirs:
                scope = "group"
            elif (waiter and theirs) or spans:
                scope = "xgroup"
            else:
                scope = "boundary"
            color = "green" if k < n else "red"
            ordered[RuntimeEdge(record.node, source, color, scope, record.dedication == source)] = None
    return list(ordered)


def _oracle_charges(records, node, by):
    """Per-kind or per-event (count, total ms) of ``node``'s waits, or the
    per-peer attribution when ``by`` is None."""
    charges = {}
    for record in records:
        if node is not None and record.node != node:
            continue
        if by is not None:
            count, total = charges.get(getattr(record, by), (0, 0.0))
            charges[getattr(record, by)] = (count + 1, total + record.waited_ms)
            continue
        remote = [source for source, _k, _n in record.edges if source != record.node]
        for source in remote:
            charges[source] = charges.get(source, 0.0) + record.waited_ms / len(remote)
    return charges


def _close(ours, theirs):
    """Same keys in the same order; floats within rel=1e-9 (per-shape sums
    re-associate), everything else exactly."""
    assert list(ours) == list(theirs)
    for key in ours:
        assert ours[key] == pytest.approx(theirs[key], rel=1e-9)


@settings(max_examples=80, deadline=None)
@given(waits=_wide_waits)
def test_every_reader_matches_its_per_wait_oracle(waits):
    tracer, eager = Tracer(Kernel()), []
    for (name, node, dedication, kind, event, edges, timed_out), started_at, length in waits:
        waited = SimpleNamespace(kind=kind, name=event, wait_edges=lambda edges=edges: edges)
        ended_at = started_at + length
        tracer.on_wait(coro(name, node, dedication), waited, started_at, ended_at, timed_out)
        eager.append(
            WaitRecord(name, node, kind, event, edges, started_at, ended_at, timed_out, dedication)
        )
    # The tracer's own log and a plain list folded into one read the same.
    for records in (tracer.records, eager):
        graph = build_spg(records)
        nodes, edges = _oracle_spg(eager)
        assert list(graph.nodes) == nodes
        assert [(s, d, e["color"], e["label"], e["count"]) for s, d, e in graph.edges(data=True)] == [
            edge[:5] for edge in edges
        ]
        for (_s, _d, data), edge in zip(graph.edges(data=True), edges):
            assert data["total_wait_ms"] == pytest.approx(edge[5], rel=1e-9)

        report = check_fail_slow_tolerance(records, _GROUPS)
        checked, boundary, dedicated, sites = _oracle_verdict(eager, _GROUPS)
        assert (report.checked_waits, report.dedicated_waits) == (checked, dedicated)
        assert list(report.boundary_waits.items()) == list(boundary.items())
        assert [(v.shape, v.source, v.reason, v.count) for v in report.violations] == sites
        assert report.tolerant == (not sites)

        for groups in (_GROUPS, _OVERLAPPING):
            assert _runtime_edges(records, groups) == _oracle_runtime_edges(eager, groups)

        for node in [None] + _NODES:
            _close(analysis.slowness_attribution(records, node), _oracle_charges(eager, node, None))
        by_kind = _oracle_charges(eager, None, "event_kind")
        _close(analysis.wait_time_by_kind(records), {k: t for k, (_c, t) in by_kind.items()})
        for kind in ("quorum", "rpc", None):
            rows = [row for key, row in by_kind.items() if kind in (None, key)]
            count = sum(c for c, _t in rows)
            mean = sum(t for _c, t in rows) / count if count else 0.0
            assert analysis.mean_wait_ms(records, kind) == pytest.approx(mean, rel=1e-9)
        for node in ("s1", "c1"):
            kinds = _oracle_charges(eager, node, "event_kind")
            whole = sum(total for _count, total in kinds.values())
            expected = {k: (t, t / whole) for k, (_c, t) in sorted(kinds.items())} if whole else {}
            _close(analysis.node_wait_breakdown(records, node), expected)
            # Three event names fit the top five; equal totals may swap by an ulp.
            events = _oracle_charges(eager, node, "event_name")
            ours = analysis.busiest_waits(records, node)
            assert [t for *_, t in ours] == sorted((t for *_, t in ours), reverse=True)
            assert sorted(name for name, _c, _t in ours) == sorted(events)
            for name, count, total in ours:
                assert (count, total) == (events[name][0], pytest.approx(events[name][1], rel=1e-9))
