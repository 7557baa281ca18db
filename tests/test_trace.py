"""Tests for tracing, SPG construction, the tolerance checker and analysis."""

from types import SimpleNamespace

import pytest

from repro.events.basic import NeverEvent, RpcEvent, ValueEvent
from repro.events.compound import AndEvent, OrEvent, QuorumEvent
from repro.runtime.runtime import Runtime
from repro.sim.kernel import Kernel
from repro.sim.resources import CpuResource
from repro.trace.analysis import (
    mean_wait_ms,
    propagation_ratio,
    slowness_attribution,
    wait_time_by_kind,
)
from repro.trace.spg import build_spg, quorum_edges, render_spg, single_wait_edges
from repro.trace.tracepoints import Tracer, WaitRecord
from repro.trace.verify import check_fail_slow_tolerance


def record(node, kind, edges, waited=10.0, name="e"):
    return WaitRecord(
        coro_name="c",
        node=node,
        event_kind=kind,
        event_name=name,
        edges=edges,
        started_at=0.0,
        ended_at=waited,
        timed_out=False,
    )


class TestTracerIntegration:
    def _traced_runtime(self):
        kernel = Kernel()
        tracer = Tracer(kernel)
        runtime = Runtime(
            kernel, node="s1", cpu=CpuResource(kernel), tracer=tracer
        )
        return kernel, tracer, runtime

    def test_wait_records_capture_quorum_edges(self):
        kernel, tracer, runtime = self._traced_runtime()
        quorum = QuorumEvent(quorum=2, n_total=3, name="repl")
        rpcs = [RpcEvent("ae", to_node=f"s{i}") for i in (2, 3, 4)]
        for rpc in rpcs:
            quorum.add(rpc)
        kernel.schedule(5.0, rpcs[0].complete, "ok")
        kernel.schedule(9.0, rpcs[1].complete, "ok")

        def task():
            yield quorum.wait()

        runtime.spawn(task())
        kernel.run_until_idle()
        (rec,) = [r for r in tracer.records if r.event_kind == "quorum"]
        assert rec.node == "s1"
        assert rec.waited_ms == pytest.approx(9.0)
        assert ("s2", 2, 3) in rec.edges
        assert rec.is_inter_node()

    def test_timeout_recorded(self):
        kernel, tracer, runtime = self._traced_runtime()
        ev = ValueEvent(source="s9")

        def task():
            yield ev.wait(timeout_ms=20.0)

        runtime.spawn(task())
        kernel.run_until_idle()
        (rec,) = tracer.records
        assert rec.timed_out
        assert rec.waited_ms == pytest.approx(20.0)

    def test_spawn_finish_counts(self):
        kernel, tracer, runtime = self._traced_runtime()

        def task():
            yield runtime.sleep(1.0)

        runtime.spawn(task())
        runtime.spawn(task())
        kernel.run_until_idle()
        assert tracer.spawned == 2
        assert tracer.finished == 2

    def test_disabled_tracer_records_nothing(self):
        kernel = Kernel()
        tracer = Tracer(kernel, enabled=False)
        runtime = Runtime(kernel, node="s1", cpu=CpuResource(kernel), tracer=tracer)

        def task():
            yield runtime.sleep(1.0)

        runtime.spawn(task())
        kernel.run_until_idle()
        assert tracer.records == []

    def test_crash_leaves_no_per_coroutine_state_in_the_tracer(self):
        kernel, tracer, runtime = self._traced_runtime()

        def parked():
            yield NeverEvent().wait()

        for _ in range(8):
            runtime.spawn(parked())
        kernel.run(until_ms=5.0)
        runtime.crash()
        kernel.run_until_idle()
        # No wait completed, so nothing the tracer owns may have grown: a
        # killed coroutine reports neither a wait end nor a finish.
        held = {
            name: len(value)
            for name, value in vars(tracer).items()
            if isinstance(value, (dict, list, set))
        }
        assert not any(held.values()), held

    def test_two_call_form_keeps_the_start_time(self):
        tracer = Tracer(Kernel())
        coro = SimpleNamespace(name="outside", node="s1", dedication=None)
        ev = ValueEvent(source="s9")
        tracer.on_wait_start(coro, ev, 3.0, None)
        tracer.on_wait_end(coro, ev, 7.5, False)
        (rec,) = tracer.records
        assert (rec.coro_name, rec.started_at, rec.ended_at) == ("outside", 3.0, 7.5)
        assert not rec.timed_out
        assert tracer._open_waits == {}


class TestSpg:
    def test_quorum_wait_makes_green_edge(self):
        records = [record("s1", "quorum", [("s2", 2, 3), ("s3", 2, 3)])]
        graph = build_spg(records)
        assert graph.edges[("s1", "s2")]["color"] == "green"
        assert graph.edges[("s1", "s2")]["label"] == "2/3"
        assert quorum_edges(graph) == [("s1", "s2"), ("s1", "s3")]

    def test_single_wait_makes_red_edge(self):
        records = [record("c1", "rpc", [("s1", 1, 1)])]
        graph = build_spg(records)
        assert graph.edges[("c1", "s1")]["color"] == "red"
        assert single_wait_edges(graph) == [("c1", "s1")]

    def test_local_waits_do_not_create_edges(self):
        records = [record("s1", "disk", [("s1", 1, 1)])]
        graph = build_spg(records)
        assert graph.number_of_edges() == 0

    def test_red_dominates_on_merge(self):
        records = [
            record("s1", "quorum", [("s2", 2, 3)]),
            record("s1", "rpc", [("s2", 1, 1)]),
        ]
        graph = build_spg(records)
        assert graph.edges[("s1", "s2")]["color"] == "red"
        assert graph.edges[("s1", "s2")]["count"] == 2

    def test_aggregation_counts_and_wait_time(self):
        records = [
            record("s1", "quorum", [("s2", 2, 3)], waited=5.0),
            record("s1", "quorum", [("s2", 2, 3)], waited=7.0),
        ]
        graph = build_spg(records)
        data = graph.edges[("s1", "s2")]
        assert data["count"] == 2
        assert data["total_wait_ms"] == pytest.approx(12.0)

    def test_render_flags_red_edges(self):
        graph = build_spg([record("c1", "rpc", [("s1", 1, 1)])])
        text = render_spg(graph)
        assert "c1 -> s1" in text
        assert "!" in text

    def test_tight_quorum_edge_is_red(self):
        # k == n: nominally a quorum, but every member is on the critical
        # path — the edge must not inherit green from the event kind.
        records = [record("s1", "quorum", [("s2", 3, 3), ("s3", 3, 3)])]
        graph = build_spg(records)
        assert graph.edges[("s1", "s2")]["color"] == "red"
        assert graph.edges[("s1", "s3")]["color"] == "red"

    def test_nested_compound_colors_per_grandchild(self):
        # AndEvent(QuorumEvent(2 of 3), OrEvent(rpc to s5)): the quorum's
        # grandchild edges keep their k<n slack (green), while the Or's
        # only branch pins s5 to the critical path (red) — one record,
        # mixed edge colors.
        quorum = QuorumEvent(quorum=2, n_total=3, name="repl")
        for i in (2, 3, 4):
            quorum.add(RpcEvent("ae", to_node=f"s{i}"))
        fallback = OrEvent(RpcEvent("probe", to_node="s5"))
        combined = AndEvent(quorum, fallback)
        graph = build_spg([record("s1", "and", combined.wait_edges())])
        for peer in ("s2", "s3", "s4"):
            assert graph.edges[("s1", peer)]["color"] == "green"
        assert graph.edges[("s1", "s5")]["color"] == "red"

    def test_or_branches_sharing_a_source_get_no_slack(self):
        # Every Or-branch needs s2, so picking "the other branch" cannot
        # route around s2: its edges must not get the 1-of-n discount.
        shared = OrEvent(
            ValueEvent(name="ack", source="s2"), RpcEvent("probe", to_node="s2")
        )
        edges = shared.wait_edges()
        assert edges == (("s2", 1, 1), ("s2", 1, 1))
        graph = build_spg([record("s1", "or", edges)])
        assert graph.edges[("s1", "s2")]["color"] == "red"


class TestToleranceChecker:
    GROUPS = [["s1", "s2", "s3"]]

    def test_quorum_only_trace_passes(self):
        records = [record("s1", "quorum", [("s2", 2, 3), ("s3", 2, 3)])]
        report = check_fail_slow_tolerance(records, self.GROUPS)
        assert report.tolerant
        assert report.checked_waits == 2
        assert "PASS" in report.summary()

    def test_single_wait_within_group_fails(self):
        records = [record("s1", "rpc", [("s2", 1, 1)])]
        report = check_fail_slow_tolerance(records, self.GROUPS)
        assert not report.tolerant
        assert "FAIL" in report.summary()
        assert report.violations[0].source == "s2"

    def test_full_quorum_wait_fails(self):
        # Waiting for ALL members tolerates no slow member.
        records = [record("s1", "quorum", [("s2", 3, 3), ("s3", 3, 3)])]
        report = check_fail_slow_tolerance(records, self.GROUPS)
        assert not report.tolerant

    def test_client_to_leader_is_boundary_not_violation(self):
        records = [record("c1", "rpc", [("s1", 1, 1)])]
        report = check_fail_slow_tolerance(records, self.GROUPS)
        assert report.tolerant
        assert report.boundary_waits == {("c1", "s1"): 1}

    def test_node_in_two_groups_rejected(self):
        with pytest.raises(ValueError):
            check_fail_slow_tolerance([], [["s1"], ["s1"]])

    def test_dedicated_wait_on_own_peer_is_exempt(self):
        # A per-peer repair stream waiting on its peer: the slowness it
        # absorbs affects only work done on that peer's behalf.
        rec = record("s1", "rpc", [("s2", 1, 1)])
        rec.dedication = "s2"
        report = check_fail_slow_tolerance([rec], self.GROUPS)
        assert report.tolerant
        assert report.dedicated_waits == 1
        assert "1 dedicated-stream waits" in report.summary()

    def test_dedication_does_not_exempt_other_sources(self):
        # Dedicated to s3, but waiting on s2: not this stream's peer, so
        # the wait is checked (and fails) like any other solo wait.
        rec = record("s1", "rpc", [("s2", 1, 1)])
        rec.dedication = "s3"
        report = check_fail_slow_tolerance([rec], self.GROUPS)
        assert not report.tolerant
        assert report.dedicated_waits == 0

    def test_cross_group_node_wait_reported_not_violated(self):
        # Two replica groups: a wait from one into the other is a boundary
        # wait (reported), not a violation — same rule as client→leader.
        groups = [["s1", "s2", "s3"], ["t1", "t2", "t3"]]
        records = [record("s1", "rpc", [("t1", 1, 1)])]
        report = check_fail_slow_tolerance(records, groups)
        assert report.tolerant
        assert report.boundary_waits == {("s1", "t1"): 1}
        assert report.checked_waits == 1

    def test_quorum_k_boundaries(self):
        # k = n-1 is the largest quorum that still tolerates one slow
        # member; k = n tolerates none and violates.
        ok = record("s1", "quorum", [("s2", 2, 3), ("s3", 2, 3)])
        tight = record("s1", "quorum", [("s2", 3, 3), ("s3", 3, 3)])
        assert check_fail_slow_tolerance([ok], self.GROUPS).tolerant
        report = check_fail_slow_tolerance([tight], self.GROUPS)
        assert len(report.violations) == 2
        assert "requires all members" in report.violations[0].reason

    def test_compound_kinds_keep_nested_slack(self):
        # And/Or records carry their grandchildren's k/n: slack passes,
        # k == n does not.
        assert check_fail_slow_tolerance(
            [record("s1", "and", [("s2", 2, 3)])], self.GROUPS
        ).tolerant
        assert not check_fail_slow_tolerance(
            [record("s1", "or", [("s2", 1, 1)])], self.GROUPS
        ).tolerant

    def test_minimal_quorum_k1_n2(self):
        records = [record("s1", "quorum", [("s2", 1, 2), ("s3", 1, 2)])]
        assert check_fail_slow_tolerance(records, self.GROUPS).tolerant


class TestAnalysis:
    def test_wait_time_by_kind(self):
        records = [
            record("s1", "quorum", [("s2", 2, 3)], waited=5.0),
            record("s1", "disk", [("s1", 1, 1)], waited=3.0),
        ]
        totals = wait_time_by_kind(records)
        assert totals == {"quorum": 5.0, "disk": 3.0}

    def test_attribution_splits_across_sources(self):
        records = [record("s1", "quorum", [("s2", 2, 3), ("s3", 2, 3)], waited=10.0)]
        charges = slowness_attribution(records)
        assert charges == {"s2": 5.0, "s3": 5.0}

    def test_attribution_filters_by_node(self):
        records = [
            record("s1", "rpc", [("s2", 1, 1)], waited=10.0),
            record("s9", "rpc", [("s2", 1, 1)], waited=99.0),
        ]
        assert slowness_attribution(records, node="s1") == {"s2": 10.0}

    def test_propagation_ratio(self):
        records = [
            record("s1", "rpc", [("s2", 1, 1)], waited=30.0),
            record("s1", "rpc", [("s3", 1, 1)], waited=10.0),
        ]
        assert propagation_ratio(records, slow_node="s2", waiter="s1") == pytest.approx(0.75)

    def test_propagation_ratio_empty_is_zero(self):
        assert propagation_ratio([], "s2", "s1") == 0.0

    def test_mean_wait(self):
        records = [
            record("s1", "rpc", [("s2", 1, 1)], waited=10.0),
            record("s1", "quorum", [("s2", 2, 3)], waited=20.0),
        ]
        assert mean_wait_ms(records) == pytest.approx(15.0)
        assert mean_wait_ms(records, kind="rpc") == pytest.approx(10.0)
        assert mean_wait_ms([], kind="rpc") == 0.0
