"""Hedged & speculative execution: primitive, server hooks, Raft variant.

Covers the racing side of the fail-slow story end to end:

* the P²-fed per-link delay estimator (warmup, clamps, tracer feeding);
* ``HedgedCall`` race mechanics — timers from the seeded kernel clock,
  loser cancellation through both the send-buffer and abort paths, and
  abort-ack classification;
* the server-side hedge hooks on ``RpcEndpoint._handle`` (dedup executes
  a group at most once; aborted groups answer with an abort-ack);
* ``HedgedRaftNode``: speculative reads on a steady leader,
  linearizability under a flapping fail-slow nemesis with client
  sessions — hedged duplicates must not become double-applies — and a
  crash + restart that brings the replica back still hedging.
"""

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.node import NodeSpec
from repro.faults.chaos import Nemesis
from repro.hedging import HedgeDelayEstimator, HedgedCall, HedgePolicy, deploy_hedged_raft
from repro.net.rpc import HEDGE_ABORTED_REPLY, RpcError, is_hedge_abort_reply
from repro.raft.config import RaftConfig
from repro.raft.service import find_leader, restart_raft_node, wait_for_leader
from repro.trace.linearize import HistoryRecorder, check_linearizable
from repro.workload.driver import ClosedLoopDriver
from repro.workload.ycsb import YcsbWorkload


def make_cluster(n=3, **spec_kwargs):
    cluster = Cluster(seed=11)
    nodes = [
        cluster.add_node(f"s{i + 1}", spec=NodeSpec(**spec_kwargs))
        for i in range(n)
    ]
    return cluster, nodes


def register_sleeper(server, method="read", delay_ms=0.5):
    def handler(payload, src, _rt=server.runtime, _d=delay_ms):
        yield _rt.sleep(_d)
        return {"from": _rt.node, "value": payload}

    server.endpoint.register(method, handler)


class TestHedgeDelayEstimator:
    def test_warmup_returns_default(self):
        est = HedgeDelayEstimator(warmup_observations=5, default_delay_ms=30.0)
        for _ in range(4):
            est.on_rpc("a", "b", "m", 10.0, 0.0)
        assert est.delay_ms("a", "b") == 30.0
        est.on_rpc("a", "b", "m", 10.0, 0.0)
        assert est.delay_ms("a", "b") == pytest.approx(10.0)

    def test_unseen_link_returns_default(self):
        est = HedgeDelayEstimator(default_delay_ms=25.0)
        assert est.delay_ms("a", "nowhere") == 25.0
        assert est.observed("a", "nowhere") == 0
        assert est.raw_percentile_ms("a", "nowhere") == 0.0

    def test_estimates_are_clamped(self):
        est = HedgeDelayEstimator(
            warmup_observations=5, min_delay_ms=2.0, max_delay_ms=40.0
        )
        for _ in range(6):
            est.on_rpc("a", "fast", "m", 0.1, 0.0)
            est.on_rpc("a", "slow", "m", 500.0, 0.0)
        assert est.delay_ms("a", "fast") == 2.0
        assert est.delay_ms("a", "slow") == 40.0

    def test_links_are_independent(self):
        est = HedgeDelayEstimator(warmup_observations=1)
        est.on_rpc("a", "b", "m", 5.0, 0.0)
        est.on_rpc("a", "c", "m", 50.0, 0.0)
        assert est.delay_ms("a", "b") == pytest.approx(5.0)
        assert est.delay_ms("a", "c") == pytest.approx(50.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            HedgeDelayEstimator(percentile=1.5)
        with pytest.raises(ValueError):
            HedgeDelayEstimator(min_delay_ms=10.0, max_delay_ms=1.0)

    def test_attach_feeds_from_cluster_tracer(self):
        cluster, nodes = make_cluster(2)
        server, client = nodes
        register_sleeper(server)
        for node in nodes:
            node.start()
        est = HedgeDelayEstimator().attach(cluster.tracer)

        def caller():
            rpc = client.endpoint.call("s1", "read", {"k": 1}, size_bytes=50)
            yield rpc.wait(timeout_ms=100.0)

        client.runtime.spawn(caller())
        cluster.run(until_ms=200.0)
        assert est.observed("s2", "s1") == 1
        assert est.raw_percentile_ms("s2", "s1") > 0.0


class TestHedgedCall:
    def _racers(self, primary_delay_ms, hedge_delay_ms=0.5):
        """s1 races s2 (primary) against s3 (hedge candidate)."""
        cluster, nodes = make_cluster(3)
        caller, primary, backup = nodes
        register_sleeper(primary, delay_ms=primary_delay_ms)
        register_sleeper(backup, delay_ms=hedge_delay_ms)
        for node in nodes:
            node.start()
        return cluster, caller, primary, backup

    def test_fast_primary_wins_without_hedging(self):
        cluster, caller, primary, backup = self._racers(primary_delay_ms=0.5)
        done = []

        def logic():
            call = HedgedCall(
                caller.endpoint,
                ["s2", "s3"],
                "read",
                payload={"k": 1},
                size_bytes=50,
                policy=HedgePolicy(default_delay_ms=20.0),
            )
            yield call.wait(timeout_ms=100.0)
            done.append(call)

        caller.runtime.spawn(logic())
        cluster.run(until_ms=200.0)
        (call,) = done
        assert call.winner.to_node == "s2"
        assert call.hedges_sent == 0
        assert call.losers_cancelled == 0
        assert backup.endpoint.requests_handled == 0  # never contacted

    def test_hedge_fires_after_delay_and_wins(self):
        cluster, caller, primary, backup = self._racers(primary_delay_ms=100.0)
        done = []

        def logic():
            call = HedgedCall(
                caller.endpoint,
                ["s2", "s3"],
                "read",
                payload={"k": 1},
                size_bytes=50,
                policy=HedgePolicy(default_delay_ms=5.0),
            )
            yield call.wait(timeout_ms=500.0)
            done.append((call, cluster.kernel.now))

        caller.runtime.spawn(logic())
        cluster.run(until_ms=1000.0)
        ((call, decided_at),) = done
        assert call.winner.to_node == "s3"
        assert call.hedges_sent == 1
        # The race was decided by the hedge, not the 100ms straggler.
        assert 5.0 < decided_at < 50.0
        # The slow loser was cancelled (already on the wire -> abort).
        assert call.losers_cancelled == 1
        assert call.reply == {"from": "s3", "value": {"k": 1}}

    def test_loser_still_buffered_is_discarded_not_aborted(self):
        # Choke the s1->s3 link so the hedge copy dies in the send buffer:
        # the cheap cancel path must win and no abort message is needed.
        # The race has to decide while the window is still pinned, so the
        # primary is only mildly slow and the hedge timer is short.
        cluster, caller, primary, backup = self._racers(primary_delay_ms=5.0)
        cluster.network.set_window_bytes(100)
        backup.cpu.set_quota(0.0001)
        caller.endpoint.call("s3", "read", None, size_bytes=90)
        caller.endpoint.call("s3", "read", None, size_bytes=90)
        done = []

        def logic():
            yield caller.runtime.sleep(1.0)  # fillers pin the s3 window
            call = HedgedCall(
                caller.endpoint,
                ["s2", "s3"],
                "read",
                payload={"k": 1},
                size_bytes=200,
                policy=HedgePolicy(default_delay_ms=1.0),
            )
            yield call.wait(timeout_ms=500.0)
            done.append(call)

        caller.runtime.spawn(logic())
        cluster.run(until_ms=1000.0)
        (call,) = done
        assert call.winner.to_node == "s2"  # hedge never escaped the buffer
        assert call.hedges_sent == 1
        assert call.losers_cancelled == 1
        assert cluster.network.connection("s1", "s3").discarded == 1
        assert backup.endpoint.hedges_aborted == 0

    def test_max_hedges_caps_duplicates(self):
        cluster, nodes = make_cluster(4)
        caller = nodes[0]
        for server in nodes[1:]:
            register_sleeper(server, delay_ms=500.0)  # everyone is slow
        for node in nodes:
            node.start()
        calls = []

        def logic():
            call = HedgedCall(
                caller.endpoint,
                ["s2", "s3", "s4"],
                "read",
                policy=HedgePolicy(default_delay_ms=2.0, max_hedges=1),
            )
            calls.append(call)
            yield call.wait(timeout_ms=100.0)

        caller.runtime.spawn(logic())
        cluster.run(until_ms=200.0)
        (call,) = calls
        assert call.hedges_sent == 1
        assert len(call.calls) == 2  # primary + one hedge; s4 never raced

    def test_abort_ack_shape_is_rejected_by_classifier(self):
        # A server that answers with the abort-ack sentinel must read as a
        # rejection, so the race keeps going and the hedge wins.
        cluster, nodes = make_cluster(3)
        caller, liar, honest = nodes

        def abort_shaped(payload, src, _rt=liar.runtime):
            yield _rt.sleep(0.1)
            return dict(HEDGE_ABORTED_REPLY)

        liar.endpoint.register("read", abort_shaped)
        register_sleeper(honest)
        for node in nodes:
            node.start()
        done = []

        def logic():
            call = HedgedCall(
                caller.endpoint,
                ["s2", "s3"],
                "read",
                policy=HedgePolicy(default_delay_ms=5.0),
            )
            yield call.wait(timeout_ms=200.0)
            done.append(call)

        caller.runtime.spawn(logic())
        cluster.run(until_ms=500.0)
        (call,) = done
        assert call.winner.to_node == "s3"
        assert call.event.n_reject == 1

    def test_validates_targets_and_quorum(self):
        cluster, nodes = make_cluster(2)
        with pytest.raises(RpcError):
            HedgedCall(nodes[0].endpoint, [], "read")
        with pytest.raises(RpcError):
            HedgedCall(nodes[0].endpoint, ["s2"], "read", quorum=2)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            HedgePolicy(percentile=0.0)
        with pytest.raises(ValueError):
            HedgePolicy(max_hedges=-1)
        with pytest.raises(ValueError):
            HedgePolicy(min_delay_ms=9.0, max_delay_ms=3.0)


class TestServerSideHedgeHooks:
    def _one_server(self):
        cluster, nodes = make_cluster(2)
        caller, server = nodes
        register_sleeper(server, delay_ms=0.2)
        for node in nodes:
            node.start()
        return cluster, caller, server

    def test_duplicate_group_executes_once_and_replies_twice(self):
        cluster, caller, server = self._one_server()
        group = ("s1", "read", 999_001)
        first = caller.endpoint.call(
            "s2", "read", {"k": 1}, size_bytes=40, hedge_group=group
        )
        second = caller.endpoint.call(
            "s2", "read", {"k": 1}, size_bytes=40, hedge_group=group
        )
        cluster.run(until_ms=100.0)
        assert first.ok and second.ok
        assert server.endpoint.requests_handled == 1  # handler ran once
        assert server.endpoint.hedges_deduped == 1
        assert first.reply == second.reply  # cached reply served verbatim

    def test_aborted_group_answers_with_abort_ack(self):
        cluster, caller, server = self._one_server()
        group = ("s1", "read", 999_002)
        caller.endpoint.abort_hedge_group("s2", group)
        cluster.run(until_ms=10.0)  # abort lands before the copy
        late_copy = caller.endpoint.call(
            "s2", "read", {"k": 1}, size_bytes=40, hedge_group=group
        )
        cluster.run(until_ms=100.0)
        assert late_copy.ok
        assert is_hedge_abort_reply(late_copy.reply)
        assert server.endpoint.hedges_aborted == 1
        assert server.endpoint.requests_handled == 0  # work was saved

    def test_abort_after_execution_is_a_no_op(self):
        cluster, caller, server = self._one_server()
        group = ("s1", "read", 999_003)
        rpc = caller.endpoint.call(
            "s2", "read", {"k": 1}, size_bytes=40, hedge_group=group
        )
        cluster.run(until_ms=100.0)
        assert rpc.ok and not is_hedge_abort_reply(rpc.reply)
        caller.endpoint.abort_hedge_group("s2", group)
        cluster.run(until_ms=200.0)
        # The group already executed: a straggling duplicate still gets
        # the cached real reply, not an abort-ack.
        dup = caller.endpoint.call(
            "s2", "read", {"k": 1}, size_bytes=40, hedge_group=group
        )
        cluster.run(until_ms=300.0)
        assert dup.ok and not is_hedge_abort_reply(dup.reply)
        assert server.endpoint.hedges_deduped == 1


def _deploy_hedged(seed=7, n=3, policy=None):
    cluster = Cluster(seed=seed)
    group = [f"s{i + 1}" for i in range(n)]
    raft = deploy_hedged_raft(
        cluster,
        group,
        config=RaftConfig(
            preferred_leader="s1",
            read_mode="read_index",
            heartbeat_interval_ms=50.0,
            election_timeout_min_ms=300.0,
            election_timeout_max_ms=600.0,
        ),
        policy=policy,
    )
    wait_for_leader(cluster, raft)
    return cluster, raft, group


class TestHedgedRaft:
    def test_steady_leader_serves_speculative_reads_without_rollback(self):
        cluster, raft, group = _deploy_hedged()
        workload = YcsbWorkload(
            cluster.rng.stream("ycsb"),
            record_count=200,
            value_size=100,
            update_fraction=0.3,
        )
        driver = ClosedLoopDriver(
            cluster, group, workload, n_clients=8, think_time_ms=2.0
        )
        driver.start()
        cluster.run(until_ms=4_000.0)
        leader = find_leader(raft)
        assert driver.completed > 100
        assert driver.errors == 0
        assert leader.speculative_reads > 0
        assert leader.speculation_rollbacks == 0

    def test_append_hedges_fire_under_fault_and_followers_dedup(self):
        cluster, raft, group = _deploy_hedged(
            policy=HedgePolicy(default_delay_ms=10.0, max_delay_ms=30.0)
        )
        from repro.faults.injector import FaultInjector

        FaultInjector(cluster).inject("s3", "cpu_slow")
        workload = YcsbWorkload(
            cluster.rng.stream("ycsb"),
            record_count=200,
            value_size=200,
            update_fraction=1.0,
        )
        driver = ClosedLoopDriver(
            cluster, group, workload, n_clients=8, think_time_ms=1.0
        )
        driver.start()
        cluster.run(until_ms=5_000.0)
        leader = find_leader(raft)
        # The fault's queueing pushes append RTTs past the (clamped)
        # estimate, so the replication path hedges. Note the duplicates
        # go to followers with a *live* append stream — a peer that fell
        # into stream repair is deliberately never hedged (the repair
        # coroutine is a dedicated per-peer stream).
        assert leader.append_hedges > 0
        assert sum(leader.hedges_by_peer.values()) == leader.append_hedges
        assert all(peer != leader.id for peer in leader.hedges_by_peer)
        # Every duplicate that reached a follower was answered by the
        # dedup/abort hook, not re-applied: the handler ran once per
        # group, so hedging cannot double-count an ack or double-write
        # the WAL.
        deduped = sum(
            cluster.node(peer).endpoint.hedges_deduped
            + cluster.node(peer).endpoint.hedges_aborted
            for peer in group
        )
        assert deduped > 0

    def test_restarted_replica_is_still_hedged(self):
        cluster, raft, group = _deploy_hedged(
            policy=HedgePolicy(default_delay_ms=10.0, max_delay_ms=30.0)
        )
        from repro.faults.injector import FaultInjector

        before = raft["s3"]
        cluster.node("s3").crash("test")
        cluster.run(until_ms=cluster.kernel.now + 500.0)
        after = restart_raft_node(cluster, raft, "s3")
        assert type(after) is type(before)
        assert after is raft["s3"] and after is not before
        assert after.estimator is raft["s1"].estimator
        assert after.hedge_policy is before.hedge_policy
        # Make the restarted replica lead, then slow a follower's link:
        # only a leader that kept its hedging races duplicate appends.
        cluster.run(until_ms=cluster.kernel.now + 1_000.0)
        assert find_leader(raft).transfer_leadership("s3")
        cluster.run(until_ms=cluster.kernel.now + 1_000.0)
        assert find_leader(raft) is after
        FaultInjector(cluster).inject("s2", "network_slow")
        workload = YcsbWorkload(
            cluster.rng.stream("ycsb"),
            record_count=200,
            value_size=200,
            update_fraction=1.0,
        )
        driver = ClosedLoopDriver(
            cluster, group, workload, n_clients=8, think_time_ms=1.0
        )
        driver.start()
        cluster.run(until_ms=cluster.kernel.now + 1_000.0)
        assert after.append_hedges > 0

    @pytest.mark.slow
    def test_linearizable_under_flapping_fault_with_sessions(self):
        cluster, raft, group = _deploy_hedged(seed=13)
        nemesis = Nemesis(cluster, raft, majority_guard=True)
        # The detector stress case from the mitigation PR, aimed at the
        # hedging machinery: the follower flaps fail-slow, so hedge
        # timers arm from stale percentiles and duplicates fly exactly
        # when the estimator is most wrong. Sessions + server dedup must
        # keep every mutation applied at most once.
        nemesis.schedule_flapping("s3", "cpu_slow", 800.0, 400.0, 400.0, 4)
        history = HistoryRecorder()
        workload = YcsbWorkload(
            cluster.rng.stream("ycsb"),
            record_count=40,
            value_size=100,
            update_fraction=0.6,
        )
        driver = ClosedLoopDriver(
            cluster,
            group,
            workload,
            n_clients=6,
            think_time_ms=2.0,
            sessions=True,
            history=history,
        )
        driver.start()
        cluster.run(until_ms=7_000.0)
        assert driver.completed > 100
        verdict = check_linearizable(history)
        assert verdict.ok, f"non-linearizable under flapping: {verdict}"
