"""RPC integration tests on a real mini-cluster."""

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.node import NodeSpec
from repro.net.rpc import QuorumCall, RpcError


def make_cluster(n=3, **spec_kwargs):
    cluster = Cluster(seed=1)
    nodes = []
    for i in range(n):
        node = cluster.add_node(f"s{i+1}", spec=NodeSpec(**spec_kwargs))
        nodes.append(node)
    return cluster, nodes


def echo_handler(runtime):
    def handler(payload, src):
        yield runtime.compute(0.05)
        return {"echo": payload, "from": runtime.node}

    return handler


class TestRpcRoundtrip:
    def test_call_and_reply(self):
        cluster, nodes = make_cluster(2)
        server, client = nodes
        server.endpoint.register("echo", echo_handler(server.runtime))
        for node in nodes:
            node.start()
        results = []

        def caller():
            event = client.endpoint.call("s1", "echo", {"x": 1}, size_bytes=100)
            yield event.wait()
            results.append((event.ok, event.reply, cluster.kernel.now))

        client.runtime.spawn(caller())
        cluster.run(until_ms=1000.0)
        ((ok, reply, at),) = results
        assert ok
        assert reply == {"echo": {"x": 1}, "from": "s1"}
        assert 0 < at < 100.0

    def test_rpc_latency_reflects_network_and_cpu(self):
        cluster, nodes = make_cluster(2)
        server, client = nodes
        server.endpoint.register("echo", echo_handler(server.runtime))
        for node in nodes:
            node.start()
        server.nic.set_extra_delay(400.0)
        latencies = []

        def caller():
            event = client.endpoint.call("s1", "echo", None, size_bytes=10)
            yield event.wait()
            latencies.append(event.latency_ms())

        client.runtime.spawn(caller())
        cluster.run(until_ms=3000.0)
        assert latencies[0] > 800.0  # 400ms each way through the slow NIC

    def test_unknown_method_raises_loudly(self):
        cluster, nodes = make_cluster(2)
        server, client = nodes
        for node in nodes:
            node.start()

        def caller():
            client.endpoint.call("s1", "nope", None)
            yield client.runtime.sleep(1.0)

        client.runtime.spawn(caller())
        with pytest.raises(RpcError):
            cluster.run(until_ms=1000.0)

    def test_unknown_method_fails_its_handler_coroutine_and_nothing_else(self):
        cluster, nodes = make_cluster(2)
        server, client = nodes
        server.endpoint.register("echo", echo_handler(server.runtime))
        for node in nodes:
            node.start()
        failed = []
        server.runtime.scheduler.on_error = failed.append
        replies = []

        def caller():
            client.endpoint.call("s1", "nope", None)
            event = client.endpoint.call("s1", "echo", "still served")
            yield event.wait(100.0)
            replies.append(event.reply)

        client.runtime.spawn(caller())
        cluster.run(until_ms=1000.0)
        (coro,) = failed
        assert coro.name == "s1:nope" and isinstance(coro.exception, RpcError)
        assert replies == [{"echo": "still served", "from": "s1"}]

    def test_duplicate_handler_rejected(self):
        cluster, nodes = make_cluster(1)
        nodes[0].endpoint.register("m", echo_handler(nodes[0].runtime))
        with pytest.raises(RpcError):
            nodes[0].endpoint.register("m", echo_handler(nodes[0].runtime))

    def test_call_to_crashed_node_times_out(self):
        cluster, nodes = make_cluster(2)
        server, client = nodes
        server.endpoint.register("echo", echo_handler(server.runtime))
        for node in nodes:
            node.start()
        server.crash()
        outcomes = []

        def caller():
            event = client.endpoint.call("s1", "echo", None)
            result = yield event.wait(timeout_ms=100.0)
            outcomes.append((result.timed_out, event.ok))

        client.runtime.spawn(caller())
        cluster.run(until_ms=1000.0)
        assert outcomes == [(True, False)]

    def test_notify_is_one_way(self):
        cluster, nodes = make_cluster(2)
        server, client = nodes
        seen = []

        def handler(payload, src):
            seen.append((payload, src))
            return None
            yield  # pragma: no cover - marks this as a generator

        server.endpoint.register("hint", handler)
        for node in nodes:
            node.start()
        client.endpoint.notify("s1", "hint", "data", size_bytes=10)
        cluster.run(until_ms=100.0)
        assert seen == [("data", "s2")]


class TestQuorumCall:
    def _setup(self, n=4, handler_delay=None):
        """Node s1 calls s2..sn; handler on si sleeps handler_delay[i]."""
        cluster, nodes = make_cluster(n)
        caller, servers = nodes[0], nodes[1:]
        for idx, server in enumerate(servers):
            delay = (handler_delay or {}).get(server.node_id, 0.1)

            def handler(payload, src, _delay=delay, _rt=server.runtime):
                yield _rt.sleep(_delay)
                return {"ok": True, "from": _rt.node}

            server.endpoint.register("vote", handler)
        for node in nodes:
            node.start()
        return cluster, caller, servers

    def test_quorum_completes_without_straggler(self):
        cluster, caller, servers = self._setup(
            n=4, handler_delay={"s2": 1.0, "s3": 2.0, "s4": 5000.0}
        )
        done = []

        def logic():
            call = QuorumCall(
                caller.endpoint, ["s2", "s3", "s4"], "vote", quorum=2
            )
            yield call.wait()
            done.append((cluster.kernel.now, len(call.replies())))

        caller.runtime.spawn(logic())
        cluster.run(until_ms=10_000.0)
        ((at, n_replies),) = done
        assert at < 100.0  # did not wait for the 5s straggler
        assert n_replies == 2

    def test_classifier_filters_rejections(self):
        cluster, nodes = make_cluster(3)
        caller, servers = nodes[0], nodes[1:]
        for server, verdict in zip(servers, (False, True)):
            def handler(payload, src, _v=verdict, _rt=server.runtime):
                yield _rt.compute(0.01)
                return {"granted": _v}

            server.endpoint.register("vote", handler)
        for node in nodes:
            node.start()
        outcome = []

        def logic():
            call = QuorumCall(
                caller.endpoint,
                ["s2", "s3"],
                "vote",
                quorum=1,
                classify=lambda ev: ev.reply["granted"],
            )
            yield call.wait(timeout_ms=1000.0)
            outcome.append((call.event.n_ok, call.event.n_reject))

        caller.runtime.spawn(logic())
        cluster.run(until_ms=2000.0)
        assert outcome == [(1, 1)]

    def test_quorum_larger_than_targets_rejected(self):
        cluster, nodes = make_cluster(2)
        with pytest.raises(RpcError):
            QuorumCall(nodes[0].endpoint, ["s2"], "vote", quorum=2)

    def test_discard_on_quorum_drops_buffered_sends(self):
        # Choke the connection to s4 so the quorum-call message stays in
        # s1's send buffer, then verify the quorum-aware framework discards
        # it once s2+s3 reply.
        cluster, caller, servers = self._setup(n=4)
        cluster.network.set_window_bytes(100)  # tiny windows
        conn = cluster.network.connection("s1", "s4")
        # s4's dispatcher is CPU-starved: after the first filler is taken,
        # the second sits un-acked in the inbox, pinning the window.
        cluster.node("s4").cpu.set_quota(0.0001)
        caller.endpoint.call("s4", "vote", None, size_bytes=90)
        caller.endpoint.call("s4", "vote", None, size_bytes=90)
        done = []

        def logic():
            yield caller.runtime.sleep(1.0)  # let the fillers pin the window
            call = QuorumCall(
                caller.endpoint,
                ["s2", "s3", "s4"],
                "vote",
                payload=None,
                size_bytes=200,
                quorum=2,
                discard_on_quorum=True,
            )
            yield call.wait()
            done.append(conn.discarded)

        caller.runtime.spawn(logic())
        cluster.run(until_ms=200.0)
        assert done == [1]  # the buffered s4 message was discarded


class TestCancelSendIdempotence:
    """Regressions for the straggler-discard edge cases.

    ``cancel_send`` can be invoked from several places for the same RPC
    (a QuorumCall's straggler discard, a batcher's outstanding-discard
    and a HedgedCall's loser cancellation), and a reply can land on the
    same tick the quorum fires. The handle must do the buffer scan once,
    memoize the outcome, and retire the caller's pending-reply entry on
    a successful discard.
    """

    def _choked_call(self):
        """One RPC to a choked peer that will sit in s1's send buffer."""
        cluster, nodes = make_cluster(2)
        caller, server = nodes

        def handler(payload, src):
            yield server.runtime.sleep(0.1)
            return {"ok": True}

        server.endpoint.register("vote", handler)
        for node in nodes:
            node.start()
        cluster.network.set_window_bytes(100)
        server.cpu.set_quota(0.0001)
        caller.endpoint.call("s2", "vote", None, size_bytes=90)
        caller.endpoint.call("s2", "vote", None, size_bytes=90)
        cluster.run(until_ms=1.0)  # fillers pin the window
        event = caller.endpoint.call("s2", "vote", None, size_bytes=200)
        return cluster, caller, event

    def test_double_cancel_discards_once(self):
        cluster, caller, event = self._choked_call()
        conn = cluster.network.connection("s1", "s2")
        before = conn.discarded
        assert event.cancel_send() is True
        assert conn.discarded == before + 1
        # Second (and third) cancel: memoized outcome, no rescan, no
        # double-count of the discard.
        assert event.cancel_send() is True
        assert event.cancel_send() is True
        assert conn.discarded == before + 1

    def test_successful_discard_retires_pending_entry(self):
        _cluster, caller, event = self._choked_call()
        pending_before = len(caller.endpoint._pending)
        assert event.cancel_send() is True
        # The request died in the send buffer: no reply will ever arrive,
        # so keeping the pending entry would leak it for the whole run.
        assert len(caller.endpoint._pending) == pending_before - 1

    def test_cancel_after_transmit_is_a_stable_no(self):
        cluster, nodes = make_cluster(2)
        caller, server = nodes
        server.endpoint.register("vote", echo_handler(server.runtime))
        for node in nodes:
            node.start()
        event = caller.endpoint.call("s2", "vote", None, size_bytes=10)
        cluster.run(until_ms=50.0)  # delivered and answered
        assert event.ok
        assert event.cancel_send() is False
        assert event.cancel_send() is False

    def test_reply_arriving_with_quorum_is_not_cancelled(self):
        # s2 and s3 answer at exactly the same virtual time: the quorum
        # (quorum=1) fires on one child while the other's reply is being
        # delivered on the same tick. The straggler discard must treat
        # the tied reply as arrived (nothing left to cancel) — both
        # events complete ok and the connection discards nothing.
        cluster, nodes = make_cluster(3)
        caller, servers = nodes[0], nodes[1:]
        for server in servers:
            def handler(payload, src, _rt=server.runtime):
                yield _rt.sleep(5.0)
                return {"ok": True, "from": _rt.node}

            server.endpoint.register("vote", handler)
        for node in nodes:
            node.start()
        done = []

        def logic():
            call = QuorumCall(
                caller.endpoint,
                ["s2", "s3"],
                "vote",
                quorum=1,
                discard_on_quorum=True,
            )
            yield call.wait(timeout_ms=1000.0)
            done.append(call)

        caller.runtime.spawn(logic())
        cluster.run(until_ms=2000.0)
        (call,) = done
        assert [event.ok for event in call.calls] == [True, True]
        assert cluster.network.connection("s1", "s2").discarded == 0
        assert cluster.network.connection("s1", "s3").discarded == 0
        # And a late manual cancel on either is an idempotent no-op.
        for event in call.calls:
            assert event.cancel_send() is False
            assert event.cancel_send() is False
