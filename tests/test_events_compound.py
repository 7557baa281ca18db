"""Unit tests for compound events: And, Or, Quorum, and nesting."""

import pytest

from repro.events.base import Event, EventError
from repro.events.basic import RpcEvent, ValueEvent
from repro.events.compound import AndEvent, OrEvent, QuorumEvent


class TestAndEvent:
    def test_requires_all_children(self):
        a, b, c = Event(), Event(), Event()
        comp = AndEvent(a, b, c)
        a.trigger()
        b.trigger()
        assert not comp.ready()
        c.trigger()
        assert comp.ready()

    def test_already_triggered_children_count(self):
        a = Event()
        a.trigger()
        b = Event()
        comp = AndEvent(a, b)
        assert not comp.ready()
        b.trigger()
        assert comp.ready()

    def test_empty_and_never_ready(self):
        assert not AndEvent().check_ready()

    def test_wait_edges_union_children(self):
        comp = AndEvent(Event(source="s1"), Event(source="s2"))
        assert sorted(comp.wait_edges()) == [("s1", 1, 1), ("s2", 1, 1)]


class TestOrEvent:
    def test_any_child_suffices(self):
        a, b = Event(), Event()
        comp = OrEvent(a, b)
        b.trigger()
        assert comp.ready()
        assert not a.ready()

    def test_branch_inspection_after_trigger(self):
        fast, slow = ValueEvent(name="fast"), ValueEvent(name="slow")
        comp = OrEvent(fast, slow)
        slow.set("slow-path")
        assert comp.ready()
        assert not fast.ready()
        assert slow.ready()


class TestQuorumEvent:
    def _rpc_children(self, n):
        return [RpcEvent("m", to_node=f"s{i}") for i in range(n)]

    def test_triggers_at_quorum(self):
        q = QuorumEvent(quorum=2, n_total=3)
        children = self._rpc_children(3)
        for child in children:
            q.add(child)
        children[0].complete("ok")
        assert not q.ready()
        children[2].complete("ok")
        assert q.ready()
        assert q.n_ok == 2
        assert not children[1].ready()  # the slow straggler is not waited on

    def test_classifier_splits_ok_and_reject(self):
        q = QuorumEvent(quorum=2, n_total=3, classify=lambda e: e.reply == "yes")
        children = self._rpc_children(3)
        for child in children:
            q.add(child)
        children[0].complete("no")
        children[1].complete("yes")
        assert q.n_reject == 1
        assert not q.ready()
        children[2].complete("yes")
        assert q.ready()
        assert q.ok_children == [children[1], children[2]]
        assert q.reject_children == [children[0]]

    def test_definitely_failed_when_quorum_unreachable(self):
        q = QuorumEvent(quorum=3, n_total=4, classify=lambda e: e.reply == "yes")
        children = self._rpc_children(4)
        for child in children:
            q.add(child)
        children[0].complete("no")
        assert not q.definitely_failed()
        children[1].complete("no")
        assert q.definitely_failed()
        assert not q.ready()

    def test_direct_counting_api(self):
        q = QuorumEvent(quorum=2, n_total=3)
        q.add_ok()
        q.add_reject()
        assert not q.ready()
        q.add_ok()
        assert q.ready()
        assert q.n_reject == 1

    def test_outstanding_lists_stragglers(self):
        q = QuorumEvent(quorum=1, n_total=2)
        children = self._rpc_children(2)
        for child in children:
            q.add(child)
        children[0].complete("ok")
        assert q.outstanding() == [children[1]]

    def test_total_defaults_to_child_count(self):
        q = QuorumEvent(quorum=2)
        for child in self._rpc_children(5):
            q.add(child)
        assert q.total() == 5

    def test_wait_edges_carry_quorum_label(self):
        q = QuorumEvent(quorum=2, n_total=3)
        for child in self._rpc_children(3):
            q.add(child)
        assert q.wait_edges() == (("s0", 2, 3), ("s1", 2, 3), ("s2", 2, 3))

    def test_invalid_parameters_rejected(self):
        with pytest.raises(EventError):
            QuorumEvent(quorum=0)
        with pytest.raises(EventError):
            QuorumEvent(quorum=3, n_total=2)

    def test_cannot_contain_itself(self):
        q = QuorumEvent(quorum=1)
        with pytest.raises(EventError):
            q.add(q)


class TestNesting:
    def test_or_of_quorums_fast_slow_paths(self):
        """The §3.2 fast-path pattern: OrEvent(fast_ok, fast_reject)."""
        replies = [RpcEvent("accept", to_node=f"s{i}") for i in range(3)]
        fast_ok = QuorumEvent(quorum=3, n_total=3, classify=lambda e: e.reply == "ok")
        fast_reject = QuorumEvent(quorum=1, n_total=3, classify=lambda e: e.reply != "ok")
        for r in replies:
            fast_ok.add(r)
            fast_reject.add(r)
        fastpath = OrEvent(fast_ok, fast_reject, name="fastpath")

        replies[0].complete("ok")
        replies[1].complete("nack")
        assert fastpath.ready()
        assert fast_reject.ready()
        assert not fast_ok.ready()

    def test_and_of_quorum_and_disk(self):
        """Raft commit: local durability AND a majority of remote acks."""
        local = Event(name="local-fsync", source="s1")
        quorum = QuorumEvent(quorum=1, n_total=2)
        remote = RpcEvent("AppendEntries", to_node="s2")
        quorum.add(remote)
        commit = AndEvent(local, quorum)
        remote.complete("ok")
        assert not commit.ready()
        local.trigger()
        assert commit.ready()

    def test_deep_nesting_propagates(self):
        leaf = Event()
        inner = OrEvent(leaf)
        middle = AndEvent(inner)
        outer = OrEvent(middle)
        leaf.trigger()
        assert outer.ready()

    def test_quorum_of_quorums(self):
        shard_quorums = []
        leaves = []
        for shard in range(3):
            q = QuorumEvent(quorum=2, n_total=3, name=f"shard{shard}")
            children = [RpcEvent("w", to_node=f"s{shard}{i}") for i in range(3)]
            for child in children:
                q.add(child)
            shard_quorums.append(q)
            leaves.append(children)
        all_shards = AndEvent(*shard_quorums)
        for shard in range(3):
            leaves[shard][0].complete("ok")
            leaves[shard][1].complete("ok")
        assert all_shards.ready()
