"""A dedicated spawn written in a base class, the loop in the subclass.

``Leader._ensure_repair`` spawns ``self._repair_loop`` with
``dedication=``; only ``Replica`` defines that loop. The call graph
resolves ``self.`` calls up the class hierarchy, never down to an
override, so the spawn reaches no function and the loop's solo per-peer
wait is not seen as dedicated.
"""

from repro.events.basic import Event


class Leader:
    def _ensure_repair(self, peer):
        self.rt.spawn(self._repair_loop(peer), name="repair", dedication=peer)


class Replica(Leader):
    def __init__(self, node_id, group, rt):
        if node_id not in group:
            raise ValueError(node_id)
        self.id = node_id
        self.rt = rt

    def on_lag(self, peer):
        self._ensure_repair(peer)

    def _repair_loop(self, peer):
        ack = Event(name="repair-ack", source=peer)
        result = yield ack.wait(timeout_ms=50.0)
        return result
