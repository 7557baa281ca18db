"""Receiver-side message queue with event-based handoff.

Messages delivered by the network land in the node's :class:`Inbox`; the
node's dispatcher coroutine pulls them one at a time. Flow-control acks are
sent when the dispatcher *takes* a message — so a CPU-starved node drains
its inbox slowly, delays acks, and backpressures its senders, which is the
mechanism behind sender-side backlog growth.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional, Tuple

from repro.events.basic import ValueEvent
from repro.net.message import Message

# Sentinel: "call ack with no argument". Lets hot callers pass a shared
# bound method plus the message (zero per-message closures) while the
# original zero-arg ``ack=lambda: ...`` form keeps working.
_NO_ARG = object()

# (message, ack, ack_arg) triples: firing the ack releases the sender's
# flow-control window bytes for this message.
_Item = Tuple[Message, Callable[..., None], object]


class Inbox:
    """Single-consumer message queue for one node."""

    def __init__(self, node: str):
        self.node = node
        self._event_name = f"inbox:{node}"
        self._queue: Deque[_Item] = deque()
        self._waiter: Optional[ValueEvent] = None
        self.received = 0

    def __len__(self) -> int:
        return len(self._queue)

    def put(
        self,
        message: Message,
        ack: Callable[..., None],
        ack_arg: object = _NO_ARG,
    ) -> None:
        """Deliver a message (network side). Acks fire at consumption.

        ``ack`` is called as ``ack(ack_arg)`` when an argument is given,
        else as ``ack()`` — so the network passes one shared bound method
        instead of allocating a closure per message.
        """
        self.received += 1
        if self._waiter is not None:
            waiter, self._waiter = self._waiter, None
            if ack_arg is _NO_ARG:
                ack()
            else:
                ack(ack_arg)
            waiter.set(message)
        else:
            self._queue.append((message, ack, ack_arg))

    def get_event(self) -> ValueEvent:
        """Event carrying the next message; consume with ``(yield ev).event.value``.

        Single-consumer: only one outstanding get is allowed.
        """
        if self._waiter is not None:
            raise RuntimeError(f"inbox {self.node!r} already has a pending get")
        event = ValueEvent(self._event_name, self.node)
        if self._queue:
            message, ack, ack_arg = self._queue.popleft()
            if ack_arg is _NO_ARG:
                ack()
            else:
                ack(ack_arg)
            event.set(message)
        else:
            self._waiter = event
        return event

    def cancel_get(self) -> None:
        """Abandon a pending get (node shutting down)."""
        self._waiter = None
