"""RPC on top of the network: endpoints, proxies and quorum calls.

``RpcEndpoint`` runs one dispatcher coroutine per node: it pulls messages
from the inbox, pays a per-message parse cost on the node's CPU, completes
reply events, and spawns one handler coroutine per request — the DepFast
runtime's version of a message loop, except request logic itself is written
synchronously in coroutines rather than shredded into callbacks.

``QuorumCall`` is the framework/logic bridge of §2.3: the *logic* says
"broadcast and give me a quorum", so the *framework* knows the broadcast
can succeed with a quorum of replies and may discard still-buffered
messages for slow connections once the quorum is in.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Dict, Generator, List, Optional, Sequence, Tuple

from repro.events.basic import RpcEvent
from repro.events.compound import QuorumEvent
from repro.net.buffers import BufferOverflowError
from repro.net.inbox import Inbox
from repro.net.message import Message
from repro.net.network import Connection, Network
from repro.runtime.runtime import Runtime

# A handler is a generator function: (payload, src_node) -> yields waits,
# returns the reply payload (or None for one-way messages).
Handler = Callable[[Any, str], Generator]

# Default CPU cost to parse/deserialize one incoming message, in CPU-ms.
# At 4 concurrent CPU-ms per ms this bounds a healthy node far above the
# experiment's offered load; under a 5% CPU quota it becomes the choke
# point, as intended.
DEFAULT_PARSE_COST_MS = 0.01

# One-way control message: "the hedge race for this group is decided —
# drop copies you have not executed yet". Intercepted by the endpoint
# before handler dispatch.
HEDGE_ABORT_METHOD = "__hedge_abort__"

# Bound on the per-endpoint hedge bookkeeping (dedup replies + abort
# marks). FIFO eviction: hedge races are decided within an RPC timeout,
# so old entries are dead weight long before the cap bites.
HEDGE_CACHE_LIMIT = 512

# Reply payload for a hedge copy dropped before execution. Answering
# (rather than staying silent) keeps the caller's pending-reply table
# clean and — crucially — lets the loser's true round-trip time reach
# the latency estimator: silent drops would hide exactly the slow
# samples hedging needs to see.
HEDGE_ABORTED_REPLY = {"hedge_aborted": True}


def is_hedge_abort_reply(payload: Any) -> bool:
    """True for the ack a server sends instead of executing an aborted copy."""
    return isinstance(payload, dict) and payload.get("hedge_aborted") is True


class RpcError(RuntimeError):
    """RPC-layer failure (unknown method, send failure, ...)."""


class _CancelHandle:
    """Idempotent ``cancel_send`` for one outbound request.

    A request can be cancelled from more than one place — a QuorumCall's
    straggler discard, a batcher's outstanding-discard and a HedgedCall's
    loser cancellation may all target the same RPC. The first call does
    the buffer discard; later calls return the recorded outcome without
    rescanning the send queue (the scan is O(queued messages)).

    A successful discard also retires the endpoint's pending-reply entry:
    the request died in the send buffer, so no reply will ever arrive to
    clean that entry up, and it would otherwise leak for the rest of the
    run.
    """

    __slots__ = ("_endpoint", "_connection", "msg_id", "called", "dropped")

    def __init__(self, endpoint: "RpcEndpoint", connection, msg_id: int):
        self._endpoint = endpoint
        self._connection = connection
        self.msg_id = msg_id
        self.called = False
        self.dropped = False

    def __call__(self) -> bool:
        if self.called:
            return self.dropped
        self.called = True
        self.dropped = self._connection.discard(self.msg_id)
        if self.dropped:
            self._endpoint._pending.pop(self.msg_id, None)
        return self.dropped


class RpcEndpoint:
    """Request/reply messaging for one node."""

    def __init__(
        self,
        node: str,
        network: Network,
        runtime: Runtime,
        parse_cost_ms: float = DEFAULT_PARSE_COST_MS,
        parse_cost_per_kb_ms: float = 0.0,
    ):
        self.node = node
        self.network = network
        self.runtime = runtime
        self.parse_cost_ms = parse_cost_ms
        self.parse_cost_per_kb_ms = parse_cost_per_kb_ms
        self.inbox = Inbox(node)
        self.handlers: Dict[str, Handler] = {}
        # Per registered method, built once in register(): the name of its
        # handler coroutines and the method name its replies carry.
        self._handler_names: Dict[str, str] = {}
        self._reply_methods: Dict[str, str] = {}
        # Per target: the outbound connection (the network keeps one per
        # ordered pair for its whole life) and, per (method, target), the
        # RpcEvent name.
        self._connections: Dict[str, Connection] = {}
        self._rpc_names: Dict[Tuple[str, str], str] = {}
        self._pending: Dict[int, RpcEvent] = {}
        self._started = False
        self.requests_handled = 0
        # Server-side hedge bookkeeping (§ hedged execution): completed
        # hedge groups cache their reply so a duplicate copy answers
        # without re-executing; aborted groups drop unexecuted copies.
        self._hedge_done: "OrderedDict[Tuple, Any]" = OrderedDict()
        self._hedge_aborted: "OrderedDict[Tuple, None]" = OrderedDict()
        # Groups whose handler is mid-execution: copies arriving in the
        # window park here and are answered from the one result.
        self._hedge_inflight: Dict[Tuple, List[Message]] = {}
        self.hedges_deduped = 0
        self.hedges_aborted = 0

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def register(self, method: str, handler: Handler) -> None:
        if method in self.handlers:
            raise RpcError(f"method {method!r} already registered on {self.node}")
        self.handlers[method] = handler
        self._handler_names[method] = f"{self.node}:{method}"
        self._reply_methods[method] = f"{method}:reply"

    def start(self) -> None:
        """Spawn the dispatcher loop; call after handlers are registered."""
        if self._started:
            raise RpcError(f"endpoint {self.node} already started")
        self._started = True
        self.runtime.spawn(self._dispatch_loop(), name=f"{self.node}:dispatch")

    @property
    def started(self) -> bool:
        return self._started

    def proxy(self, target: str) -> "RpcProxy":
        return RpcProxy(self, target)

    # ------------------------------------------------------------------
    # Calls
    # ------------------------------------------------------------------
    def call(
        self,
        target: str,
        method: str,
        payload: Any = None,
        size_bytes: int = 0,
        hedge_group: Optional[Tuple] = None,
    ) -> RpcEvent:
        """Issue one RPC; returns the event to wait on.

        ``hedge_group`` marks this request as one copy of a hedged send:
        the receiving endpoint deduplicates copies sharing the key and
        honors abort notifications for the group.
        """
        message = Message(
            self.node, target, method, payload, size_bytes, hedge_group=hedge_group
        )
        try:
            name = self._rpc_names[method, target]
        except KeyError:
            name = self._rpc_names[method, target] = f"rpc:{method}->{target}"
        event = RpcEvent(method, target, name)
        now = self.runtime.kernel.now
        event.issued_at = now
        self._pending[message.msg_id] = event
        try:
            connection = self._connections[target]
        except KeyError:
            connection = self._connections[target] = self.network.connection(
                self.node, target
            )
        event.cancel_send = _CancelHandle(self, connection, message.msg_id)
        try:
            connection.send(message)
        except BufferOverflowError as exc:
            del self._pending[message.msg_id]
            event.fail(f"send buffer overflow: {exc}", now=now)
        return event

    def abort_hedge_group(self, target: str, hedge_group: Tuple) -> None:
        """Tell ``target`` the race for ``hedge_group`` is decided (one-way)."""
        self.notify(target, HEDGE_ABORT_METHOD, hedge_group, size_bytes=16)

    def forget_call(self, event: RpcEvent) -> None:
        """Drop the pending-reply entry for a call whose reply will never
        be consumed (hedge losers whose server-side copy was aborted —
        without this the entry would leak for the rest of the run)."""
        handle = event.cancel_send
        if isinstance(handle, _CancelHandle):
            self._pending.pop(handle.msg_id, None)

    def notify(
        self, target: str, method: str, payload: Any = None, size_bytes: int = 0
    ) -> None:
        """One-way message; no reply expected."""
        self.network.send(Message(self.node, target, method, payload, size_bytes))

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _dispatch_loop(self) -> Generator:
        # Runs once per message received: everything that cannot change
        # under the loop is bound here, and state is read where it lives
        # (``_crashed``, ``reply_to``) rather than through a property.
        runtime = self.runtime
        get_event = self.inbox.get_event
        compute = runtime.compute
        spawn = runtime.scheduler.spawn
        handler_names = self._handler_names
        while not runtime._crashed:
            event = get_event()
            yield event
            message: Message = event.value
            parse_cost = self.parse_cost_ms + (
                self.parse_cost_per_kb_ms * message.size_bytes / 1024.0
            )
            if parse_cost > 0:
                yield compute(parse_cost, "rpc-parse")
            if message.reply_to is not None:
                self._complete_reply(message)
            else:
                try:
                    name = handler_names[message.method]
                except KeyError:
                    # Not registered: the handler coroutine still starts,
                    # and fails with RpcError from _handle.
                    name = f"{self.node}:{message.method}"
                spawn(self._handle(message), name)

    def _complete_reply(self, message: Message) -> None:
        pending = self._pending.pop(message.reply_to, None)
        if pending is not None:
            runtime = self.runtime
            now = runtime.kernel.now
            pending.complete(message.payload, now)
            tracer = runtime.scheduler.tracer
            issued_at, triggered_at = pending.issued_at, pending.triggered_at
            if tracer is not None and issued_at is not None and triggered_at is not None:
                # RpcEvent.latency_ms(), read in place.
                tracer.on_rpc_complete(
                    self.node, pending.to_node, pending.method, triggered_at - issued_at, now
                )
        # else: caller moved on (timeout); late reply is dropped.

    def _handle(self, message: Message) -> Generator:
        if message.method == HEDGE_ABORT_METHOD:
            self._mark_hedge_aborted(message.payload)
            return
        group = message.hedge_group
        if group is not None:
            # Server-side hedge hook: a copy whose race was already
            # decided is dropped before execution; a copy whose sibling
            # already executed answers from the cached reply — the
            # handler (and its WAL/CPU cost) runs at most once per group.
            if group in self._hedge_aborted:
                self.hedges_aborted += 1
                self._send_reply(message, HEDGE_ABORTED_REPLY)
                return
            if group in self._hedge_done:
                self.hedges_deduped += 1
                self._send_reply(message, self._hedge_done[group])
                return
            waiters = self._hedge_inflight.get(group)
            if waiters is not None:
                # A sibling copy is executing right now: park this one
                # and answer it from that execution's result.
                self.hedges_deduped += 1
                waiters.append(message)
                return
            self._hedge_inflight[group] = []
        try:
            handler = self.handlers[message.method]
        except KeyError:
            raise RpcError(f"{self.node}: no handler for {message.method!r}") from None
        reply_payload = yield from handler(message.payload, message.src)
        self.requests_handled += 1
        if group is not None:
            self._hedge_done[group] = reply_payload
            while len(self._hedge_done) > HEDGE_CACHE_LIMIT:
                self._hedge_done.popitem(last=False)
            for parked in self._hedge_inflight.pop(group, ()):
                self._send_reply(parked, reply_payload)
        self._send_reply(message, reply_payload)

    def _send_reply(self, message: Message, reply_payload: Any) -> None:
        if reply_payload is None:
            return
        method = message.method
        try:
            reply_method = self._reply_methods[method]
        except KeyError:  # a hedge copy of a method nobody registered
            reply_method = f"{method}:reply"
        reply = Message(
            self.node,
            message.src,
            reply_method,
            reply_payload,
            size_bytes=_payload_size(reply_payload),
            reply_to=message.msg_id,
        )
        self.network.send(reply)

    def _mark_hedge_aborted(self, group: Tuple) -> None:
        if group in self._hedge_done or group in self._hedge_inflight:
            return  # already executed (or executing); nothing left to abort
        self._hedge_aborted[group] = None
        while len(self._hedge_aborted) > HEDGE_CACHE_LIMIT:
            self._hedge_aborted.popitem(last=False)


class RpcProxy:
    """Bound (endpoint, target) pair — the paper's ``rpc_proxy`` objects."""

    def __init__(self, endpoint: RpcEndpoint, target: str):
        self.endpoint = endpoint
        self.target = target

    def call(self, method: str, payload: Any = None, size_bytes: int = 0) -> RpcEvent:
        return self.endpoint.call(self.target, method, payload, size_bytes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RpcProxy {self.endpoint.node}->{self.target}>"


class QuorumCall:
    """Broadcast + QuorumEvent + quorum-aware discard, in one object.

    Parameters mirror the logic-level intent: send ``method`` to
    ``targets``, succeed once ``quorum`` replies satisfy ``classify``.
    With ``discard_on_quorum`` (the default — this is DepFast's framework
    optimization), messages still sitting in send buffers for slow
    connections are dropped the moment the quorum is reached.
    """

    def __init__(
        self,
        endpoint: RpcEndpoint,
        targets: Sequence[str],
        method: str,
        payload: Any = None,
        size_bytes: int = 0,
        quorum: int = 1,
        classify: Optional[Callable[[RpcEvent], bool]] = None,
        discard_on_quorum: bool = True,
        name: str = "",
    ):
        if quorum > len(targets):
            raise RpcError(f"quorum {quorum} > {len(targets)} targets")
        self.endpoint = endpoint
        self.targets = list(targets)
        self.event = QuorumEvent(
            quorum,
            n_total=len(targets),
            classify=self._wrap_classifier(classify),
            name=name or f"quorum:{method}",
        )
        self.calls: List[RpcEvent] = []
        for target in self.targets:
            rpc_event = endpoint.call(target, method, payload, size_bytes)
            self.calls.append(rpc_event)
            self.event.add(rpc_event)
        if discard_on_quorum:
            self.event.subscribe(self._discard_stragglers)
        if endpoint.runtime.scheduler.tracer is not None:
            # §5 trace point: report who made this quorum and who
            # straggled, feeding the online fail-slow scorer.
            self.event.subscribe(self._report_quorum)

    @staticmethod
    def _wrap_classifier(
        classify: Optional[Callable[[RpcEvent], bool]]
    ) -> Callable[[RpcEvent], bool]:
        if classify is None:
            return _rpc_ok
        return lambda rpc_event: rpc_event.ok and classify(rpc_event)

    def _report_quorum(self, event: QuorumEvent) -> None:
        endpoint = self.endpoint
        runtime = endpoint.runtime
        runtime.scheduler.tracer.report_quorum_event(endpoint.node, event, runtime.kernel.now)

    def _discard_stragglers(self, _event) -> None:
        for rpc_event in self.calls:
            if not rpc_event.ready() and rpc_event.cancel_send is not None:
                rpc_event.cancel_send()

    def replies(self) -> List[Any]:
        """Payloads of the acceptably-completed calls so far."""
        return [rpc_event.reply for rpc_event in self.event.ok_children]

    def wait(self, timeout_ms: Optional[float] = None):
        return self.event.wait(timeout_ms)


def _rpc_ok(rpc_event: RpcEvent) -> bool:
    """QuorumCall's default classifier: any reply that is not an error."""
    return rpc_event.ok


def _payload_size(payload: Any) -> int:
    """Crude size estimate for reply payloads (requests size explicitly)."""
    if payload.__class__ is dict:
        return 64  # nearly every reply: no size_bytes, not bytes or str
    size = getattr(payload, "size_bytes", None)
    if size is not None:
        return int(size)
    if isinstance(payload, (bytes, str)):
        return len(payload)
    return 64
