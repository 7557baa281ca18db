"""The network: endpoints, connections, flow control and delivery.

Model summary (per ordered node pair = one :class:`Connection`):

* a message occupies the connection's *flow-control window* from transmit
  until the receiver's dispatcher consumes it (TCP socket buffers + BDP);
* messages beyond the window queue in the sender's
  :class:`~repro.net.buffers.SendBuffer` (memory-accounted);
* transfer time = sender NIC delay + serialization at link bandwidth +
  propagation (+ jitter) + receiver NIC delay; serialization is pipelined
  per connection (a long message delays the next one's start);
* crashing a node drops its queued and in-flight traffic and instantly
  releases peers' windows (connection reset); :meth:`Network.restart`
  re-attaches a recovered process (fresh inbox, reset connections);
* the chaos fault model adds network **partitions** (ordered pairs of
  nodes whose traffic is silently dropped — symmetric or asymmetric) and
  probabilistic per-link **message loss**; both act at delivery time, so
  packets in flight when a partition starts are lost too.

The per-node NIC delay is where the Table 1 network-slow fault (+400 ms)
is injected.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Iterable, Optional, Set, Tuple

from repro.net.buffers import SendBuffer
from repro.net.inbox import Inbox
from repro.net.link import Link
from repro.net.message import Message
from repro.sim.kernel import Kernel
from repro.sim.metrics import MetricsRegistry
from repro.sim.resources import MemoryResource, NicResource

# Default flow-control window per connection, sized like an autotuned TCP
# buffer on a datacenter path. A receiver that consumes slowly (fail-slow
# CPU) fills it within a second or two of sustained traffic and then
# backpressures the sender into its application buffers.
DEFAULT_WINDOW_BYTES = 8 * 1024 * 1024


class _Endpoint:
    """Network-side record of one attached node."""

    __slots__ = ("node", "inbox", "nic", "memory", "buffer_limit", "crashed")

    def __init__(
        self,
        node: str,
        inbox: Inbox,
        nic: NicResource,
        memory: Optional[MemoryResource],
        buffer_limit: Optional[int],
    ):
        self.node = node
        self.inbox = inbox
        self.nic = nic
        self.memory = memory
        self.buffer_limit = buffer_limit
        self.crashed = False


class Connection:
    """One direction of traffic between an ordered pair of nodes."""

    def __init__(
        self,
        network: "Network",
        src: _Endpoint,
        dst: _Endpoint,
        link: Link,
        window_bytes: int = DEFAULT_WINDOW_BYTES,
    ):
        self.network = network
        self.src = src
        self.dst = dst
        self.link = link
        self.window_bytes = window_bytes
        self.in_flight = 0
        self.buffer = SendBuffer(
            src.node, dst.node, memory=src.memory, max_bytes=src.buffer_limit
        )
        # The buffer's own FIFO, for emptiness tests and the head peek
        # without a call (the buffer never rebinds it).
        self._send_queue = self.buffer._queue
        self._tx_free_at = 0.0
        # Messages transmitted before this time are stale (their TCP
        # connection was reset by a crash/restart) and drop on delivery.
        self.reset_since = -1.0
        # One bound method reused for every flow-control ack instead of a
        # fresh closure per message (the ack path is the hottest allocation
        # site in the network layer).
        self._release_cb = self._release
        # Same-tick delivery batch: consecutive transmits that arrive at
        # the *same* virtual time share one kernel event. `_batch_seq` is
        # the kernel sequence number of that event; a merge is only legal
        # while no other event has been scheduled since (see _transmit).
        self._batch: Optional[list] = None
        self._batch_time = -1.0
        self._batch_seq = -1
        self.sent = 0
        self.delivered = 0
        self.discarded = 0
        self.dropped = 0  # partition / loss / reset drops

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, message: Message) -> None:
        """Transmit now if window allows, else queue in the send buffer.

        Raises :class:`~repro.net.buffers.BufferOverflowError` if this
        connection uses a bounded buffer and it is full.
        """
        message.sent_at = self.network.kernel.now
        if self.src.crashed:
            return  # a dead process sends nothing
        if not self._send_queue and self._window_admits(message.size_bytes):
            self._transmit(message)
        else:
            self.buffer.push(message)

    def discard(self, msg_id: int) -> bool:
        """Drop a still-buffered message (the quorum-aware optimization)."""
        dropped = self.buffer.discard(msg_id)
        if dropped:
            self.discarded += 1
        return dropped

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _transmit(self, message: Message) -> None:
        kernel = self.network.kernel
        self.in_flight += message.size_bytes
        self.sent += 1
        tx_start = kernel.now
        if tx_start < self._tx_free_at:
            tx_start = self._tx_free_at  # serialization is pipelined
        tx_end = tx_start + self.link.transfer_ms(message.size_bytes)
        self._tx_free_at = tx_end
        arrival = (
            tx_end
            + self.src.nic.delay_ms()
            + self.link.propagation_ms()
            + self.dst.nic.delay_ms()
        )
        # Merge into the pending delivery batch only when this message
        # arrives at exactly the batch's time AND nothing has been
        # scheduled since the batch's event: its unbatched sequence number
        # would sit directly behind the batch event at the same timestamp,
        # so executing it inside the batch preserves the exact global
        # (time, seq) order. Any intervening schedule could order between
        # them, so it invalidates the merge.
        batch = self._batch
        if (
            batch is not None
            and arrival == self._batch_time
            and kernel._seq == self._batch_seq
        ):
            batch.append(message)
            return
        batch = [message]
        self._batch = batch
        self._batch_time = arrival
        kernel.schedule_at(arrival, self._deliver_batch, batch)
        self._batch_seq = kernel._seq

    def _deliver_batch(self, batch: list) -> None:
        # The event owns its list; only clear the merge window if it is
        # still ours (a later transmit may have opened a new batch).
        if batch is self._batch:
            self._batch = None
        deliver = self._deliver
        for message in batch:
            deliver(message)

    def _deliver(self, message: Message) -> None:
        if self.dst.crashed or self.src.crashed:
            # Connection reset: the bytes are gone, window is released.
            self._release(message)
            return
        if message.sent_at is not None and message.sent_at < self.reset_since:
            # Sent on a connection that has since been reset (an endpoint
            # crashed and recovered): the segment belongs to a dead socket.
            self.dropped += 1
            self._release(message)
            return
        network = self.network
        # Ask only when some partition or loss rate exists at all; the
        # question draws from the loss RNG only for a pair with a rate.
        if (network._blocked or network._loss_rates) and network.drops_on_delivery(
            self.src.node, self.dst.node
        ):
            # Partitioned link or probabilistic loss: silently dropped.
            self.dropped += 1
            self._release(message)
            return
        now = network.kernel.now
        message.delivered_at = now
        self.delivered += 1
        probe = network.delivery_probe
        if probe is not None:
            probe(now, message)
        self.dst.inbox.put(message, self._release_cb, message)

    def _release(self, message: Message) -> None:
        # Clamped at zero: a stale in-flight release may race a restart's
        # accounting reset.
        in_flight = self.in_flight - message.size_bytes
        self.in_flight = in_flight if in_flight > 0 else 0
        if self._send_queue:
            self._pump()

    def _window_admits(self, size_bytes: int) -> bool:
        # Like TCP, an idle connection always admits one message even if it
        # exceeds the window, so oversized messages cannot deadlock.
        if self.in_flight == 0:
            return True
        return self.in_flight + size_bytes <= self.window_bytes

    def _pump(self) -> None:
        queue = self._send_queue
        while queue and not self.src.crashed:
            if not self._window_admits(queue[0].size_bytes):  # peek
                return
            message = self.buffer.pop()
            if message is not None:
                self._transmit(message)

    def reset(self) -> None:
        """Drop all queued traffic and invalidate in-flight segments."""
        self.buffer.drain_all()
        self.reset_since = self.network.kernel.now
        self.in_flight = 0
        # Close the merge window: post-reset transmits start a new batch.
        # The already-scheduled batch event keeps its own list and its
        # messages are dropped individually by the reset_since check.
        self._batch = None


class Network:
    """Topology registry and the send entry point."""

    def __init__(self, kernel: Kernel, default_link: Optional[Link] = None):
        self.kernel = kernel
        self.default_link = default_link or Link()
        self.metrics = MetricsRegistry("net")
        self._messages = self.metrics.counter("messages")
        self._endpoints: Dict[str, _Endpoint] = {}
        self._links: Dict[Tuple[str, str], Link] = {}
        self._connections: Dict[Tuple[str, str], Connection] = {}
        self._window_bytes = DEFAULT_WINDOW_BYTES
        # Chaos fault state: ordered pairs whose traffic is cut, and
        # per-ordered-pair probabilistic loss rates.
        self._blocked: Set[Tuple[str, str]] = set()
        self._loss_rates: Dict[Tuple[str, str], float] = {}
        self._loss_rng: Optional[random.Random] = None
        # Optional observation hook: called as probe(now, message) for every
        # successful delivery. Pure observation — installing it must not (and
        # does not) perturb a single virtual-time timestamp. The determinism
        # harness (repro.bench.determinism) hashes this stream.
        self.delivery_probe: Optional[Callable[[float, Message], None]] = None

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def attach(
        self,
        node: str,
        inbox: Inbox,
        nic: Optional[NicResource] = None,
        memory: Optional[MemoryResource] = None,
        buffer_limit: Optional[int] = None,
    ) -> None:
        """Register a node. ``buffer_limit=None`` means *unbounded* buffers."""
        if node in self._endpoints:
            raise ValueError(f"node {node!r} already attached")
        self._endpoints[node] = _Endpoint(
            node, inbox, nic or NicResource(), memory, buffer_limit
        )

    def set_link(self, src: str, dst: str, link: Link, symmetric: bool = True) -> None:
        self._links[(src, dst)] = link
        if symmetric:
            self._links[(dst, src)] = link

    def set_window_bytes(self, window_bytes: int) -> None:
        """Flow-control window for connections created after this call."""
        if window_bytes <= 0:
            raise ValueError("window must be positive")
        self._window_bytes = window_bytes

    def nic_of(self, node: str) -> NicResource:
        return self._require(node).nic

    def nodes(self) -> list:
        return sorted(self._endpoints)

    # ------------------------------------------------------------------
    # Traffic
    # ------------------------------------------------------------------
    def send(self, message: Message) -> None:
        """Send a message along the (src, dst) connection."""
        try:
            connection = self._connections[message.src, message.dst]
        except KeyError:
            connection = self.connection(message.src, message.dst)
        self._messages.value += 1
        connection.send(message)

    def connection(self, src: str, dst: str) -> Connection:
        key = (src, dst)
        conn = self._connections.get(key)
        if conn is None:
            link = self._links.get(key, self.default_link)
            conn = Connection(
                self, self._require(src), self._require(dst), link, self._window_bytes
            )
            self._connections[key] = conn
        return conn

    def crash(self, node: str) -> None:
        """Mark a node dead: drops its traffic, resets peers' connections."""
        endpoint = self._require(node)
        endpoint.crashed = True
        for (src, dst), conn in self._connections.items():
            if src == node or dst == node:
                conn.reset()

    def restart(self, node: str, inbox: Inbox) -> None:
        """Re-attach a recovered process: fresh inbox, reset connections.

        Every connection touching the node is reset again at restart time,
        so segments sent by peers while the node was down (or by its dead
        predecessor process) can never be delivered to the new process.
        """
        endpoint = self._require(node)
        if not endpoint.crashed:
            raise ValueError(f"node {node!r} is not crashed")
        endpoint.crashed = False
        endpoint.inbox = inbox
        for (src, dst), conn in self._connections.items():
            if src == node or dst == node:
                conn.reset()

    def is_crashed(self, node: str) -> bool:
        return self._require(node).crashed

    # ------------------------------------------------------------------
    # Partitions and message loss (the chaos fault substrate)
    # ------------------------------------------------------------------
    def use_loss_rng(self, rng: random.Random) -> None:
        """Install the seeded RNG stream that loss decisions draw from."""
        self._loss_rng = rng

    def block(self, src: str, dst: str, symmetric: bool = True) -> None:
        """Cut traffic from ``src`` to ``dst`` (both ways if symmetric)."""
        self._require(src)
        self._require(dst)
        self._blocked.add((src, dst))
        if symmetric:
            self._blocked.add((dst, src))

    def unblock(self, src: str, dst: str, symmetric: bool = True) -> None:
        self._blocked.discard((src, dst))
        if symmetric:
            self._blocked.discard((dst, src))

    def partition(self, side_a: Iterable[str], side_b: Iterable[str]) -> None:
        """Cut every link between the two sides (symmetric partition)."""
        for a in side_a:
            for b in side_b:
                if a != b:
                    self.block(a, b, symmetric=True)

    def isolate(self, node: str) -> None:
        """Cut the node off from every other attached endpoint."""
        others = [peer for peer in self._endpoints if peer != node]
        self.partition([node], others)

    def heal(self) -> None:
        """Remove every partition (loss rates are cleared separately)."""
        self._blocked.clear()

    def is_blocked(self, src: str, dst: str) -> bool:
        return (src, dst) in self._blocked

    def partitioned_pairs(self) -> Set[Tuple[str, str]]:
        return set(self._blocked)

    def set_loss_rate(self, src: str, dst: str, rate: float, symmetric: bool = True) -> None:
        """Drop each ``src``→``dst`` message independently with ``rate``."""
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"loss rate must be in [0, 1], got {rate}")
        pairs = [(src, dst), (dst, src)] if symmetric else [(src, dst)]
        for pair in pairs:
            if rate == 0.0:
                self._loss_rates.pop(pair, None)
            else:
                self._loss_rates[pair] = rate

    def clear_loss(self) -> None:
        self._loss_rates.clear()

    def drops_on_delivery(self, src: str, dst: str) -> bool:
        """Decide (at delivery time) whether this message is lost."""
        if (src, dst) in self._blocked:
            return True
        rate = self._loss_rates.get((src, dst))
        if rate:
            if self._loss_rng is None:
                raise RuntimeError(
                    "message loss configured but no loss RNG installed; "
                    "call Network.use_loss_rng(...) first"
                )
            return self._loss_rng.random() < rate
        return False

    def buffered_bytes_from(self, node: str) -> int:
        """Total send-buffer backlog at ``node`` (the §2.2 backlog metric)."""
        return sum(
            conn.buffer.bytes_queued
            for (src, _dst), conn in self._connections.items()
            if src == node
        )

    def _require(self, node: str) -> _Endpoint:
        endpoint = self._endpoints.get(node)
        if endpoint is None:
            raise ValueError(f"unknown node {node!r}")
        return endpoint
