"""Open-loop load generator: requests are due on a schedule, served or not.

A closed loop sends a client's next request only after the previous one
returned, so a stalled cluster receives less load and its outage hides
from the latency numbers. Here arrivals are a seeded Poisson process that
never looks at the cluster: every request has an *intended* arrival time
and its latency is timed from that instant, so the wait a stall imposes on
the requests queued behind it is counted.

Requests are served by a fixed pool of session clients
(``KvServiceClient(session_id=...)``). A session carries at most one
request at a time — that is what keeps the state machine's per-session
dedup valid — so an arrival that finds every session busy waits in a FIFO
backlog, and that wait is part of its latency.

Only public API is used: ``cluster.add_client``, ``KvServiceClient.execute``,
``runtime.spawn``, ``runtime.sleep`` and one ``cluster.rng.stream``.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Generator, List, NamedTuple, Optional

from repro.workload.driver import KvServiceClient


class OpenLoopOp(NamedTuple):
    """One request: when it was due, when it was acknowledged, and how."""

    due_at: float
    done_at: float  # math.inf while unacknowledged
    ok: bool
    queued_ms: float  # wait for a free session before the first attempt


class OpenLoopGenerator:
    """Poisson arrivals at ``rate_per_s`` served by ``n_sessions`` clients."""

    def __init__(
        self,
        cluster,
        server_ids: List[str],
        workload,
        rate_per_s: float,
        n_sessions: int,
        history=None,
        request_timeout_ms: float = 400.0,
        backoff_ms: float = 20.0,
        max_attempts: int = 40,
        client_id: str = "ol1",
    ):
        if rate_per_s <= 0 or n_sessions < 1:
            raise ValueError("need a positive rate and at least one session")
        self.rate_per_s = rate_per_s
        self.workload = workload
        self.node = cluster.add_client(client_id)
        self.node.start()
        self.runtime = self.node.runtime
        self._arrival_rng = cluster.rng.stream("openloop-arrivals")
        self.sessions = [
            KvServiceClient(
                self.node,
                server_ids,
                request_timeout_ms=request_timeout_ms,
                session_id=f"{client_id}#{index}",
                backoff_ms=backoff_ms,
                max_attempts=max_attempts,
                history=history,
            )
            for index in range(n_sessions)
        ]
        self._free: List[KvServiceClient] = list(reversed(self.sessions))
        self._busy = set()
        self._backlog: Deque[tuple] = deque()
        self.ops: List[OpenLoopOp] = []
        self.arrivals: List[float] = []  # intended arrival times
        self.generator_late_ms = 0.0
        self.max_backlog = 0

    def start(self, start_ms: float, stop_ms: float) -> None:
        """Generate arrivals due in ``[start_ms, stop_ms)``."""
        self.runtime.spawn(self._arrivals(start_ms, stop_ms), name="openloop-arrivals")

    # ------------------------------------------------------------------
    # The arrival process (never waits on the cluster)
    # ------------------------------------------------------------------
    def _arrivals(self, start_ms: float, stop_ms: float) -> Generator:
        runtime = self.runtime
        mean_gap_ms = 1000.0 / self.rate_per_s
        due = start_ms + self._arrival_rng.expovariate(1.0) * mean_gap_ms
        while due < stop_ms:
            if due > runtime.now:
                yield runtime.sleep(due - runtime.now)
            self.generator_late_ms = max(self.generator_late_ms, runtime.now - due)
            self.arrivals.append(due)
            op, size_bytes = self.workload.next_op()
            slot = len(self.ops)
            self.ops.append(OpenLoopOp(due, math.inf, False, 0.0))
            item = (slot, due, op, size_bytes)
            if self._free:
                session = self._free.pop()
                runtime.spawn(self._serve(session, item), name=f"openloop-{session.session_id}")
            else:
                self._backlog.append(item)
                self.max_backlog = max(self.max_backlog, len(self._backlog))
            due += self._arrival_rng.expovariate(1.0) * mean_gap_ms

    def _serve(self, session: KvServiceClient, item: Optional[tuple]) -> Generator:
        """One session works through its request, then the backlog."""
        runtime = self.runtime
        while item is not None:
            slot, due, op, size_bytes = item
            if session in self._busy:
                raise AssertionError(f"session {session.session_id} has two ops in flight")
            self._busy.add(session)
            queued_ms = runtime.now - due
            ok, _result = yield from session.execute(op, size_bytes)
            self._busy.discard(session)
            self.ops[slot] = OpenLoopOp(due, runtime.now, ok, queued_ms)
            item = self._backlog.popleft() if self._backlog else None
        self._free.append(session)

    # ------------------------------------------------------------------
    # Self-checks
    # ------------------------------------------------------------------
    def check(self) -> List[str]:
        """Problems with the generator itself (empty when it is sound)."""
        problems = []
        n = len(self.arrivals)
        if n >= 2:
            mean_gap_ms = (self.arrivals[-1] - self.arrivals[0]) / (n - 1)
            error = abs(mean_gap_ms * self.rate_per_s / 1000.0 - 1.0)
            # 5% is the target over >= 1000 arrivals; below ~8000 arrivals
            # an exact Poisson stream strays further than that by chance
            # alone, so the tolerance never drops under 4.5 standard errors.
            tolerance = max(0.05, 4.5 / math.sqrt(n))
            if error > tolerance:
                problems.append(
                    f"inter-arrival mean {mean_gap_ms:.4f}ms is {error:.1%} off "
                    f"1/rate over {n} arrivals (tolerance {tolerance:.1%})"
                )
        if self.generator_late_ms > 1e-6:
            problems.append(f"generator ran {self.generator_late_ms}ms late")
        if self._busy and not self.unfinished():
            problems.append("a session is marked busy with no op outstanding")
        for op in self.ops:
            if op.done_at != math.inf and op.done_at - op.due_at < op.queued_ms:
                problems.append("an op's latency excludes its wait for a session")
                break
        return problems

    def unfinished(self) -> int:
        """Requests generated and not yet acknowledged or given up."""
        return sum(1 for op in self.ops if op.done_at == math.inf)
