"""Per-resource fault attribution: the disk feeder of the health signal.

The link scorer (:mod:`repro.detector.scoring`) answers "which *peer*
looks slow from here?" — but a suspect peer can be slow for two very
different reasons, and the right mitigation differs:

* **disk-slow** inflates the node's *local fsync* trace points (the WAL
  reports every real flush) while its peer RTTs stay clean;
* **link-slow** inflates the RTTs its callers observe while its fsync
  latencies stay clean.

:class:`DiskAttributor` is the disk half: a streaming per-node fsync
latency level compared against the healthiest *other* node's (the
replicas of one group flush near-identical group commits, so cross-node
comparison is meaningful), under the same windowed hysteresis as the
links. Joined with the link scorer in one
:class:`~repro.detector.signal.HealthSignal`, ``suspects()`` tags each
verdict ``(node, resource)`` and lets the disk win for a node whose own
device is dragging (tripping its breaker fixes the cause; demoting it
would only hide it).
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Deque, Dict, Optional

from repro.detector.signal import DISK, Feeder
from repro.trace.tracepoints import Tracer

# EWMA smoothing for fsync latency samples.
FSYNC_ALPHA = 0.2
# A node's disk is suspicious when its fsync level exceeds this multiple
# of the healthiest other node's ...
FSYNC_FACTOR = 3.0


@dataclass
class AttributionConfig:
    # ... and is above this absolute floor (a 0.2ms-vs-0.05ms ratio is
    # noise, not a fail-slow disk).
    abs_floor_ms: float = 2.0
    # Minimum fsync samples on a node before it can be judged.
    min_samples: int = 5
    # Hysteresis: consecutive suspicious windows to flag / healthy to clear.
    suspect_windows: int = 2
    clear_windows: int = 3


class DiskAttributor(Feeder):
    """Live per-node disk scoring off the tracer's fsync trace points."""

    factor = FSYNC_FACTOR

    def __init__(self, tracer: Tracer, config: Optional[AttributionConfig] = None):
        super().__init__(tracer, config or AttributionConfig())
        # node -> issue times of fsyncs currently on the platter (FIFO:
        # one disk queue per node, completions come back in issue order).
        self._inflight: Dict[str, Deque[float]] = defaultdict(deque)
        self.censored_samples = 0

    @property
    def floor_ms(self) -> float:
        return self.config.abs_floor_ms

    def on_fsync_begin(self, node: str, n_bytes: int, now: float) -> None:
        self._inflight[node].append(now)

    def on_fsync_complete(
        self, node: str, n_bytes: int, latency_ms: float, now: float
    ) -> None:
        queue = self._inflight.get(node)
        if queue:
            queue.popleft()
        self.level(node, DISK).observe(latency_ms, FSYNC_ALPHA)

    def on_fsync_abort(self, node: str, now: float) -> None:
        # The node's WAL retired (crash): its in-flight fsyncs will never
        # complete, so their issue times must not age into suspicion.
        self._inflight.pop(node, None)

    def fold(self, now: float) -> None:
        # Censored sampling: a stalled disk is precisely the one that
        # stops delivering completion latencies (its one group-commit
        # fsync just sits there), so detection would starve exactly when
        # it matters. The age of the oldest in-flight fsync is a lower
        # bound on its eventual latency — fold it in whenever it already
        # exceeds what the level believes. Healthy disks roll windows with
        # young in-flight fsyncs and are never touched by this.
        for node in sorted(self._inflight):
            queue = self._inflight[node]
            if not queue:
                continue
            age = now - queue[0]
            level = self.level(node, DISK)
            if age >= self.floor_ms and (level.ewma is None or age > level.ewma):
                level.observe(age, FSYNC_ALPHA)
                self.censored_samples += 1
