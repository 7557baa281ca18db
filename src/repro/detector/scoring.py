"""Streaming per-link fail-slow scoring over live trace points (§5).

The offline detectors (:mod:`repro.detector.peer_monitor`) post-process
the tracer's RPC latency list; this module is the *online* counterpart:
the link feeder of the health signal (:mod:`repro.detector.signal`). It
subscribes to the tracer's streaming hooks and maintains, per
(caller, peer) link,

* an **RTT level** — exponentially-weighted round-trip latency, updated
  on every reply (including quorum stragglers nobody waited on), scored
  against the same caller's best other link;
* a **quorum-miss level** — how often the peer fails to make the winning
  quorum of a round it was broadcast to (fed by the quorum-arrival rank
  trace points reported when a QuorumEvent fires), scored against a
  fixed threshold.

A link's score is the worse of the two.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.detector.signal import Feeder, Level, link
from repro.trace.tracepoints import QuorumArrival, Tracer

# EWMA smoothing for RTT samples (higher = more reactive) ...
RTT_ALPHA = 0.15
# ... and for the per-round quorum-miss indicator.
MISS_ALPHA = 0.1
# A peer is suspicious when its RTT level exceeds this multiple of the
# healthiest other peer's (same caller), ...
RTT_FACTOR = 3.0
# ...or when it misses the winning quorum in (practically) every
# round. A 3-node group's two followers each naturally miss ~half of
# their rounds, so the threshold sits far above any healthy baseline.
MISS_RATE_THRESHOLD = 0.95


@dataclass
class ScoringConfig:
    # Minimum RTT samples on a link before it can be judged at all (and
    # minimum rounds before its miss rate counts).
    min_samples: int = 8
    # Hysteresis: consecutive suspicious windows to flag ...
    suspect_windows: int = 3
    # ... and consecutive healthy windows to clear.
    clear_windows: int = 4


class SlownessScorer(Feeder):
    """Live per-link scoring: RPC replies and quorum-arrival ranks."""

    factor = RTT_FACTOR

    def __init__(self, tracer: Tracer, config: Optional[ScoringConfig] = None):
        super().__init__(tracer, config or ScoringConfig())
        # (link(caller), peer) -> miss level; a link has missed nothing
        # before its first round, so this one starts at 0.0.
        self.misses: Dict[Tuple[str, str], Level] = defaultdict(lambda: Level(0.0))

    def on_rpc(
        self, node: str, peer: str, method: str, latency_ms: float, now: float
    ) -> None:
        self.level(peer, link(node)).observe(latency_ms, RTT_ALPHA)

    def on_quorum(self, arrival: QuorumArrival) -> None:
        miss = self.misses[link(arrival.caller), arrival.peer]
        miss.observe(0.0 if arrival.in_quorum else 1.0, MISS_ALPHA)

    def extra(self, node: str, resource: str) -> float:
        miss = self.misses.get((resource, node))
        if miss is None or miss.samples < self.config.min_samples:
            return 0.0
        return miss.ewma / MISS_RATE_THRESHOLD
