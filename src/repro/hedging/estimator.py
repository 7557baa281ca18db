"""Per-link latency percentile estimation for hedge delay selection.

A hedge timer should fire when the primary request is *unusually* slow
for its link — Dean & Barroso's "tail at scale" recipe sends the hedge
after the ~95th percentile of observed latency, bounding duplicate work
at a few percent of requests. This module keeps one streaming
:class:`repro.sim.metrics.P2Quantile` per ``(caller, peer)`` link, fed
from the same tracer RPC trace points the fail-slow
:class:`~repro.detector.scoring.SlownessScorer` consumes — no extra
instrumentation, no sample buffers.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.sim.metrics import P2Quantile


class HedgeDelayEstimator:
    """Streaming per-link RPC latency percentiles.

    Attach once per cluster via :meth:`attach`; every completed RPC then
    updates the quantile for its ``(caller, peer)`` link. Until a link
    has ``warmup_observations`` samples the estimator returns
    ``default_delay_ms`` — hedging on a cold estimate would either race
    everything (estimate too low) or nothing (too high). Estimates are
    clamped to ``[min_delay_ms, max_delay_ms]``: the floor keeps jitter
    on a healthy link from degenerating into broadcast, the ceiling
    keeps a fail-slow link's inflated percentile from disabling hedging
    exactly when it is needed.
    """

    def __init__(
        self,
        percentile: float = 0.95,
        warmup_observations: int = 10,
        default_delay_ms: float = 25.0,
        min_delay_ms: float = 1.0,
        max_delay_ms: float = 250.0,
    ):
        if not 0.0 < percentile < 1.0:
            raise ValueError(f"percentile must be in (0, 1), got {percentile}")
        if min_delay_ms > max_delay_ms:
            raise ValueError(
                f"min_delay_ms {min_delay_ms} > max_delay_ms {max_delay_ms}"
            )
        self.percentile = percentile
        self.warmup_observations = warmup_observations
        self.default_delay_ms = default_delay_ms
        self.min_delay_ms = min_delay_ms
        self.max_delay_ms = max_delay_ms
        self._links: Dict[Tuple[str, str], P2Quantile] = {}

    # ------------------------------------------------------------------
    # Feeding
    # ------------------------------------------------------------------
    def attach(self, tracer) -> "HedgeDelayEstimator":
        """Subscribe to a :class:`~repro.trace.tracepoints.Tracer`."""
        tracer.subscribe(self)
        return self

    def on_rpc(
        self, node: str, peer: str, method: str, latency_ms: float, now: float
    ) -> None:
        """Tracer RPC listener: fold one completed call into its link."""
        quantile = self._links.get((node, peer))
        if quantile is None:
            quantile = self._links[(node, peer)] = P2Quantile(self.percentile)
        quantile.observe(latency_ms)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def observed(self, node: str, peer: str) -> int:
        """Number of completed RPCs folded into the ``node -> peer`` link."""
        quantile = self._links.get((node, peer))
        return 0 if quantile is None else quantile.count

    def raw_percentile_ms(self, node: str, peer: str) -> float:
        """Unclamped percentile estimate (0.0 when the link is unseen)."""
        quantile = self._links.get((node, peer))
        return 0.0 if quantile is None else quantile.value()

    def delay_ms(self, node: str, peer: str) -> float:
        """The hedge delay for one more call on the ``node -> peer`` link."""
        quantile = self._links.get((node, peer))
        if quantile is None or quantile.count < self.warmup_observations:
            return self.default_delay_ms
        estimate = quantile.value()
        if estimate < self.min_delay_ms:
            return self.min_delay_ms
        if estimate > self.max_delay_ms:
            return self.max_delay_ms
        return estimate
