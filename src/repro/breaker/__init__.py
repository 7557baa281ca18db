"""Circuit-breaking a fail-slow disk onto a write-behind WAL path.

Two halves close the disk side of the §5 mitigation loop:

* :mod:`repro.breaker.attribution` — per-resource fault attribution:
  disk-slow inflates local fsync trace points but not peer RTTs, so the
  disk feeder of the health signal (:mod:`repro.detector.signal`) lets
  each suspect be tagged ``(node, resource)``, not just per link.
* :mod:`repro.breaker.write_behind` — the mitigation itself: a WAL whose
  fsyncs can be diverted to an in-memory write-behind queue with bounded
  staleness while the disk is sick, acking immediately and draining
  through the real device as it recovers.

The :class:`~repro.detector.mitigation.MitigationController` wires them
together (trip on disk suspicion, release after probation).
"""

from repro.breaker.attribution import AttributionConfig, DiskAttributor
from repro.breaker.write_behind import (
    BreakerConfig,
    BreakerState,
    CircuitBreakerWal,
    install_breaker_wals,
)

__all__ = [
    "AttributionConfig",
    "BreakerConfig",
    "BreakerState",
    "CircuitBreakerWal",
    "DiskAttributor",
    "install_breaker_wals",
]
