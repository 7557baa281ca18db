"""Fail-slow detection and mitigation — the paper's §5 future work.

"We plan to implement failure detectors based on those trace points.
Lastly, we will develop mitigation procedures specific to the detected
failure modes. For instance, in DepFastRaft, if the leader is detected to
fail-slow, a leader re-election can be triggered to turn the fail-slow
leader into a fail-slow follower, which is well tolerated by DepFastRaft."

:class:`LeaderSlownessDetector` runs on each follower and combines two
trace-point signals: the leader self-reports its pending-queue depth in
heartbeats, and the follower observes its own commit-index progress. A
leader that is backed up but not committing is fail-slow; the detector
then *suspects* it — suspected leaders no longer reset the follower's
election timer, so an ordinary Raft election replaces them, demoting the
fail-slow node to a (well-tolerated) follower. It watches commit
*progress*, not a latency level, so it keeps its own strike counter.

Everything that judges a latency level shares one health signal
(:mod:`repro.detector.signal`): verdicts keyed by ``(node, resource)``
under one suspect/clear hysteresis, fed per link by
:class:`SlownessScorer` and per disk by
:class:`repro.breaker.DiskAttributor`. :class:`MitigationController`
rolls that signal every window and acts on it;
:func:`analyze_peer_slowness` is the offline counterpart.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.detector.leader_detector": (
            "DetectorConfig", "LeaderSlownessDetector", "Suspicion", "attach_detectors",
        ),
        "repro.detector.mitigation": (
            "MitigationConfig", "MitigationController", "deploy_mitigation",
        ),
        "repro.detector.peer_monitor": ("PeerSlownessReport", "analyze_peer_slowness"),
        "repro.detector.scoring": ("ScoringConfig", "SlownessScorer"),
        "repro.detector.signal": ("HealthSignal", "PeerHealth", "Suspect", "Transition"),
    },
)
