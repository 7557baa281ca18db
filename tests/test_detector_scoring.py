"""Unit + property tests for the health signal and its per-link feeder."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import Cluster
from repro.breaker import AttributionConfig, DiskAttributor
from repro.detector.scoring import ScoringConfig, SlownessScorer
from repro.detector.signal import DISK, Level, PeerHealth, Suspect
from repro.faults.injector import FaultInjector
from repro.raft.config import RaftConfig
from repro.raft.service import deploy_depfast_raft, find_leader, wait_for_leader
from repro.sim.kernel import Kernel
from repro.trace.tracepoints import Tracer
from repro.workload.driver import ClosedLoopDriver
from repro.workload.ycsb import YcsbWorkload

GROUP = ["s1", "s2", "s3"]

latencies = st.lists(
    st.floats(min_value=0.01, max_value=1e4, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=60,
)


class TestLevelProperties:
    @given(samples=latencies, alpha=st.floats(min_value=0.01, max_value=1.0))
    @settings(max_examples=200, deadline=None)
    def test_ewma_deterministic_and_bounded(self, samples, alpha):
        a, b = Level(), Level()
        for latency in samples:
            a.observe(latency, alpha)
            b.observe(latency, alpha)
        # Same stream, same fold: bit-identical — no hidden state, no
        # accumulation-order dependence.
        assert a.ewma == b.ewma
        assert a.samples == b.samples == len(samples)
        # An exponentially-weighted mean can never escape the sample hull.
        assert min(samples) <= a.ewma <= max(samples)

    @given(
        rounds=st.lists(st.booleans(), min_size=1, max_size=60),
        alpha=st.floats(min_value=0.01, max_value=1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_miss_ewma_bounded(self, rounds, alpha):
        miss = Level(0.0)  # how the link feeder starts a miss level
        for in_quorum in rounds:
            miss.observe(0.0 if in_quorum else 1.0, alpha)
        assert 0.0 <= miss.ewma <= 1.0
        if all(rounds):
            assert miss.ewma == 0.0

    def test_constant_stream_converges_to_constant(self):
        level = Level()
        for _ in range(50):
            level.observe(7.5, 0.2)
        assert level.ewma == pytest.approx(7.5)


class TestScorerHysteresis:
    def scorer(self, **overrides):
        config = ScoringConfig(**overrides)
        return SlownessScorer(Tracer(Kernel()), config)

    def feed(self, scorer, peer_ms):
        for peer, latency in peer_ms.items():
            scorer.on_rpc("s1", peer, "append", latency, 0.0)

    def test_slow_link_needs_consecutive_windows(self):
        scorer = self.scorer(min_samples=4, suspect_windows=3)
        for _ in range(10):
            self.feed(scorer, {"s2": 1.0, "s3": 20.0})
        signal = scorer.signal
        assert signal.score("s3", "link:s1") > 1.0
        assert signal.score("s2", "link:s1") <= 1.0
        scorer.roll_window(500.0)
        scorer.roll_window(1000.0)
        assert signal.state("s3", "link:s1") == PeerHealth.HEALTHY  # not yet
        edges = scorer.roll_window(1500.0)
        assert signal.state("s3", "link:s1") == PeerHealth.SUSPECT
        assert [(e.node, e.resource, e.state) for e in edges] == [
            ("s3", "link:s1", PeerHealth.SUSPECT)
        ]
        assert signal.suspects() == [Suspect("s3", "link:s1")]

    def test_recovered_link_needs_consecutive_clear_windows(self):
        scorer = self.scorer(min_samples=4, suspect_windows=1, clear_windows=3)
        for _ in range(10):
            self.feed(scorer, {"s2": 1.0, "s3": 20.0})
        signal = scorer.signal
        scorer.roll_window(500.0)
        assert signal.state("s3", "link:s1") == PeerHealth.SUSPECT
        # The fault clears; the EWMA decays back toward the baseline.
        for _ in range(60):
            self.feed(scorer, {"s2": 1.0, "s3": 1.0})
        assert signal.score("s3", "link:s1") < 1.0
        scorer.roll_window(1000.0)
        scorer.roll_window(1500.0)
        assert signal.state("s3", "link:s1") == PeerHealth.SUSPECT  # not yet
        scorer.roll_window(2000.0)
        assert signal.state("s3", "link:s1") == PeerHealth.HEALTHY
        # Four transitions were recorded? No: one in, one out.
        assert len(signal.transitions) == 2

    def test_unjudged_links_score_zero(self):
        scorer = self.scorer(min_samples=8)
        self.feed(scorer, {"s2": 1.0})
        assert scorer.signal.score("s2", "link:s1") == 0.0
        assert scorer.scores("link:s1") == {"s2": 0.0}

    def test_sole_judged_peer_has_no_rtt_baseline(self):
        """With one judged link the "best link" baseline *is* the suspect
        link, so the ratio pins to 1.0 — the RTT component must report
        "cannot judge relatively", not a constant 1/RTT_FACTOR."""
        scorer = self.scorer(min_samples=4)
        for _ in range(10):
            self.feed(scorer, {"s2": 500.0})  # absurdly slow, but alone
        assert scorer.signal.score("s2", "link:s1") == 0.0
        scorer.roll_window(500.0)
        scorer.roll_window(1000.0)
        scorer.roll_window(1500.0)
        assert scorer.signal.suspects() == []
        # A second judged peer restores the relative comparison.
        for _ in range(10):
            self.feed(scorer, {"s3": 1.0})
        assert scorer.signal.score("s2", "link:s1") > 1.0

    def test_sole_peer_still_judged_by_quorum_misses(self):
        """The single-peer guard disables only the RTT ratio: a sole peer
        that keeps missing the winning quorum is still scoreable."""
        from repro.trace.tracepoints import QuorumArrival

        scorer = self.scorer(min_samples=8)
        for _ in range(10):
            self.feed(scorer, {"s2": 1.0})
        for _ in range(60):
            scorer.on_quorum(QuorumArrival("s1", "s2", False, None, 2, 0.0))
        assert scorer.signal.score("s2", "link:s1") >= 1.0


def _link_kind(tracer, **windows):
    feeder = SlownessScorer(tracer, ScoringConfig(min_samples=1, **windows))
    emit = tracer.on_rpc_complete
    return feeder.signal, emit, ("s1", "s3", "append"), ("s1", "s2", "append")


def _disk_kind(tracer, **windows):
    feeder = DiskAttributor(tracer, AttributionConfig(min_samples=1, **windows))
    return feeder.signal, tracer.on_fsync_complete, ("s3", 4096), ("s2", 4096)


class TestSharedHysteresis:
    """One suspect/clear machine, whichever resource kind feeds it."""

    @pytest.mark.parametrize(
        "kind, resource", [(_link_kind, "link:s1"), (_disk_kind, DISK)]
    )
    @given(
        windows=st.lists(st.booleans(), max_size=12),
        suspect_windows=st.integers(min_value=1, max_value=3),
        clear_windows=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_flips_exactly_at_the_thresholds(
        self, kind, resource, windows, suspect_windows, clear_windows
    ):
        signals = []
        for _ in range(2):  # two signals fed the same stream
            tracer = Tracer(Kernel())
            signal, emit, victim, reference = kind(
                tracer, suspect_windows=suspect_windows, clear_windows=clear_windows
            )
            state, run = PeerHealth.HEALTHY, 0
            for index, bad in enumerate(windows):
                now = 500.0 * (index + 1)
                for _ in range(60):  # enough for the level to converge
                    emit(*reference, 1.0, now)
                    emit(*victim, 100.0 if bad else 1.0, now)
                edges = signal.roll_window(now)
                # The model: a run of like windows, flipped exactly at
                # the threshold-th one.
                previous = windows[index - 1] if index else None
                run = run + 1 if bad == previous else 1
                want = PeerHealth.SUSPECT if bad else PeerHealth.HEALTHY
                need = suspect_windows if bad else clear_windows
                if want != state and run >= need:
                    state = want
                    assert [(e.node, e.resource, e.state) for e in edges] == [
                        ("s3", resource, want)
                    ]
                else:
                    assert edges == []
                assert signal.state("s3", resource) == state
            flips = [e.state for e in signal.transitions]
            alternating = [PeerHealth.SUSPECT, PeerHealth.HEALTHY] * len(flips)
            assert flips == alternating[: len(flips)]
            signals.append(signal)
        assert signals[0].transitions == signals[1].transitions
        assert signals[0].scores(resource) == signals[1].scores(resource)


def _scored_run(seed, fault=None, until_ms=4_000.0):
    """A short live-cluster run; returns the signal and the full link state."""
    cluster = Cluster(seed=seed)
    raft = deploy_depfast_raft(
        cluster, GROUP, config=RaftConfig(preferred_leader="s1")
    )
    scorer = SlownessScorer(cluster.tracer, ScoringConfig())
    wait_for_leader(cluster, raft)
    workload = YcsbWorkload(
        cluster.rng.stream("ycsb"), record_count=1_000, value_size=200
    )
    driver = ClosedLoopDriver(cluster, GROUP, workload, n_clients=8)
    driver.start()
    if fault is not None:
        FaultInjector(cluster).inject_at("s3", fault, 1_000.0)
    t = 0.0
    while t < until_ms:
        t += 500.0
        cluster.run(t)
        scorer.roll_window(t)
    leader = find_leader(raft)
    state = {
        (resource, peer): (
            level.ewma,
            level.samples,
            scorer.misses[resource, peer].ewma,
            scorer.misses[resource, peer].samples,
        )
        for resource, group in sorted(scorer.levels.items())
        for peer, level in sorted(group.items())
    }
    return scorer.signal, state, leader.id if leader else None


class TestScorerOnCluster:
    @pytest.mark.slow
    def test_scores_are_deterministic(self):
        _, state_a, leader_a = _scored_run(seed=11)
        _, state_b, leader_b = _scored_run(seed=11)
        # Same seed, same trace stream, bit-identical EWMAs throughout.
        assert state_a == state_b
        assert leader_a == leader_b
        assert state_a  # the run actually produced judged links

    @pytest.mark.slow
    def test_fault_free_run_has_no_suspects(self):
        signal, _state, leader = _scored_run(seed=11, until_ms=6_000.0)
        assert leader is not None
        assert signal.suspects() == []

    @pytest.mark.slow
    def test_slow_follower_flagged_by_leader_links(self):
        signal, _state, leader = _scored_run(
            seed=11, fault="cpu_slow", until_ms=10_000.0
        )
        assert leader == "s1"
        assert [s for s in signal.suspects() if s.resource == "link:s1"] == [
            Suspect("s3", "link:s1")
        ]
