"""One health signal keyed by ``(node, resource)`` (§5: detect, then mitigate).

Every streaming "is this slow?" verdict has the same shape: a latency
:class:`Level` per ``(node, resource)``, scored against the best *other*
member of its comparison group (:meth:`Feeder.scores`), under one
windowed suspect/clear hysteresis (:class:`HealthSignal`) whose
:meth:`~HealthSignal.suspects` lets disk beat link. This module owns
that shape once, plus the :class:`Streak` counter policies build on.

``resource`` names the comparison group as well as the resource: every
disk is ``"disk"`` (the replicas of one group flush near-identical group
commits, so nodes compare against each other), and the link a caller
sees a peer through is ``"link:<caller>"`` (one caller's peers compare
against each other). What differs per kind — which trace points feed
it, its thresholds, its absolute floor — lives with the feeder
(:class:`repro.detector.scoring.SlownessScorer`,
:class:`repro.breaker.attribution.DiskAttributor`).

Pure arithmetic over the deterministic trace stream and the roll times:
replays are bit-identical (the golden-trace harness relies on it).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Hashable, List, NamedTuple, Optional

DISK = "disk"


def link(caller: str) -> str:
    """The resource tag of the links ``caller`` sees its peers through."""
    return f"link:{caller}"


class PeerHealth(enum.Enum):
    HEALTHY = "healthy"
    SUSPECT = "suspect"


class Suspect(NamedTuple):
    """One attributed verdict: which node, and which of its resources."""

    node: str
    resource: str  # DISK | link(caller)


@dataclass
class Transition:
    """One hysteresis edge: a resource crossed into or out of suspicion."""

    node: str
    resource: str
    state: PeerHealth
    score: float
    at: float


class Level:
    """A streaming EWMA of one latency-like quantity."""

    __slots__ = ("ewma", "samples")

    def __init__(self, ewma: Optional[float] = None):
        self.ewma = ewma
        self.samples = 0

    def observe(self, value: float, alpha: float) -> None:
        self.samples += 1
        old = self.ewma
        if old is None:
            self.ewma = value
            return
        updated = old + alpha * (value - old)
        # In exact arithmetic the update is a convex combination, so it
        # lies between the old EWMA and the new sample; float rounding
        # can land one ulp outside that hull (e.g. alpha == 1.0 with a
        # large magnitude drop). Clamp back so the invariant the rest
        # of the detector relies on — EWMA within observed range —
        # holds bit-for-bit. (Comparisons, not min/max calls: this runs
        # once per RPC reply and per fsync.)
        lo, hi = (old, value) if old <= value else (value, old)
        if updated < lo:
            updated = lo
        elif updated > hi:
            updated = hi
        self.ewma = updated

    def judged(self, min_samples: int) -> bool:
        """Enough samples to be compared at all."""
        return self.samples >= min_samples and self.ewma is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ewma = f"{self.ewma:.2f}" if self.ewma is not None else "-"
        return f"<Level ~{ewma} n={self.samples}>"


class Streak:
    """Consecutive windows a condition has held, per key."""

    def __init__(self) -> None:
        self._runs: Dict[Hashable, int] = {}

    def hit(self, key: Hashable) -> int:
        """The condition held this window: extend the run, return its length."""
        run = self._runs[key] = self._runs.get(key, 0) + 1
        return run

    def reset(self, key: Hashable) -> None:
        self._runs[key] = 0


class Feeder:
    """The levels of one resource kind and how they are scored.

    Subclasses add the trace-point intake (``on_*`` methods the tracer
    subscribes), set ``factor`` and ``floor_ms``, and may override
    :meth:`fold` and :meth:`extra`. ``config`` carries the kind's
    ``min_samples``, ``suspect_windows`` and ``clear_windows``.
    """

    # A level is suspicious above this multiple of the best other level ...
    factor: float
    # ... and above this absolute floor.
    floor_ms = 0.0

    def __init__(self, tracer, config):
        self.config = config
        # resource -> node -> level
        self.levels: Dict[str, Dict[str, Level]] = {}
        # A feeder built alone reports to a signal of its own; a controller
        # joins several under one table with ``HealthSignal(a, b)``.
        self.signal = HealthSignal(self)
        tracer.subscribe(self)

    def level(self, node: str, resource: str) -> Level:
        try:
            return self.levels[resource][node]
        except KeyError:  # first sight; every later sample takes the line above
            return self.levels.setdefault(resource, {}).setdefault(node, Level())

    def fold(self, now: float) -> None:
        """Hook: samples only visible at window roll (censored readings)."""

    def extra(self, node: str, resource: str) -> float:
        """Hook: a second score component that needs no baseline."""
        return 0.0

    def scores(self, resource: str) -> Dict[str, float]:
        """Instantaneous badness per node: >= 1.0 means suspicious now.

        The relative component compares each judged level against the
        best (lowest) judged level among the *other* members of the
        group. With no other judged member there is no baseline — a
        level compared against itself pins the ratio to 1.0, so a
        uniformly slow sole member could never be suspected and the
        pinned value is noise either way — and the component is 0:
        "cannot judge relatively".
        """
        group = self.levels.get(resource, {})
        min_samples = self.config.min_samples
        judged = {
            node: level.ewma
            for node, level in group.items()
            if level.judged(min_samples)
        }
        best = sorted(judged.values())[:2]
        scores = {}
        for node in group:
            ewma = judged.get(node)
            if ewma is None:
                scores[node] = 0.0
                continue
            relative = 0.0
            if len(best) == 2 and ewma >= self.floor_ms:
                baseline = best[1] if ewma == best[0] else best[0]
                if baseline > 0:
                    relative = (ewma / baseline) / self.factor
            scores[node] = max(relative, self.extra(node, resource))
        return scores

    def roll_window(self, now: float) -> List[Transition]:
        return self.signal.roll_window(now)


class HealthSignal:
    """Windowed suspect/clear verdicts over every feeder's scores.

    A key must score >= 1.0 for ``suspect_windows`` consecutive windows
    to be flagged and < 1.0 for ``clear_windows`` consecutive windows to
    be cleared — jittery levels don't flap the verdict, while flapping
    *faults* (slow/healthy/slow...) still re-flag on every slow phase.
    ``roll_window(now)`` is driven externally (the mitigation controller
    schedules it on the virtual clock), so the signal stays a pure
    function of the trace stream and the roll times.
    """

    def __init__(self, *feeders: Feeder):
        self.feeders = feeders
        self.transitions: List[Transition] = []
        self._state: Dict[Suspect, PeerHealth] = {}
        self._bad_streak = Streak()
        self._good_streak = Streak()
        for feeder in feeders:
            feeder.signal = self

    def scores(self, resource: str) -> Dict[str, float]:
        for feeder in self.feeders:
            if resource in feeder.levels:
                return feeder.scores(resource)
        return {}

    def score(self, node: str, resource: str) -> float:
        return self.scores(resource).get(node, 0.0)

    def state(self, node: str, resource: str) -> PeerHealth:
        return self._state.get((node, resource), PeerHealth.HEALTHY)

    def suspects(self) -> List[Suspect]:
        """Every standing verdict, one resource blamed per symptom.

        A node whose disk is flagged gets exactly one ``(node, DISK)``
        tag: its inflated RTT-from-callers symptoms (slow acks are slow
        replies) are attributed to the disk, not the links — fixing the
        disk path fixes the cause, acting on the link would only hide
        it. Link verdicts on nodes with healthy disks stand.
        """
        flagged = sorted(
            key for key, state in self._state.items() if state == PeerHealth.SUSPECT
        )
        disks = {key.node for key in flagged if key.resource == DISK}
        return [
            key for key in flagged if key.resource == DISK or key.node not in disks
        ]

    def first_suspected_at(self, resource: Optional[str] = None) -> Optional[float]:
        """Earliest SUSPECT edge (of one resource, or of any)."""
        times = [
            edge.at
            for edge in self.transitions
            if edge.state == PeerHealth.SUSPECT and resource in (None, edge.resource)
        ]
        return min(times, default=None)

    def roll_window(self, now: float) -> List[Transition]:
        """Close one check window; returns the edges it caused.

        Feeders roll in the order given, each over its sorted keys.
        """
        edges: List[Transition] = []
        for feeder in self.feeders:
            feeder.fold(now)
            config = feeder.config
            for resource in sorted(feeder.levels):
                scores = feeder.scores(resource)
                for node in sorted(scores):
                    key, value = Suspect(node, resource), scores[node]
                    if value >= 1.0:
                        streak = self._bad_streak.hit(key)
                        self._good_streak.reset(key)
                        flipped = streak >= config.suspect_windows
                        target = PeerHealth.SUSPECT
                    else:
                        streak = self._good_streak.hit(key)
                        self._bad_streak.reset(key)
                        flipped = streak >= config.clear_windows
                        target = PeerHealth.HEALTHY
                    if flipped and self.state(node, resource) != target:
                        self._state[key] = target
                        edges.append(Transition(node, resource, target, value, now))
        self.transitions.extend(edges)
        return edges
