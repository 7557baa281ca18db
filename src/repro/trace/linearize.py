"""History recording and linearizability checking for chaos runs.

The chaos harness records every *logical* client operation — one record
per operation across all its retries, because with client sessions the
retries are one request — as an interval [invoked_at, returned_at] plus
the observed result. :func:`check_linearizable` then decides, per key,
whether some total order of the operations (i) respects real-time order
(an op that returned before another was invoked must precede it) and
(ii) matches sequential register semantics (every get sees the latest
preceding put/delete).

The algorithm is the Wing–Gong linearizability test with the
Lowe-style memoization on (remaining-operation set, register value):
depth-first search over "which minimal operation linearizes next",
pruning states already proven dead. Histories are partitioned by key
first — operations on different keys commute, so checking keys
independently is sound and turns one exponential problem into many tiny
ones.

Operations that never returned (client timed out / crashed) are
*indeterminate*: a write may have taken effect or not, so the checker
may linearize it at any point after its invocation or drop it entirely.
Determinate operations must all be linearized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple


class _Absent:
    """Register value for 'key not present' (distinct from stored None)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<absent>"


ABSENT = _Absent()


@dataclass(slots=True)
class OpRecord:
    """One logical client operation, spanning all of its retries."""

    op_id: int
    client: str
    kind: str  # "put" | "get" | "delete"
    key: str
    value: Any  # payload for put; ignored otherwise
    invoked_at: float
    returned_at: float = math.inf  # inf ⇒ indeterminate (never returned)
    result: Any = None  # observed reply for get/delete

    @property
    def determinate(self) -> bool:
        return self.returned_at != math.inf


class HistoryRecorder:
    """Collects the concurrent history a chaos run produces.

    Clients call :meth:`invoke` when a logical operation starts (before
    the first attempt), then exactly one of :meth:`complete` (a reply
    was returned to the caller) or :meth:`abandon` (gave up; effect
    unknown). Unfinished operations at the end of a run are treated as
    indeterminate, same as abandoned ones.
    """

    def __init__(self):
        self._ops: List[OpRecord] = []
        self.invoked = 0
        self.completed = 0
        self.abandoned = 0

    def invoke(self, client: str, op: Tuple, now: float) -> Optional[int]:
        kind = op[0]
        if kind == "noop":
            return None  # no observable effect; nothing to check
        key = op[1]
        value = op[2] if kind == "put" else None
        record = OpRecord(
            op_id=len(self._ops),
            client=client,
            kind=kind,
            key=key,
            value=value,
            invoked_at=now,
        )
        self._ops.append(record)
        self.invoked += 1
        return record.op_id

    def complete(self, op_id: Optional[int], result: Any, now: float) -> None:
        if op_id is None:
            return
        record = self._ops[op_id]
        record.returned_at = now
        record.result = result
        self.completed += 1

    def abandon(self, op_id: Optional[int]) -> None:
        if op_id is None:
            return
        self.abandoned += 1  # stays indeterminate (returned_at == inf)

    @property
    def operations(self) -> List[OpRecord]:
        return list(self._ops)

    def by_key(self) -> Dict[str, List[OpRecord]]:
        keys: Dict[str, List[OpRecord]] = {}
        for record in self._ops:
            keys.setdefault(record.key, []).append(record)
        return keys


@dataclass
class LinearizeResult:
    """Verdict for one history."""

    ok: bool
    checked_ops: int
    indeterminate_ops: int
    keys_checked: int
    failed_key: Optional[str] = None
    failed_ops: List[OpRecord] = field(default_factory=list)
    states_explored: int = 0

    def __bool__(self) -> bool:
        return self.ok


def check_linearizable(
    history, max_states_per_key: int = 2_000_000
) -> LinearizeResult:
    """Check a history (a :class:`HistoryRecorder` or list of OpRecords).

    Raises RuntimeError if a key's search exceeds ``max_states_per_key``
    memoized states — better to fail loudly than to pass vacuously.
    """
    if isinstance(history, HistoryRecorder):
        operations = history.operations
    else:
        operations = list(history)
    keys: Dict[str, List[OpRecord]] = {}
    for record in operations:
        keys.setdefault(record.key, []).append(record)
    total_states = 0
    indeterminate = sum(1 for record in operations if not record.determinate)
    for key in sorted(keys):
        ops = sorted(keys[key], key=lambda r: (r.invoked_at, r.op_id))
        ops = _prune_indeterminate(ops)
        ok, states = _check_key(ops, max_states_per_key)
        total_states += states
        if not ok:
            return LinearizeResult(
                ok=False,
                checked_ops=len(operations),
                indeterminate_ops=indeterminate,
                keys_checked=len(keys),
                failed_key=key,
                failed_ops=ops,
                states_explored=total_states,
            )
    return LinearizeResult(
        ok=True,
        checked_ops=len(operations),
        indeterminate_ops=indeterminate,
        keys_checked=len(keys),
        states_explored=total_states,
    )


def _prune_indeterminate(ops: List[OpRecord]) -> List[OpRecord]:
    """Drop indeterminate ops whose effect can never be *required*.

    "Never applied" is always a legal linearization choice for an op that
    never returned, and puts/deletes have no preconditions, so keeping an
    indeterminate op in the search only matters when applying its effect
    might be the explanation for some determinate result. A determinate op
    can only observe an effect linearized before its own point, i.e. one
    whose invocation precedes the observer's return. Everything else is
    dead weight — and each such op doubles the search frontier, because it
    is concurrent with the entire rest of the history.
    """
    kept: List[OpRecord] = []
    for op in ops:
        if op.determinate:
            kept.append(op)
            continue
        if op.kind == "get":
            continue  # no observable result; dropping is always legal
        needed = op.value if op.kind == "put" else None  # delete ⇒ ABSENT ⇒ None
        if any(
            other.determinate
            and other.kind in ("get", "delete")
            and other.result == needed
            and other.returned_at > op.invoked_at
            for other in ops
        ):
            kept.append(op)
    return kept


def _check_key(ops: List[OpRecord], max_states: int) -> Tuple[bool, int]:
    """Wing–Gong search over one key's operations. Returns (ok, states)."""
    if not ops:
        return True, 0
    all_ids = frozenset(range(len(ops)))
    seen = set()
    # Stack of (remaining ids, register value). ABSENT is unhashable-safe:
    # it is a singleton, identity-hashed.
    stack: List[Tuple[frozenset, Any]] = [(all_ids, ABSENT)]
    while stack:
        state = stack.pop()
        remaining, value = state
        if not remaining:
            return True, len(seen)
        if state in seen:
            continue
        seen.add(state)
        if len(seen) > max_states:
            raise RuntimeError(
                f"linearizability search exceeded {max_states} states "
                f"for a {len(ops)}-op key history"
            )
        # An op may linearize first iff nothing else still pending returned
        # before it was invoked (real-time order). Compute the two smallest
        # return times so each op can exclude itself.
        min1 = math.inf
        min1_id = -1
        min2 = math.inf
        for op_id in remaining:
            returned = ops[op_id].returned_at
            if returned < min1:
                min2 = min1
                min1 = returned
                min1_id = op_id
            elif returned < min2:
                min2 = returned
        for op_id in remaining:
            op = ops[op_id]
            bound = min2 if op_id == min1_id else min1
            if op.invoked_at > bound:
                continue  # some pending op returned before this was invoked
            rest = remaining - {op_id}
            if not op.determinate:
                # Never returned: may have taken effect (apply branch below
                # for writes) or not (drop branch — same for reads, whose
                # result was never observed).
                stack.append((rest, value))
                if op.kind == "put":
                    stack.append((rest, op.value))
                elif op.kind == "delete":
                    stack.append((rest, ABSENT))
                continue
            if op.kind == "get":
                expected = None if value is ABSENT else value
                if op.result == expected:
                    stack.append((rest, value))
            elif op.kind == "put":
                stack.append((rest, op.value))
            elif op.kind == "delete":
                # KvStore's delete returns the popped value: check it too.
                expected = None if value is ABSENT else value
                if op.result == expected:
                    stack.append((rest, ABSENT))
            else:  # pragma: no cover - recorder only emits the three kinds
                raise ValueError(f"unknown op kind {op.kind!r}")
    return False, len(seen)
