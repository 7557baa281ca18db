"""Runtime verification and trace analysis (§3.3).

Because every blocking point in DepFast is an event, the scheduler can
record *who waited on whom, for how long, under what quorum*. This package
turns those records into:

* the **slowness propagation graph** (SPG, Figure 2) — a node-granularity
  digraph whose edges are waiting-for relations, green for quorum waits
  and red for single-event waits (:mod:`repro.trace.spg`);
* a **fail-slow tolerance checker** that verifies the paper's code-level
  definition — "code that only uses QuorumEvent and has no other
  [inter-node] waiting points is fail-slow fault-tolerant code"
  (:mod:`repro.trace.verify`);
* **slowness attribution** and per-node **wait breakdowns** — how much wait
  time each peer contributed to a node, and which kinds and wait points a
  node's time went to (:mod:`repro.trace.analysis`).

Every one of these is a query over :meth:`repro.trace.records.WaitLog.by_shape`,
one pass that counts and sums a run's waits by shape (a few hundred rows for
~10^5 waits); none walks the waits itself.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.trace.analysis": (
            "busiest_waits", "node_wait_breakdown", "render_breakdown",
            "slowness_attribution", "wait_time_by_kind",
        ),
        "repro.trace.linearize": (
            "HistoryRecorder", "LinearizeResult", "OpRecord", "check_linearizable",
        ),
        "repro.trace.models": (
            "expected_quorum_wait", "impact_radius_table", "prob_quorum_delayed",
        ),
        "repro.trace.spg": ("SpgEdge", "build_spg", "render_spg"),
        "repro.trace.tracepoints": ("Tracer", "WaitRecord"),
        "repro.trace.verify": ("ToleranceReport", "check_fail_slow_tolerance"),
    },
)
