"""depfast-lint: static fail-slow tolerance analysis for coroutine code.

Turns the paper's §3.1 property — "code that only uses QuorumEvent and has
no other waiting points" — into a compile-time check over the AST, plus a
static SPG approximation that a differ cross-checks against the runtime
SPG built from trace records.

Analysis is whole-program by default: :func:`scan_paths` links every
scanned module into one :class:`Program` call graph and runs the
interprocedural event-shape fixpoint (:mod:`repro.analysis.interproc`)
over it, so shapes, dedication and replica contexts flow through any
number of call hops and across module boundaries.
"""

from repro.analysis.baseline import (
    apply_baseline,
    fingerprint,
    load_baseline,
    render_baseline,
)
from repro.analysis.callgraph import Program
from repro.analysis.interproc import analyze
from repro.analysis.lint import LintResult, main, render_json, render_text, run_lint
from repro.analysis.model import (
    ERROR,
    RULES,
    SANITIZER_RULES,
    WARNING,
    EventShape,
    Finding,
    WaitSite,
)
from repro.analysis.rules import run_rules
from repro.analysis.sarif import render_sarif
from repro.analysis.scanner import (
    ModuleScan,
    ScanError,
    parse_module,
    scan_module,
    scan_paths,
)
from repro.analysis.spgdiff import SpgDiff, diff_spg
from repro.analysis.static_spg import StaticEdge, StaticSpg, build_static_spg

__all__ = [
    "ERROR",
    "WARNING",
    "RULES",
    "SANITIZER_RULES",
    "EventShape",
    "Finding",
    "WaitSite",
    "LintResult",
    "ModuleScan",
    "Program",
    "ScanError",
    "SpgDiff",
    "StaticEdge",
    "StaticSpg",
    "analyze",
    "apply_baseline",
    "build_static_spg",
    "diff_spg",
    "fingerprint",
    "load_baseline",
    "main",
    "parse_module",
    "render_baseline",
    "render_json",
    "render_sarif",
    "render_text",
    "run_lint",
    "run_rules",
    "scan_module",
    "scan_paths",
]
