"""depfast-lint driver: run the scan + rules, render text or JSON.

Exit codes follow the usual linter contract:

* ``0`` — clean (no active findings; suppressed findings don't count);
* ``1`` — findings: error-severity by default, *any* severity with
  ``--strict``;
* ``2`` — usage error (bad path, unparsable file).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.analysis.model import ERROR, RULES, Finding
from repro.analysis.rules import run_rules
from repro.analysis.scanner import ModuleScan, ScanError, scan_paths

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


@dataclass
class LintResult:
    scans: List[ModuleScan] = field(default_factory=list)
    findings: List[Finding] = field(default_factory=list)

    def active(self, strict: bool = False) -> List[Finding]:
        """Findings that count against the exit code."""
        return [
            finding
            for finding in self.findings
            if not finding.suppressed
            and not finding.baselined
            and (strict or finding.severity == ERROR)
        ]

    def exit_code(self, strict: bool = False) -> int:
        return EXIT_FINDINGS if self.active(strict) else EXIT_CLEAN


def run_lint(paths: Sequence[str]) -> LintResult:
    scans = scan_paths(paths)
    return LintResult(scans=scans, findings=run_rules(scans))


def _rel(path: str, root: Optional[str]) -> str:
    if root is None:
        return path
    try:
        return os.path.relpath(path, root)
    except ValueError:  # pragma: no cover - cross-drive on windows
        return path


def render_text(
    result: LintResult, strict: bool = False, root: Optional[str] = None
) -> str:
    lines: List[str] = []
    suppressed = 0
    for finding in result.findings:
        if finding.suppressed:
            suppressed += 1
            continue
        rule = RULES[finding.rule_id]
        tag = " [baselined]" if finding.baselined else ""
        lines.append(
            f"{_rel(finding.path, root)}:{finding.lineno}:{finding.col + 1}: "
            f"{finding.rule_id} [{finding.severity}]{tag} {rule.title}: "
            f"{finding.message} ({finding.qualname})"
        )
    active = result.active(strict)
    errors = sum(1 for finding in active if finding.severity == ERROR)
    warnings = len(
        [f for f in result.findings if not f.suppressed and not f.baselined]
    ) - errors
    baselined = sum(
        1 for f in result.findings if f.baselined and not f.suppressed
    )
    summary = (
        f"depfast-lint: {len(result.scans)} files, {errors} errors, "
        f"{warnings} warnings, {suppressed} suppressed"
    )
    if baselined:
        summary += f", {baselined} baselined"
    lines.append(summary)
    return "\n".join(lines)


def render_json(
    result: LintResult, strict: bool = False, root: Optional[str] = None
) -> str:
    payload = {
        "findings": [
            {
                "rule": finding.rule_id,
                "severity": finding.severity,
                "title": RULES[finding.rule_id].title,
                "path": _rel(finding.path, root),
                "line": finding.lineno,
                "col": finding.col + 1,
                "qualname": finding.qualname,
                "message": finding.message,
                "suppressed": finding.suppressed,
                "baselined": finding.baselined,
            }
            for finding in result.findings
        ],
        "summary": {
            "files": len(result.scans),
            "errors": sum(
                1
                for finding in result.findings
                if not finding.suppressed
                and not finding.baselined
                and finding.severity == ERROR
            ),
            "warnings": sum(
                1
                for finding in result.findings
                if not finding.suppressed
                and not finding.baselined
                and finding.severity != ERROR
            ),
            "suppressed": sum(1 for f in result.findings if f.suppressed),
            "baselined": sum(
                1
                for f in result.findings
                if f.baselined and not f.suppressed
            ),
            "strict": strict,
            "exit_code": result.exit_code(strict),
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def main(
    paths: Sequence[str],
    fmt: str = "text",
    strict: bool = False,
    root: Optional[str] = None,
    baseline: Optional[str] = None,
    write_baseline: Optional[str] = None,
) -> int:
    """CLI entry point; prints the report and returns the exit code."""
    from repro.analysis.baseline import (
        apply_baseline,
        load_baseline,
        render_baseline,
    )

    try:
        result = run_lint(list(paths))
    except ScanError as exc:
        print(f"depfast-lint: error: {exc}")
        return EXIT_USAGE
    if write_baseline is not None:
        with open(write_baseline, "w", encoding="utf-8") as handle:
            handle.write(render_baseline(result.findings, root=root) + "\n")
        print(
            f"depfast-lint: wrote baseline with "
            f"{len([f for f in result.findings if not f.suppressed])} "
            f"finding(s) to {write_baseline}"
        )
        return EXIT_CLEAN
    if baseline is not None:
        try:
            accepted = load_baseline(baseline)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"depfast-lint: error: cannot read baseline: {exc}")
            return EXIT_USAGE
        apply_baseline(result.findings, accepted, root=root)
    if fmt == "json":
        print(render_json(result, strict=strict, root=root))
    elif fmt == "sarif":
        from repro.analysis.sarif import render_sarif

        print(render_sarif(result, root=root))
    else:
        print(render_text(result, strict=strict, root=root))
    return result.exit_code(strict)
