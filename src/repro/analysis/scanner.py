"""AST scanner: parse modules and extract the structural facts the
whole-program analysis runs on.

One :class:`ModuleScan` per file. The scanner

* finds every function and whether it is a *coroutine* (contains a
  ``yield``), mirroring how the runtime spawns generator coroutines;
* detects **replica-group classes** — classes that guard group membership
  (``if node_id not in group: raise``) or compute a ``self.peers`` list —
  which is where the paper's §3.1 quorum-only property applies;
* detects **coordinator classes** — classes that own a shard map
  (``self.shard_map = ...``), whose waits span replica groups (2PC
  coordinators, fabric routers) and get cross-group SPG scope;
* records every resolvable **call site** (``self.method`` dispatch and
  bare-name calls) so :mod:`repro.analysis.callgraph` can link the
  program together;
* parses ``# depfast: allow(DFnnn)`` / ``# depfast: allow-file(DFnnn)``
  suppression comments.

Shape resolution itself — wait sites, dedication, interprocedural
summaries — happens in :mod:`repro.analysis.interproc`, which
:func:`scan_module` / :func:`scan_paths` invoke so a freshly-scanned
module always carries its wait sites.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set

from repro.analysis.model import (
    CallSite,
    FunctionScan,
    Suppressions,
)

_ALLOW_RE = re.compile(r"#\s*depfast:\s*(allow|allow-file)\(([^)]*)\)")
_RULE_SPLIT_RE = re.compile(r"[,\s]+")


@dataclass
class ModuleScan:
    """Everything the analysis knows about one source file."""

    path: str
    module: str
    tree: ast.Module
    source_lines: List[str]
    functions: List[FunctionScan] = field(default_factory=list)
    suppressions: Suppressions = field(default_factory=Suppressions)
    # qualname -> FunctionScan for call-graph lookups.
    by_name: Dict[str, FunctionScan] = field(default_factory=dict)
    # The Program this scan was last analyzed under (set by analyze()).
    program: Optional[object] = None


class ScanError(RuntimeError):
    """Raised when a path cannot be scanned (missing, unparsable)."""


# ---------------------------------------------------------------------------
# Path collection
# ---------------------------------------------------------------------------


def collect_files(paths: Iterable[str]) -> List[str]:
    files: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames if d not in ("__pycache__", ".git")
                )
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        files.append(os.path.join(dirpath, filename))
        elif os.path.isfile(path) and path.endswith(".py"):
            files.append(path)
        else:
            raise ScanError(f"not a python file or directory: {path}")
    # Whole-program results must not depend on argument order: the same
    # file set always analyzes in the same sequence.
    seen: Set[str] = set()
    ordered: List[str] = []
    for file in sorted(files):
        if file not in seen:
            seen.add(file)
            ordered.append(file)
    return ordered


def _module_name(path: str) -> str:
    parts = os.path.normpath(path).split(os.sep)
    if "src" in parts:
        parts = parts[parts.index("src") + 1 :]
    name = "/".join(parts)
    name = name[:-3] if name.endswith(".py") else name
    return name.replace("/", ".").removesuffix(".__init__")


# ---------------------------------------------------------------------------
# Suppression comments
# ---------------------------------------------------------------------------


def parse_suppressions(source_lines: List[str]) -> Suppressions:
    suppressions = Suppressions()
    for index, line in enumerate(source_lines, start=1):
        match = _ALLOW_RE.search(line)
        if not match:
            continue
        rules = {
            rule.strip().upper()
            for rule in _RULE_SPLIT_RE.split(match.group(2))
            if rule.strip()
        }
        if match.group(1) == "allow-file":
            suppressions.file_rules |= rules
            continue
        suppressions.line_rules.setdefault(index, set()).update(rules)
        if line.lstrip().startswith("#"):
            # A standalone comment suppresses the next *code* line, skipping
            # the rest of the comment block (justifications span lines).
            target = index + 1
            while target <= len(source_lines):
                stripped = source_lines[target - 1].strip()
                if stripped and not stripped.startswith("#"):
                    break
                target += 1
            if target <= len(source_lines):
                suppressions.line_rules.setdefault(target, set()).update(rules)
    return suppressions


# ---------------------------------------------------------------------------
# Class / function discovery
# ---------------------------------------------------------------------------


def _contains_yield(func: ast.AST) -> bool:
    for node in ast.walk(func):
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            if _owner_function(func, node):
                return True
    return False


def _iter_own_nodes(func: ast.AST):
    """Walk a function's AST without descending into nested functions."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _owner_function(func: ast.AST, target: ast.AST) -> bool:
    return any(node is target for node in _iter_own_nodes(func))


def _class_is_replica(cls: ast.ClassDef) -> bool:
    """Replica-group code: a class whose constructor asserts membership in
    a group list, or which derives a ``self.peers`` list."""
    for node in ast.walk(cls):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and target.attr == "peers"
                ):
                    return True
        if isinstance(node, ast.If) and isinstance(node.test, ast.Compare):
            if any(isinstance(op, ast.NotIn) for op in node.test.ops) and any(
                isinstance(child, ast.Raise) for child in node.body
            ):
                return True
    return False


def _class_is_coordinator(cls: ast.ClassDef) -> bool:
    """Coordinator code: a class that owns a shard map (``self.shard_map
    = ...``). Its waits fan out across replica groups — 2PC coordinators
    and fabric routers — so the static SPG gives them cross-group scope."""
    for node in ast.walk(cls):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and target.attr == "shard_map"
                ):
                    return True
    return False


def _call_sites(func: ast.AST) -> List[CallSite]:
    """Resolvable call sites: ``self.method(...)`` and bare ``name(...)``,
    in deterministic source order."""
    sites: List[CallSite] = []
    for node in _iter_own_nodes(func):
        if not isinstance(node, ast.Call):
            continue
        target = node.func
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            sites.append(
                CallSite(target.attr, True, node.lineno, node.col_offset)
            )
        elif isinstance(target, ast.Name):
            sites.append(
                CallSite(target.id, False, node.lineno, node.col_offset)
            )
    sites.sort(key=lambda site: (site.lineno, site.col, site.name))
    return sites


def _param_names(node: ast.AST) -> List[str]:
    args = node.args
    names = [a.arg for a in args.posonlyargs] + [a.arg for a in args.args]
    names += [a.arg for a in args.kwonlyargs]
    return names


# ---------------------------------------------------------------------------
# Module scan
# ---------------------------------------------------------------------------


def parse_module(path: str) -> ModuleScan:
    """Parse one file and extract structure; no shape analysis yet."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        tree = ast.parse(source, filename=path)
    except (OSError, SyntaxError) as exc:
        raise ScanError(f"cannot scan {path}: {exc}") from exc
    source_lines = source.splitlines()
    scan = ModuleScan(
        path=path,
        module=_module_name(path),
        tree=tree,
        source_lines=source_lines,
        suppressions=parse_suppressions(source_lines),
    )

    def visit_body(
        body,
        class_name: Optional[str],
        replica: bool,
        coordinator: bool,
        prefix: str,
    ):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit_body(
                    node.body,
                    node.name,
                    _class_is_replica(node),
                    _class_is_coordinator(node),
                    f"{prefix}{node.name}.",
                )
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                func_scan = FunctionScan(
                    qualname=f"{prefix}{node.name}",
                    name=node.name,
                    lineno=node.lineno,
                    end_lineno=getattr(node, "end_lineno", node.lineno),
                    is_coroutine=_contains_yield(node),
                    class_name=class_name,
                    replica=replica,
                    coordinator=coordinator,
                    callees={site.name for site in _call_sites(node)},
                    module=scan.module,
                    path=scan.path,
                    node=node,
                    param_names=_param_names(node),
                    call_sites=_call_sites(node),
                )
                scan.functions.append(func_scan)
                scan.by_name[func_scan.name] = func_scan
                visit_body(
                    node.body, class_name, replica, coordinator,
                    f"{prefix}{node.name}.",
                )

    visit_body(tree.body, None, False, False, "")

    # def-line suppressions extend over the whole function body.
    for func_scan in scan.functions:
        rules = scan.suppressions.line_rules.get(func_scan.lineno)
        if rules:
            scan.suppressions.span_rules.append(
                (func_scan.lineno, func_scan.end_lineno, set(rules))
            )
    return scan


def scan_module(path: str) -> ModuleScan:
    """Parse + analyze one file as its own single-module program."""
    from repro.analysis.interproc import analyze

    scan = parse_module(path)
    analyze([scan])
    return scan


def scan_paths(paths: Iterable[str]) -> List[ModuleScan]:
    """Parse + analyze a file set as one whole program."""
    from repro.analysis.interproc import analyze

    scans = [parse_module(path) for path in collect_files(paths)]
    analyze(scans)
    return scans
