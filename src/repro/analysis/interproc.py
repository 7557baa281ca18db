"""Interprocedural event-shape dataflow: a shared fixpoint over the
whole-program call graph.

Shapes flow along three channels until nothing changes:

* **returns** — what a function's ``return`` statement resolves to, so
  ``rpc = self._h1(peer)`` sees through ``_h1 -> _h2 -> endpoint.call``
  no matter how many hops deep the event is built;
* **parameters** — shapes passed at resolved call sites bind to the
  callee's parameter names, so a helper that waits on an event handed in
  by its caller gets a real wait site (and DF001/DF002 can fire there);
* **``self.`` attributes** — ``self.commit_gate = QuorumEvent(...)`` in
  one method is visible to ``yield self.commit_gate.wait()`` in another.

The shape domain is a flat lattice per table entry: *bottom* (no shape
yet) -> one concrete :class:`EventShape` -> *conflict* (two structurally
different shapes met; resolves to unknown). Every entry therefore changes
at most twice, which bounds the fixpoint; ``MAX_PASSES`` is a belt-and-
braces cap on top (mutually-recursive helpers hit conflict or stabilize
well before it). Findings only ever come from *resolved* facts, so
conflict never produces a false positive — only a missed finding.

Alongside shapes, the fixpoint computes the ownership summaries DF004
needs: ``leaks_return`` (the function returns a freshly-constructed event
it never waits on, triggers, stores, or composes — dropping the call's
result orphans the event) and ``consumed_params`` (parameters the
function does consume, transitively through further resolved calls).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.callgraph import Program
from repro.analysis.model import (
    EVENT_CONSTRUCTORS,
    EventShape,
    FunctionScan,
    WaitExpr,
    WaitSite,
)
from repro.analysis.resolve import ShapeResolver, _call_name, callee_ref

MAX_PASSES = 12

_CONFLICT = object()

# Method calls on an event variable that constitute consumption: the event
# is waited on, triggered, composed, or cancelled — it has an owner.
_CONSUMING_METHODS = frozenset(
    {"wait", "trigger", "add", "cancel", "cancel_send", "set", "abort"}
)


class ShapeTables:
    """The shared fixpoint state: per-function return shapes, per-parameter
    incoming shapes, and per-class ``self.`` attribute shapes."""

    def __init__(self) -> None:
        self._returns: Dict[int, object] = {}
        self._params: Dict[Tuple[int, str], object] = {}
        self._attrs: Dict[Tuple[str, str, str], object] = {}
        self.changed = False
        self.passes = 0

    # -- joins ----------------------------------------------------------
    def _join(self, store: dict, key, shape: EventShape) -> None:
        old = store.get(key)
        if old is _CONFLICT:
            return
        if old is None:
            store[key] = shape.clone()
            self.changed = True
        elif old != shape:
            store[key] = _CONFLICT
            self.changed = True

    def join_return(self, func: FunctionScan, shape: EventShape) -> None:
        self._join(self._returns, id(func), shape)

    def join_param(self, func: FunctionScan, name: str, shape: EventShape) -> None:
        self._join(self._params, (id(func), name), shape)

    def join_attr(
        self, module: str, class_name: str, attr: str, shape: EventShape
    ) -> None:
        self._join(self._attrs, (module, class_name, attr), shape)

    # -- lookups --------------------------------------------------------
    @staticmethod
    def _get(store: dict, key) -> Optional[EventShape]:
        value = store.get(key)
        if value is None or value is _CONFLICT:
            return None
        return value

    def return_of(self, func: FunctionScan) -> Optional[EventShape]:
        return self._get(self._returns, id(func))

    def param_of(self, func: FunctionScan, name: str) -> Optional[EventShape]:
        return self._get(self._params, (id(func), name))

    def attr_of(
        self, module: str, class_name: str, attr: str
    ) -> Optional[EventShape]:
        return self._get(self._attrs, (module, class_name, attr))


class _Oracle:
    """Per-function adapter the :class:`ShapeResolver` consults."""

    def __init__(self, program: Program, tables: ShapeTables, func: FunctionScan):
        self.program = program
        self.tables = tables
        self.func = func

    def resolve_callee(self, call: ast.Call) -> Optional[FunctionScan]:
        ref = callee_ref(call.func)
        if ref is None:
            return None
        return self.program.resolve_name(self.func, ref[0], ref[1])

    def callee_return(self, call: ast.Call) -> Optional[EventShape]:
        callee = self.resolve_callee(call)
        if callee is None:
            return None
        shape = self.tables.return_of(callee)
        return shape.clone() if shape is not None else None

    def self_attr(self, attr: str) -> Optional[EventShape]:
        if self.func.class_name is None:
            return None
        shape = self.tables.attr_of(self.func.module, self.func.class_name, attr)
        return shape.clone() if shape is not None else None


class FunctionWalker:
    """Processes one function's statements in source order, resolving the
    event expression of every ``yield`` against the running environment
    (seeded with the fixpoint's parameter shapes) and feeding assignments
    to ``self.`` attributes and arguments at resolved call sites back
    into the tables."""

    def __init__(
        self,
        scan,
        func_scan: FunctionScan,
        func_node: ast.AST,
        program: Program,
        tables: ShapeTables,
    ):
        self.scan = scan
        self.func = func_scan
        self.program = program
        self.tables = tables
        self.oracle = _Oracle(program, tables, func_scan)
        self.resolver = ShapeResolver(oracle=self.oracle)
        for param in func_scan.param_names:
            incoming = tables.param_of(func_scan, param)
            if incoming is not None:
                self.resolver.env[param] = incoming.clone()
        self.return_shape: Optional[EventShape] = None
        # Fresh-event provenance for the DF004 ownership summary.
        self._fresh: Set[str] = set()
        self._returned_exprs: List[ast.expr] = []
        self.unresolved_yields = 0
        self._walk(func_node.body)
        self._summarize(func_node)

    # -- statement dispatch -------------------------------------------
    def _walk(self, stmts: List[ast.stmt]) -> None:
        for stmt in stmts:
            self._statement(stmt)

    def _statement(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return
        self._extract_yields(stmt)
        self._observe_calls(stmt)
        if isinstance(stmt, ast.Assign) and not self._has_yield(stmt.value):
            for target in stmt.targets:
                self._assign(target, stmt.value)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            if not self._has_yield(stmt.value):
                self._assign(stmt.target, stmt.value)
        elif isinstance(stmt, ast.Return) and stmt.value is not None:
            self._returned_exprs.append(stmt.value)
            resolved = self.resolver.resolve(stmt.value)
            if isinstance(resolved, EventShape):
                self.return_shape = resolved
                self.tables.join_return(self.func, resolved)
        # Recurse into nested blocks with the same environment (no branch
        # merging: protocol code is overwhelmingly straight-line per block).
        for block in ("body", "orelse", "finalbody"):
            children = getattr(stmt, block, None)
            if children and not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                self._walk(children)
        for handler in getattr(stmt, "handlers", []) or []:
            self._walk(handler.body)

    def _assign(self, target: ast.AST, value: ast.AST) -> None:
        self.resolver.assign(target, value)
        # ``self.x = <event>`` feeds the class-wide attribute table.
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
            and self.func.class_name is not None
        ):
            shape = self.resolver.resolve(value)
            if isinstance(shape, EventShape):
                self.tables.join_attr(
                    self.func.module, self.func.class_name, target.attr, shape
                )
        # Fresh-event provenance: a name bound to a constructor call or to
        # a call of a helper whose return leaks a fresh event.
        if isinstance(target, ast.Name) and isinstance(value, ast.Call):
            if self._is_fresh_event_call(value):
                self._fresh.add(target.id)
            else:
                self._fresh.discard(target.id)
        elif isinstance(target, ast.Name):
            self._fresh.discard(target.id)

    def _is_fresh_event_call(self, call: ast.Call) -> bool:
        name = _call_name(call.func)
        if name in EVENT_CONSTRUCTORS:
            return True
        callee = self.oracle.resolve_callee(call)
        return callee is not None and callee.leaks_return

    # -- helpers -------------------------------------------------------
    def _statement_expressions(self, stmt: ast.stmt):
        """Expression roots of a statement, excluding its nested blocks."""
        for name, value in ast.iter_fields(stmt):
            if name in ("body", "orelse", "finalbody", "handlers"):
                continue
            if isinstance(value, ast.expr):
                yield value
            elif isinstance(value, list):
                for item in value:
                    if isinstance(item, ast.expr):
                        yield item

    def _iter_exprs(self, stmt: ast.stmt):
        for root in self._statement_expressions(stmt):
            stack = [root]
            while stack:
                node = stack.pop()
                if isinstance(node, ast.Lambda):
                    continue
                yield node
                stack.extend(ast.iter_child_nodes(node))

    def _has_yield(self, expr: ast.AST) -> bool:
        return any(
            isinstance(node, (ast.Yield, ast.YieldFrom)) for node in ast.walk(expr)
        )

    def _extract_yields(self, stmt: ast.stmt) -> None:
        yields = [
            node
            for node in self._iter_exprs(stmt)
            if isinstance(node, ast.Yield) and node.value is not None
        ]
        for node in sorted(yields, key=lambda item: (item.lineno, item.col_offset)):
            resolved = self.resolver.resolve(node.value)
            if isinstance(resolved, WaitExpr):
                shape, has_timeout = resolved.shape, resolved.has_timeout
            elif isinstance(resolved, EventShape):
                shape, has_timeout = resolved, False  # ``yield event`` shorthand
            else:
                self.unresolved_yields += 1
                continue
            self.func.wait_sites.append(
                WaitSite(
                    path=self.scan.path,
                    module=self.scan.module,
                    qualname=self.func.qualname,
                    lineno=node.lineno,
                    col=node.col_offset,
                    shape=shape,
                    has_timeout=has_timeout,
                    dedicated=self.func.dedicated,
                    replica=self.func.replica,
                )
            )

    def _observe_calls(self, stmt: ast.stmt) -> None:
        calls = [node for node in self._iter_exprs(stmt) if isinstance(node, ast.Call)]
        for call in sorted(calls, key=lambda item: (item.lineno, item.col_offset)):
            self.resolver.observe_call(call)
            self._flow_arguments(call)

    def _flow_arguments(self, call: ast.Call) -> None:
        """Bind resolved argument shapes to the callee's parameters."""
        callee = self.oracle.resolve_callee(call)
        if callee is None:
            return
        params = list(callee.param_names)
        ref = callee_ref(call.func)
        if params and params[0] == "self" and ref is not None and ref[1]:
            params = params[1:]
        for index, arg in enumerate(call.args):
            if index >= len(params):
                break
            shape = self.resolver.resolve(arg)
            if isinstance(shape, EventShape):
                self.tables.join_param(callee, params[index], shape)
        for keyword in call.keywords:
            if keyword.arg is None or keyword.arg not in callee.param_names:
                continue
            shape = self.resolver.resolve(keyword.value)
            if isinstance(shape, EventShape):
                self.tables.join_param(callee, keyword.arg, shape)

    # ------------------------------------------------------------------
    # Ownership summaries (DF004)
    # ------------------------------------------------------------------
    def _summarize(self, func_node: ast.AST) -> None:
        consumed = self._consumed_names(func_node)
        params = set(self.func.param_names) - {"self"}
        consumed_params = params & consumed
        leaks = False
        for expr in self._returned_exprs:
            if isinstance(expr, ast.Call) and self._is_fresh_event_call(expr):
                leaks = True
            elif (
                isinstance(expr, ast.Name)
                and expr.id in self._fresh
                and expr.id not in consumed
            ):
                leaks = True
        if leaks != self.func.leaks_return:
            self.func.leaks_return = leaks
            self.tables.changed = True
        if consumed_params != self.func.consumed_params:
            self.func.consumed_params = set(consumed_params)
            self.tables.changed = True

    def _consumed_names(self, func_node: ast.AST) -> Set[str]:
        """Names this function consumes: waited on, triggered, composed,
        stored, yielded, or passed to a consuming (or opaque) callee."""
        from repro.analysis.scanner import _iter_own_nodes

        consumed: Set[str] = set()
        for node in _iter_own_nodes(func_node):
            if isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.attr in _CONSUMING_METHODS
                ):
                    consumed.add(func.value.id)
                callee = self.oracle.resolve_callee(node)
                for index, arg in enumerate(node.args):
                    if not isinstance(arg, ast.Name):
                        continue
                    if callee is None:
                        # Opaque target: assume it takes ownership. The
                        # linter flags orphans it is sure about, only.
                        consumed.add(arg.id)
                    else:
                        params = list(callee.param_names)
                        ref = callee_ref(node.func)
                        if params and params[0] == "self" and ref and ref[1]:
                            params = params[1:]
                        if (
                            index < len(params)
                            and params[index] in callee.consumed_params
                        ):
                            consumed.add(arg.id)
                for keyword in node.keywords:
                    if isinstance(keyword.value, ast.Name):
                        if callee is None or (
                            keyword.arg is not None
                            and keyword.arg in callee.consumed_params
                        ):
                            consumed.add(keyword.value.id)
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if not isinstance(target, (ast.Attribute, ast.Subscript)):
                        continue
                    value = node.value
                    if isinstance(value, ast.Name):
                        consumed.add(value.id)  # stored into self/container
            elif isinstance(node, ast.Yield) and isinstance(node.value, ast.Name):
                consumed.add(node.value.id)
        return consumed


# ---------------------------------------------------------------------------
# The shared fixpoint
# ---------------------------------------------------------------------------


def analyze(scans: Iterable["ModuleScan"]) -> Program:
    """Run the whole-program analysis over ``scans``; returns the call
    graph. Mutates the scans in place: wait sites, dedication, calling
    contexts, and interprocedural summaries all land on the
    :class:`FunctionScan` s."""
    scans = list(scans)
    program = Program(scans)
    tables = ShapeTables()
    by_path = {scan.path: scan for scan in scans}

    for _iteration in range(MAX_PASSES):
        tables.changed = False
        for func in program.functions:
            if func.node is None:
                continue
            func.wait_sites.clear()
            FunctionWalker(by_path[func.path], func, func.node, program, tables)
        tables.passes += 1
        if not tables.changed:
            break

    for func in program.functions:
        func.return_shape = tables.return_of(func)

    program.propagate_dedication()
    program.propagate_contexts()
    for scan in scans:
        scan.program = program
    return program
