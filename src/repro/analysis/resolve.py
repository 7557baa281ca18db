"""Intra-function data-flow: resolve expressions to event shapes.

The resolver walks one function body in source order keeping a small
abstract environment ``name -> EventShape``. It understands the event
constructors of :mod:`repro.events`, the RPC layer's ``endpoint.call`` /
``QuorumCall`` idioms, ``.wait(timeout_ms=...)`` descriptors, quorum
``.add(child)`` accumulation, and one level of interprocedural return-shape
propagation (``rpc = self._send_append(...)`` resolves through the helper's
``return`` statement). Anything else resolves to ``UNKNOWN`` — the linter
only ever flags what it resolved with confidence, never what it could not.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Union

from repro.analysis.model import UNKNOWN, EventShape, WaitExpr, local_shape

Resolved = Union[EventShape, WaitExpr, object]  # object == UNKNOWN sentinel

# Constructor name -> event kind for basic events.
_BASIC_CONSTRUCTORS = {
    "Event": "event",
    "ValueEvent": "value",
    "RpcEvent": "rpc",
}
_LOCAL_CONSTRUCTORS = {
    "TimerEvent": "timer",
    "SharedIntEvent": "shared_int",
    "DiskEvent": "disk",
    "CpuEvent": "cpu",
    "NeverEvent": "never",
}
# Method names whose call yields a local (same-node) wait shape.
_LOCAL_METHODS = {"sleep", "compute", "timer", "sync", "read", "write", "fsync"}

_LOCAL_SOURCE_EXPRS = frozenset(
    {"None", "self.id", "self.node", "self.node_id", "self.node.node_id"}
)


def unparse(node: Optional[ast.AST]) -> str:
    if node is None:
        return "None"
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - malformed nodes
        return "<expr>"


def source_is_remote(expr: Optional[ast.AST]) -> bool:
    """Heuristic: does this ``source=`` expression denote another node?"""
    if expr is None:
        return False
    text = unparse(expr)
    return text not in _LOCAL_SOURCE_EXPRS


def _call_name(func: ast.AST) -> Optional[str]:
    """Terminal name of a call target: ``QuorumEvent`` / ``wait`` / ...."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _kwarg(call: ast.Call, name: str) -> Optional[ast.AST]:
    for keyword in call.keywords:
        if keyword.arg == name:
            return keyword.value
    return None


def _is_none(node: Optional[ast.AST]) -> bool:
    return node is None or (isinstance(node, ast.Constant) and node.value is None)


def exprs_equal(a: Optional[str], b: Optional[str]) -> bool:
    return a is not None and b is not None and a == b


def callee_ref(func: ast.AST) -> Optional[tuple]:
    """``(name, is_self)`` for call targets the call graph can resolve:
    bare names and ``self.method``. Anything else returns ``None``."""
    if isinstance(func, ast.Name):
        return (func.id, False)
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id == "self"
    ):
        return (func.attr, True)
    return None


class ShapeResolver:
    """Resolves expressions against an abstract environment.

    ``oracle`` is the interprocedural part: an object with
    ``callee_return(call)`` / ``self_attr(attr)`` hooks backed by the
    whole-program fixpoint tables, letting shapes flow through any number
    of call hops (``rpc = self._helper(...)``) and through ``self.``
    attributes. Without one, calls to helpers resolve to UNKNOWN.
    """

    def __init__(self, oracle: Optional[object] = None):
        self.env: Dict[str, EventShape] = {}
        self.oracle = oracle

    # ------------------------------------------------------------------
    # Statement effects
    # ------------------------------------------------------------------
    def assign(self, target: ast.AST, value: ast.AST) -> None:
        """Apply ``target = value`` to the environment."""
        shape = self.resolve(value)
        if isinstance(target, ast.Name):
            if isinstance(shape, EventShape):
                self.env[target.id] = shape
            else:
                self.env.pop(target.id, None)

    def observe_call(self, call: ast.Call) -> None:
        """Track quorum ``.add(child)`` accumulation on known variables."""
        func = call.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "add"
            and isinstance(func.value, ast.Name)
        ):
            held = self.env.get(func.value.id)
            if held is not None and held.kind in ("quorum", "and", "or"):
                held.added_children += len(call.args)
                for arg in call.args:
                    child = self.resolve(arg)
                    if isinstance(child, EventShape):
                        held.children.append(child)
                        if child.remote:
                            held.remote = True
                            held.sources.extend(child.sources)

    # ------------------------------------------------------------------
    # Expression resolution
    # ------------------------------------------------------------------
    def resolve(self, node: ast.AST) -> Resolved:
        if isinstance(node, ast.Name):
            return self.env.get(node.id, UNKNOWN)
        if isinstance(node, ast.Attribute):
            # ``call.event`` on a QuorumCall-like shape is the quorum itself.
            if node.attr == "event":
                inner = self.resolve(node.value)
                if isinstance(inner, EventShape) and inner.is_quorum():
                    return inner
            # ``self.attr`` reads resolve through the class-wide attribute
            # table when the interprocedural oracle is wired in.
            if (
                self.oracle is not None
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                shape = self.oracle.self_attr(node.attr)
                if shape is not None:
                    return shape
            return UNKNOWN
        if isinstance(node, ast.Await):
            return self.resolve(node.value)
        if isinstance(node, ast.Call):
            return self._resolve_call(node)
        return UNKNOWN

    def _resolve_call(self, call: ast.Call) -> Resolved:
        name = _call_name(call.func)
        if name is None:
            return UNKNOWN

        if name == "wait":
            return self._resolve_wait(call)
        if name in _BASIC_CONSTRUCTORS:
            return self._resolve_basic(call, _BASIC_CONSTRUCTORS[name])
        if name in _LOCAL_CONSTRUCTORS:
            return local_shape(_LOCAL_CONSTRUCTORS[name])
        if name == "QuorumEvent":
            return self._resolve_quorum_event(call)
        if name == "QuorumCall":
            return self._resolve_quorum_call(call)
        if name in ("AndEvent", "OrEvent"):
            return self._resolve_compound(call, "and" if name == "AndEvent" else "or")
        if name == "call" and call.args:
            # endpoint.call(target, method, ...) — an outbound RPC.
            target = unparse(call.args[0])
            return EventShape(kind="rpc", sources=[target], remote=True)
        if name in _LOCAL_METHODS:
            return local_shape()
        # Interprocedural propagation: self._helper(...) or module_fn(...)
        # whose (fixpoint) return summary resolved to a shape. The oracle
        # sees through any number of hops and across modules.
        if self.oracle is not None:
            returned = self.oracle.callee_return(call)
            if returned is not None:
                return returned
        return UNKNOWN

    def _resolve_wait(self, call: ast.Call) -> Resolved:
        assert isinstance(call.func, ast.Attribute)
        receiver = self.resolve(call.func.value)
        if not isinstance(receiver, EventShape):
            return UNKNOWN
        timeout = _kwarg(call, "timeout_ms")
        if timeout is None and call.args:
            timeout = call.args[0]
        return WaitExpr(shape=receiver, has_timeout=not _is_none(timeout))

    def _resolve_basic(self, call: ast.Call, kind: str) -> EventShape:
        if kind == "rpc":
            # RpcEvent(method, to_node) — to_node is positional arg 1 or kw.
            target = _kwarg(call, "to_node")
            if target is None and len(call.args) > 1:
                target = call.args[1]
            return EventShape(
                kind=kind,
                sources=[unparse(target)] if target is not None else [],
                remote=target is not None,
            )
        source = _kwarg(call, "source")
        if source is None or _is_none(source):
            return EventShape(kind=kind, remote=False)
        return EventShape(
            kind=kind, sources=[unparse(source)], remote=source_is_remote(source)
        )

    def _resolve_quorum_event(self, call: ast.Call) -> EventShape:
        k = _kwarg(call, "quorum")
        if k is None and call.args:
            k = call.args[0]
        n = _kwarg(call, "n_total")
        if n is None and len(call.args) > 1:
            n = call.args[1]
        k_expr = unparse(k) if k is not None else None
        n_expr = unparse(n) if n is not None and not _is_none(n) else None
        return EventShape(
            kind="quorum",
            k_expr=k_expr,
            n_expr=n_expr,
            tight=_statically_tight(k, n, k_expr, n_expr),
            remote=False,  # children decide; .add() calls update this
        )

    def _resolve_quorum_call(self, call: ast.Call) -> EventShape:
        # QuorumCall(endpoint, targets, method, ..., quorum=k): a broadcast
        # whose n is the target count.
        targets = call.args[1] if len(call.args) > 1 else _kwarg(call, "targets")
        k = _kwarg(call, "quorum")
        k_expr = unparse(k) if k is not None else "1"
        n_expr = f"len({unparse(targets)})" if targets is not None else None
        tight = exprs_equal(k_expr, n_expr)
        if not tight and k is not None and targets is not None:
            tight = _constant_eq_len(k, targets)
        return EventShape(
            kind="quorum",
            sources=[unparse(targets)] if targets is not None else [],
            remote=True,
            k_expr=k_expr,
            n_expr=n_expr,
            tight=tight,
        )

    def _resolve_compound(self, call: ast.Call, kind: str) -> EventShape:
        children: List[EventShape] = []
        sources: List[str] = []
        remote = False
        for arg in call.args:
            child = self.resolve(arg)
            if isinstance(child, EventShape):
                children.append(child)
                if child.remote:
                    remote = True
                    sources.extend(child.sources)
            else:
                children.append(EventShape(kind="unknown"))
        return EventShape(kind=kind, children=children, sources=sources, remote=remote)


def _statically_tight(
    k: Optional[ast.AST],
    n: Optional[ast.AST],
    k_expr: Optional[str],
    n_expr: Optional[str],
) -> Optional[bool]:
    """True when ``k == n`` is certain, False when ``k < n`` is plausible,
    None when nothing is known (no n at construction time)."""
    if n is None or n_expr is None:
        return None
    if exprs_equal(k_expr, n_expr):
        return True
    if (
        isinstance(k, ast.Constant)
        and isinstance(n, ast.Constant)
        and isinstance(k.value, int)
        and isinstance(n.value, int)
    ):
        return k.value >= n.value
    return False


def _constant_eq_len(k: ast.AST, targets: ast.AST) -> bool:
    """``quorum=len(peers)`` over ``targets=peers`` — tight by construction."""
    return (
        isinstance(k, ast.Call)
        and _call_name(k.func) == "len"
        and len(k.args) == 1
        and unparse(k.args[0]) == unparse(targets)
    )
