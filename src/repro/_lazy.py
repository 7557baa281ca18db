"""Lazy package exports (PEP 562).

A package lists what it re-exports as one ``{module: names}`` table. A name's
module is imported the first time the name is read, so importing a package
costs only the submodules its caller uses: ``import repro`` no longer compiles
the baselines, Paxos or the trace checkers for a run that touches none of them.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    package: str, table: Dict[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """``__all__``, ``__getattr__`` and ``__dir__`` for ``package`` from ``table``.

    ``table`` maps a module to the names the package re-exports from it. A
    name read once is bound in the package, so later reads skip the hook.
    """
    origin = {name: module for module, names in table.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        try:
            module = origin[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = namespace[name] = getattr(import_module(module), name)
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin))

    return sorted(origin), __getattr__, __dir__
