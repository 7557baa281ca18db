"""The traced run: cProfile self time and call counts, summed per layer.

Spans are recorded from outside the program, by the profiler, around every
call: a function's self time (``tottime``) is its duration minus the part
its callees cover. Each function belongs to the layer its source file
belongs to; a builtin's self time goes to the layer of whichever function
called it, so ``list.append`` inside ``storage/durable.py`` is storage
time. Call counts repeat exactly for a seed; seconds do not, and they are
profiler seconds (``trace.overhead_ratio`` says how inflated).
"""

from __future__ import annotations

import cProfile
import pstats
from typing import Callable, Dict, List, Tuple

LAYERS = [
    "sim.kernel",
    "sim.resources",
    "sim.metrics",
    "runtime",
    "events",
    "net.network",
    "net.rpc",
    "storage.durable",
    "storage.wal",
    "storage.kvstore",
    "raft",
    "trace",
    "detector",
    "hedging",
    "breaker",
    "fabric",
    "txn",
    "workload",
    "faults",
    "other",
]

# Modules that are a layer of their own; every other module of a package
# falls to the package's entry in _PACKAGE_LAYER.
_MODULE_LAYER = {
    "sim/kernel": "sim.kernel",
    "sim/resources": "sim.resources",
    "sim/metrics": "sim.metrics",
    "net/rpc": "net.rpc",
    "storage/durable": "storage.durable",
    "storage/wal": "storage.wal",
    "storage/kvstore": "storage.kvstore",
    "storage/entry_cache": "raft",  # the leader's in-memory entry cache
}
_PACKAGE_LAYER = {
    "runtime": "runtime",
    "events": "events",
    "net": "net.network",
    "raft": "raft",
    "trace": "trace",
    "detector": "detector",
    "hedging": "hedging",
    "breaker": "breaker",
    "fabric": "fabric",
    "txn": "txn",
    "workload": "workload",
    "faults": "faults",
}
# The benchmark's own load generator is workload code.
_OWN_FILES = {"openloop.py": "workload"}

FuncKey = Tuple[str, int, str]


def layer_of(filename: str) -> str:
    """The layer a source file belongs to (``other`` when none)."""
    path = filename.replace("\\", "/")
    marker = "/repro/"
    at = path.rfind(marker)
    if at < 0:
        return _OWN_FILES.get(path.rsplit("/", 1)[-1], "other")
    module = path[at + len(marker) :].removesuffix(".py")
    if module in _MODULE_LAYER:
        return _MODULE_LAYER[module]
    return _PACKAGE_LAYER.get(module.split("/", 1)[0], "other")


def _is_builtin(func: FuncKey) -> bool:
    return func[0] == "~"


def profile_call(fn: Callable[[], None]) -> Dict[FuncKey, tuple]:
    """Run ``fn`` under cProfile; returns the raw pstats table."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        fn()
    finally:
        profiler.disable()
    return pstats.Stats(profiler).stats


def summarize(stats: Dict[FuncKey, tuple]) -> dict:
    """Per-layer self time and calls, the layer matrix, the hottest functions."""
    self_s = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    matrix: Dict[str, Dict[str, float]] = {}
    hottest: List[Tuple[float, str, int]] = []
    for func, (_cc, ncalls, tottime, _cumtime, callers) in stats.items():
        if _is_builtin(func):
            # Self time of a builtin, split by the layer of each caller.
            charged = 0.0
            for caller, (_ccc, caller_calls, caller_tt, _cct) in callers.items():
                layer = layer_of(caller[0])
                self_s[layer] += caller_tt
                calls[layer] += caller_calls
                charged += caller_tt
            self_s["other"] += tottime - charged  # called from outside any profiled frame
            continue
        layer = layer_of(func[0])
        self_s[layer] += tottime
        calls[layer] += ncalls
        hottest.append((tottime, f"{_short(func[0])}:{func[1]}({func[2]})", ncalls))
        for caller, (_ccc, _calls, _tt, caller_cum) in callers.items():
            if _is_builtin(caller):
                continue
            caller_layer = layer_of(caller[0])
            if caller_layer != layer:
                row = matrix.setdefault(caller_layer, {})
                row[layer] = row.get(layer, 0.0) + caller_cum
    total = sum(self_s.values())
    hottest.sort(reverse=True)
    return {
        "total_self_s": total,
        "layers": {
            layer: {
                "self_s": self_s[layer],
                "self_frac": self_s[layer] / total if total else 0.0,
                "calls": calls[layer],
            }
            for layer in LAYERS
        },
        # Cumulative seconds spent beneath calls that cross from the row's
        # layer into the column's (recursion counts a frame once per entry).
        "caller_callee_s": matrix,
        "hottest": [
            {"function": name, "self_s": seconds, "calls": ncalls}
            for seconds, name, ncalls in hottest[:10]
        ],
    }


def _short(filename: str) -> str:
    path = filename.replace("\\", "/")
    at = path.rfind("/repro/")
    return path[at + 1 :] if at >= 0 else path.rsplit("/", 1)[-1]
