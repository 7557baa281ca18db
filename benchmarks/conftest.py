"""Shared helpers for the benchmark suite.

Profiles: set ``REPRO_BENCH_PROFILE=smoke`` for a fast shape-only pass
(shorter windows, fewer clients; crash-timing assertions are skipped).
The default ``paper`` profile reproduces the EXPERIMENTS.md numbers.
"""

from __future__ import annotations

import pathlib

from repro.bench.matrix import smoke_profile

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def paper_profile() -> bool:
    return not smoke_profile()


def save_result(name: str, text: str) -> None:
    """Persist a rendered table so EXPERIMENTS.md can reference it."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print()
    print(text)
