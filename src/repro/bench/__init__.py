"""Experiment harness: the code that regenerates every table and figure.

Four modules correspond to the artifacts of the paper's evaluation:

* :mod:`repro.bench.table1` — verifies the six fault injections hit the
  resources Table 1 says they hit, with measured magnitudes;
* :mod:`repro.bench.figure1` — the three baseline RSMs, 3 nodes, one
  fail-slow follower: normalized throughput / avg latency / P99;
* :mod:`repro.bench.figure2` — the slowness propagation graph of a
  3-shard DepFastRaft deployment;
* :mod:`repro.bench.figure3` — DepFastRaft, 3 and 5 nodes, minority of
  fail-slow followers: absolute metrics and the 5%-drift check.

Beyond the paper, four matrices and a chaos campaign share one harness:

* :mod:`repro.bench.matrix` — the seeded cell prologue, windowed
  sampling, recovery search, SPG coupling sum, safety verdict, the
  on/off result, and ``matrices()``, the table the CLI and the
  benchmarks' profile switch are driven from;
* :mod:`repro.bench.mitigation`, :mod:`repro.bench.hedging`,
  :mod:`repro.bench.breaker`, :mod:`repro.bench.fabric` — the rows: what
  each matrix schedules, counts, renders and accepts;
* :mod:`repro.bench.chaos` — nemesis campaigns with safety verdicts;
  :mod:`repro.bench.determinism` — golden trace hashes.

The ``benchmarks/`` directory wraps these in pytest-benchmark harnesses;
:mod:`repro.bench.report` renders the same results as text tables.
"""

from repro.bench.experiments import ExperimentParams, run_rsm_experiment
from repro.bench.report import format_figure_table, format_normalized_table

__all__ = [
    "ExperimentParams",
    "format_figure_table",
    "format_normalized_table",
    "run_rsm_experiment",
]
