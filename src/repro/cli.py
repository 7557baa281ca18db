"""Command-line interface: regenerate any paper artifact from the shell.

Usage::

    python -m repro table1
    python -m repro figure1 [--smoke]
    python -m repro figure2
    python -m repro figure3 [--smoke]
    python -m repro experiment --system depfast --fault cpu_slow
    python -m repro chaos [--seed N] [--seeds 20] [--group-sizes 3 5]
    python -m repro mitigate [--smoke] [--seed N] [--faults cpu_slow ...]
    python -m repro hedge [--smoke] [--seed N] [--faults cpu_slow ...]
    python -m repro breaker [--smoke] [--seed N] [--faults disk_contention ...]
    python -m repro fabric [--smoke] [--seed N] [--faults cpu_slow ...]
    python -m repro lint [paths] [--format text|json] [--strict]

``mitigate``, ``hedge``, ``breaker`` and ``fabric`` are the rows of
:func:`repro.bench.matrix.matrices`: one parser stanza and one handler
serve all four (``mitigate`` adds ``--no-flapping``, ``breaker``
``--no-chaos``).

``--smoke`` runs a shortened profile (shapes, not magnitudes); the default
is the full paper profile used by EXPERIMENTS.md. ``lint`` runs the static
fail-slow tolerance analysis (depfast-lint) over coroutine code.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.bench.experiments import ExperimentParams, SYSTEMS, run_rsm_experiment
from repro.bench.matrix import matrices
from repro.faults.catalog import fault_names


def _params(smoke: bool) -> ExperimentParams:
    params = ExperimentParams()
    return params.scaled_for_smoke() if smoke else params


def _cmd_table1(_args) -> int:
    from repro.bench.table1 import render_table1, run_table1

    print(render_table1(run_table1()))
    return 0


def _cmd_figure1(args) -> int:
    from repro.bench.figure1 import render_figure1, run_figure1

    print(render_figure1(run_figure1(_params(args.smoke))))
    return 0


def _cmd_figure2(_args) -> int:
    from repro.bench.figure2 import render_figure2, run_figure2

    print(render_figure2(run_figure2()))
    return 0


def _cmd_figure3(args) -> int:
    from repro.bench.figure3 import render_figure3, run_figure3

    print(render_figure3(run_figure3(_params(args.smoke))))
    return 0


def _cmd_experiment(args) -> int:
    report = run_rsm_experiment(args.system, args.fault, _params(args.smoke))
    crash = f"  CRASHED: {', '.join(report.crashed_nodes)}" if report.crashed else ""
    print(
        f"{args.system} under {args.fault}: "
        f"{report.throughput_ops_s:.0f} ops/s, "
        f"avg {report.avg_latency_ms:.2f} ms, "
        f"p99 {report.p99_latency_ms:.2f} ms, "
        f"{report.errors} errors{crash}"
    )
    return 0


def _cmd_chaos(args) -> int:
    from repro.bench.chaos import (
        ChaosParams,
        render_chaos_campaign,
        render_chaos_run,
        run_chaos_campaign,
    )

    if any(size < 3 or size % 2 == 0 for size in args.group_sizes):
        print("chaos: group sizes must be odd and >= 3 (Raft majorities)")
        return 2
    params = ChaosParams(events=args.events, majority_guard=not args.no_guard)
    seeds = range(args.seeds) if args.seed is None else [args.seed]
    campaign = run_chaos_campaign(seeds, group_sizes=args.group_sizes, params=params)
    if args.seed is None:
        print(render_chaos_campaign(campaign, verbose=args.verbose))
    else:
        for run in campaign.runs:
            print(render_chaos_run(run, verbose=args.verbose))
    return 0 if campaign.ok else 1


def _cmd_matrix(args) -> int:
    """Every matrix subcommand: validate, pick the profile, run, render."""
    row = args.matrix
    unknown = [fault for fault in args.faults if fault not in row.faults]
    if unknown:
        print(
            f"{row.name}: unknown fault(s) {', '.join(unknown)} "
            f"(choose from {', '.join(row.faults)})"
        )
        return 2
    params, faults = row.profile(args.smoke)
    if args.smoke and row.smoke_gate is not None:
        passed, line = row.smoke_gate(args.seed)
        print(line)
        if not passed:
            return 1
    switches = {kwarg: getattr(args, kwarg) for _flag, kwarg, _help in row.flags}
    result = row.run(args.faults or faults, args.seed, params, **switches)
    print(row.render(result))
    return 0 if result.ok else 1


def _cmd_lint(args) -> int:
    from repro.analysis.lint import main as lint_main

    return lint_main(
        args.paths,
        fmt=args.format,
        strict=args.strict,
        baseline=args.baseline,
        write_baseline=args.write_baseline,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DepFast reproduction: regenerate the paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="Table 1: fault catalog with measured effects").set_defaults(
        func=_cmd_table1
    )

    fig1 = sub.add_parser("figure1", help="Figure 1: baseline RSMs under fail-slow followers")
    fig1.add_argument("--smoke", action="store_true", help="short shape-only profile")
    fig1.set_defaults(func=_cmd_figure1)

    sub.add_parser("figure2", help="Figure 2: slowness propagation graph").set_defaults(
        func=_cmd_figure2
    )

    fig3 = sub.add_parser("figure3", help="Figure 3: DepFastRaft fail-slow tolerance")
    fig3.add_argument("--smoke", action="store_true", help="short shape-only profile")
    fig3.set_defaults(func=_cmd_figure3)

    exp = sub.add_parser("experiment", help="one (system, fault) cell")
    exp.add_argument("--system", choices=SYSTEMS, required=True)
    exp.add_argument("--fault", choices=fault_names(include_baseline=True), default="none")
    exp.add_argument("--smoke", action="store_true")
    exp.set_defaults(func=_cmd_experiment)

    chaos = sub.add_parser(
        "chaos", help="chaos campaign: nemesis faults + linearizability check"
    )
    chaos.add_argument(
        "--seed", type=int, default=None, help="run exactly one seed (replay/debug)"
    )
    chaos.add_argument("--seeds", type=int, default=20, help="number of seeds (campaign)")
    chaos.add_argument(
        "--group-sizes",
        type=int,
        nargs="+",
        default=[3, 5],
        help="Raft group sizes to run each seed against",
    )
    chaos.add_argument("--events", type=int, default=10, help="nemesis events per run")
    chaos.add_argument(
        "--no-guard",
        action="store_true",
        help="disable the majority-healthy guardrail (expect unavailability)",
    )
    chaos.add_argument("--verbose", action="store_true", help="print nemesis logs")
    chaos.set_defaults(func=_cmd_chaos)

    for row in matrices().values():
        matrix = sub.add_parser(row.name, help=row.help)
        matrix.add_argument("--seed", type=int, default=7)
        matrix.add_argument("--smoke", action="store_true", help="shortened CI profile")
        matrix.add_argument(
            "--faults",
            nargs="*",
            default=[],
            help=f"subset of {', '.join(row.faults)} (default: the profile's list)",
        )
        for flag, kwarg, text in row.flags:
            matrix.add_argument(flag, dest=kwarg, action="store_false", help=text)
        matrix.set_defaults(func=_cmd_matrix, matrix=row)

    lint = sub.add_parser(
        "lint", help="static fail-slow tolerance analysis (depfast-lint)"
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to scan (default: src/repro)",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format",
    )
    lint.add_argument(
        "--strict",
        action="store_true",
        help="warnings also fail the run (exit 1)",
    )
    lint.add_argument(
        "--baseline",
        metavar="FILE",
        default=None,
        help="accepted-findings file: only findings NOT in the baseline "
        "gate the exit code (no-new-findings mode)",
    )
    lint.add_argument(
        "--write-baseline",
        metavar="FILE",
        default=None,
        help="write the current findings as a fresh baseline and exit 0",
    )
    lint.set_defaults(func=_cmd_lint)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
