"""Command-line interface for the reproduction.

::

    python -m repro list                 # all registered experiments
    python -m repro run fig03            # regenerate one figure/table
    python -m repro run fig10 --fast     # reduced-scale simulation run
    python -m repro run fig10 --workers 4  # fan the sweep across processes
    python -m repro run --faults chaos_partition  # paired chaos study
    python -m repro run --list           # runnable experiments + worker/fault surface
    python -m repro tournament --workers 4  # policy zoo x scenarios leaderboard
    python -m repro faults               # list chaos scenarios + timelines
    python -m repro describe fig12_14    # what an experiment reproduces
    python -m repro metrics fig10        # run + print the metric table
    python -m repro metrics fig10 --prom # Prometheus text exposition instead
    python -m repro flows fig12_14       # run + print per-connection flow records
    python -m repro flows fig12_14 --since 10 --until 40  # sim-time window
    python -m repro report chaos_lossy_agent  # tail-latency attribution report
    python -m repro alerts chaos_lossy_agent --check  # SLO burn-rate alerts
    python -m repro watch chaos_lossy_agent   # replay the run as live frames
    python -m repro bench                # perf baseline -> BENCH_005.json
    python -m repro bench --smoke --guard  # CI: fail on kernel regression
    python -m repro lint src/            # determinism/sim-invariant analyzer

``run`` prints the same rows/series the corresponding paper figure or
table reports.  ``metrics`` runs the experiment under an instrumentation
capture (see :mod:`repro.obs`) and prints the aggregated metric table
and trace-event totals instead — the operator's view of the same run.
``flows`` and ``report`` use the same capture but surface the flow
records, lifecycle spans and the tail-latency attribution built from
them (:mod:`repro.obs.report`).  Experiments may be named by id
(``fig10``) or by harness module name (``fig10_cmax_sweep``).

``alerts`` evaluates the burn-rate SLO engine's episode log into a
report artifact (``--check`` additionally enforces the scenario's
expected-alert contracts), and ``watch`` replays the captured stores as
operator dashboard frames.

The five capture views (``metrics``, ``flows``, ``report``, ``alerts``,
``watch``) share one argument set (``experiment_id``, ``--fast``,
``--workers``, ``--json``) and one run path.  The worker captures merge
deterministically and the wall-time line goes to stderr, so a view's
stdout is byte-identical between runs and to a serial run.  ``run``
sends its banner and wall-time line to stderr too; ``run --faults X``
is ``run X`` for chaos scenario ``X``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.experiments import EXPERIMENTS, get_experiment, list_experiments
from repro.obs import capture

#: Reduced-scale keyword arguments per experiment for ``--fast``.
_FAST_OVERRIDES: dict[str, dict] = {
    "fig02": {"samples": 20_000},
    "fig03": {"samples": 20_000},
    "fig04": {"points": 100},
    "fig10": {
        "c_max_values": (50, 100, 250),
        "topology_codes": ("LHR", "AMS", "JFK", "NRT", "SYD"),
        "duration": 20.0,
        "warmup": 5.0,
    },
    "fig11": {"duration": 45.0},
    # Keep the full 34-PoP topology but shrink the population and clock:
    # the CI scale-smoke job runs this to exercise the whole fluid path.
    "hybrid": {"flows_per_pair": 100.0, "warmup": 3.0, "duration": 10.0},
}

#: Fast mode for the paired-study experiments shrinks the shared config.
_FAST_STUDY_IDS = ("fig12_14", "fig15_16", "edge_cases")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce figures and tables from the Riptide paper "
        "(ICDCS 2016).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser("list", help="list all registered experiments")
    list_parser.set_defaults(func=_cmd_list)

    run_parser = subparsers.add_parser("run", help="run one experiment")
    run_parser.set_defaults(func=_cmd_run)
    run_parser.add_argument(
        "experiment_id",
        nargs="?",
        default=None,
        help="e.g. fig03, table2, fig12_14 (omit when using --faults)",
    )
    run_parser.add_argument(
        "--list",
        action="store_true",
        dest="list_experiments",
        help="list runnable experiments with their worker support and "
        "fault-scenario pairing, then exit",
    )
    run_parser.add_argument(
        "--faults",
        metavar="SCENARIO",
        default=None,
        help="run the paired chaos study for a fault scenario "
        "(see `repro faults` for the list)",
    )
    run_parser.add_argument(
        "--fast",
        action="store_true",
        help="reduced-scale run (smaller topology / fewer samples)",
    )
    run_parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="fan independent simulation arms across N worker processes "
        "(experiments that support it; results are identical to serial)",
    )

    bench_parser = subparsers.add_parser(
        "bench",
        help="run the perf baseline and write it to a JSON file",
    )
    bench_parser.set_defaults(func=_cmd_bench)
    bench_parser.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="output JSON path (default: BENCH_005.json)",
    )
    bench_parser.add_argument(
        "--workers",
        type=int,
        default=4,
        metavar="N",
        help="worker count for the sweep section (default: 4)",
    )
    bench_parser.add_argument(
        "--seeds",
        type=int,
        default=8,
        metavar="N",
        help="seed count for the sweep section (default: 8)",
    )
    bench_parser.add_argument(
        "--smoke",
        action="store_true",
        help="one short round of each section (CI smoke)",
    )
    bench_parser.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="prior bench artifact to compute ratios against "
        "(default: BENCH_004.json when present)",
    )
    bench_parser.add_argument(
        "--guard",
        action="store_true",
        help="exit non-zero if kernel or fluid-step events/s regresses "
        "below the baseline artifact",
    )
    bench_parser.add_argument(
        "--guard-min-ratio",
        type=float,
        default=1.0,
        metavar="R",
        help="guard floor as a fraction of the baseline kernel events/s "
        "(default: 1.0)",
    )

    lint_parser = subparsers.add_parser(
        "lint",
        help="run the determinism/sim-invariant static analyzer",
    )
    lint_parser.set_defaults(func=_cmd_lint)
    lint_parser.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="files or directories to lint (default: src/)",
    )
    lint_parser.add_argument(
        "--json",
        action="store_true",
        help="emit findings as JSON (alias for --format json)",
    )
    lint_parser.add_argument(
        "--format",
        dest="lint_format",
        choices=("text", "json", "github"),
        default=None,
        help="output format: text (default), json, or github workflow "
        "annotations",
    )
    lint_parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk module index cache",
    )
    lint_parser.add_argument(
        "--baseline",
        metavar="FILE",
        default=None,
        help="JSON baseline of fingerprints to suppress (stale entries fail)",
    )
    lint_parser.add_argument(
        "--select",
        metavar="CODES",
        default=None,
        help="comma-separated rule codes to run (e.g. DET001,SLOT001)",
    )
    lint_parser.add_argument(
        "--ignore",
        metavar="CODES",
        default=None,
        help="comma-separated rule codes to skip",
    )
    lint_parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list the rule codes and what they check, then exit",
    )

    tournament_parser = subparsers.add_parser(
        "tournament",
        help="race the window-policy zoo across scenarios; emit a leaderboard",
    )
    tournament_parser.set_defaults(func=_cmd_tournament)
    tournament_parser.add_argument(
        "--policies",
        nargs="*",
        metavar="POLICY",
        default=None,
        help="policies to race (default: the full zoo)",
    )
    tournament_parser.add_argument(
        "--scenarios",
        nargs="*",
        metavar="SCENARIO",
        default=None,
        help="scenario columns (default: the full matrix)",
    )
    tournament_parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="fan the matrix cells across N worker processes "
        "(the leaderboard is byte-identical to serial)",
    )
    tournament_parser.add_argument(
        "--fast",
        action="store_true",
        help="reduced clock per cell (shorter warmup and probing)",
    )
    tournament_parser.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="write the leaderboard artifact JSON to PATH",
    )
    tournament_parser.add_argument(
        "--markdown",
        metavar="PATH",
        default=None,
        help="write the leaderboard as markdown to PATH",
    )

    faults_parser = subparsers.add_parser(
        "faults",
        help="list the chaos fault scenarios and their timelines",
    )
    faults_parser.set_defaults(func=_cmd_faults)
    faults_parser.add_argument(
        "--duration",
        type=float,
        default=90.0,
        metavar="SECONDS",
        help="probing duration the printed timelines are scaled to "
        "(default: 90)",
    )

    describe_parser = subparsers.add_parser(
        "describe", help="show what an experiment reproduces"
    )
    describe_parser.set_defaults(func=_cmd_describe)
    describe_parser.add_argument("experiment_id")

    # The five capture views share their run arguments.
    view = argparse.ArgumentParser(add_help=False)
    view.add_argument(
        "experiment_id",
        help="experiment id or harness module name "
        "(e.g. fig10, fig10_cmax_sweep, chaos_lossy_agent)",
    )
    view.add_argument(
        "--fast",
        action="store_true",
        help="reduced-scale run (smaller topology / fewer samples)",
    )
    view.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="fan independent simulation arms across N worker processes "
        "(output is byte-identical to serial)",
    )
    view.add_argument(
        "--json",
        action="store_true",
        help="emit the view as JSON instead of text",
    )

    metrics_parser = subparsers.add_parser(
        "metrics",
        parents=[view],
        help="run an experiment and print its metric table and trace totals",
    )
    metrics_parser.set_defaults(func=_cmd_metrics)
    metrics_parser.add_argument(
        "--prom",
        action="store_true",
        help="emit the registry in the Prometheus text exposition format "
        "(histograms as summaries; deterministic, byte-comparable)",
    )
    metrics_parser.add_argument(
        "--csv",
        metavar="PATH",
        help="also write the metric table to PATH as CSV",
    )
    metrics_parser.add_argument(
        "--trace-csv",
        metavar="PATH",
        help="also write the retained trace events to PATH as CSV",
    )

    flows_parser = subparsers.add_parser(
        "flows",
        parents=[view],
        help="run an experiment and print its per-connection flow records",
    )
    flows_parser.set_defaults(func=_cmd_flows)
    flows_parser.add_argument(
        "--jsonl",
        metavar="PATH",
        help="also write the flow records to PATH as JSON Lines",
    )
    flows_parser.add_argument(
        "--since",
        type=float,
        default=None,
        metavar="T",
        help="only flows alive at or after sim-time T seconds",
    )
    flows_parser.add_argument(
        "--until",
        type=float,
        default=None,
        metavar="T",
        help="only flows opened at or before sim-time T seconds",
    )

    report_parser = subparsers.add_parser(
        "report",
        parents=[view],
        help="run an experiment and print its tail-latency attribution report",
    )
    report_parser.set_defaults(func=_cmd_report)
    report_parser.add_argument(
        "--out",
        metavar="PATH",
        help="also write the report JSON to PATH",
    )
    report_parser.add_argument(
        "--spans",
        metavar="PATH",
        help="also write the lifecycle spans to PATH as Chrome trace JSON "
        "(loadable in Perfetto / chrome://tracing)",
    )
    report_parser.add_argument(
        "--timeline-csv",
        metavar="PATH",
        help="also write the sampled time series to PATH as CSV",
    )
    report_parser.add_argument(
        "--since",
        type=float,
        default=None,
        metavar="T",
        help="attribute only probes overlapping sim-time >= T seconds",
    )
    report_parser.add_argument(
        "--until",
        type=float,
        default=None,
        metavar="T",
        help="attribute only probes overlapping sim-time <= T seconds",
    )

    alerts_parser = subparsers.add_parser(
        "alerts",
        parents=[view],
        help="run an experiment and print its SLO burn-rate alert report",
    )
    alerts_parser.set_defaults(func=_cmd_alerts)
    alerts_parser.add_argument(
        "--out",
        metavar="PATH",
        help="also write the alert report JSON to PATH",
    )
    alerts_parser.add_argument(
        "--markdown",
        metavar="PATH",
        help="also write the alert report as markdown to PATH",
    )
    alerts_parser.add_argument(
        "--check",
        action="store_true",
        help="enforce the experiment's expected-alert contracts "
        "(exit 1 when an expected alert never fired/resolved)",
    )

    watch_parser = subparsers.add_parser(
        "watch",
        parents=[view],
        help="run an experiment and replay it as live operator frames",
    )
    watch_parser.set_defaults(func=_cmd_watch)
    watch_parser.add_argument(
        "--interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="frame width in sim seconds (default: the SLO window, 5)",
    )
    watch_parser.add_argument(
        "--speed",
        type=float,
        default=0.0,
        metavar="R",
        help="replay pacing: sleep interval/R wall seconds between frames "
        "(0, the default, prints everything at once)",
    )

    return parser


def _fail(message: str) -> int:
    """Report a usage error on stderr; the exit code for it."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def _write_artifact(path: str, text: str, what: str) -> None:
    """Write one output artifact and say so on stderr."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"{what} written to {path}", file=sys.stderr)


def _cmd_list(args: argparse.Namespace) -> int:
    for exp in list_experiments():
        kind = "simulation" if exp.simulation_backed else "model"
        extras = []
        if exp.supports_workers:
            extras.append("workers")
        if exp.fault_scenario is not None:
            extras.append(f"faults:{exp.fault_scenario}")
        tag = f" ({', '.join(extras)})" if extras else ""
        print(f"{exp.experiment_id:<18} [{kind:<10}] {exp.description}{tag}")
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    exp = get_experiment(args.experiment_id)
    print(f"id:          {exp.experiment_id}")
    print(f"description: {exp.description}")
    print(f"backed by:   {'full simulation' if exp.simulation_backed else 'closed-form model'}")
    doc = sys.modules[exp.run.__module__].__doc__ or ""
    print(f"\n{doc.strip()}")
    return 0


def _normalize_experiment_id(experiment_id: str) -> str:
    """Resolve an id or a harness module name to a registered id.

    ``fig10`` and ``fig10_cmax_sweep`` both name the Figure 10 sweep: the
    former is the registry id, the latter the module under
    ``repro.experiments`` that implements it.
    """
    if experiment_id in EXPERIMENTS:
        return experiment_id
    for exp in EXPERIMENTS.values():
        module_name = exp.run.__module__.rsplit(".", 1)[-1]
        if experiment_id == module_name:
            return exp.experiment_id
    return experiment_id  # let get_experiment raise its usual error


def _fast_kwargs(experiment_id: str) -> dict[str, object]:
    """Reduced-scale overrides for one experiment (``--fast``)."""
    if experiment_id in _FAST_STUDY_IDS:
        from repro.experiments.scenarios import ProbeStudyConfig

        return {
            "config": ProbeStudyConfig(
                topology_codes=("LHR", "AMS", "JFK", "NRT", "SYD"),
                warmup=10.0,
                duration=30.0,
            )
        }
    if EXPERIMENTS[experiment_id].fault_scenario is not None:  # chaos studies
        from dataclasses import replace

        from repro.experiments.scenarios import CHAOS_STUDY

        return {"config": replace(CHAOS_STUDY, warmup=8.0, duration=30.0)}
    if experiment_id == "tournament":
        return {"config": _fast_tournament_config()}
    return dict(_FAST_OVERRIDES.get(experiment_id, {}))


def _fast_tournament_config(
    policies: tuple[str, ...] = (), scenarios: tuple[str, ...] = ()
):
    """The reduced-clock tournament config (``--fast``)."""
    from repro.experiments.tournament import TournamentConfig

    return TournamentConfig(
        policies=policies,
        scenarios=scenarios,
        warmup=3.0,
        duration=10.0,
        probe_interval=2.0,
    )


def _run_kwargs(exp, fast: bool, workers: int) -> dict[str, object]:
    """Keyword arguments for ``exp.run`` from ``--fast``/``--workers``."""
    kwargs = _fast_kwargs(exp.experiment_id) if fast else {}
    if workers > 1:
        if exp.supports_workers:
            kwargs["workers"] = workers
        else:
            print(
                f"note: {exp.experiment_id} has no independent simulation "
                "arms; running serially",
                file=sys.stderr,
            )
    return kwargs


def _cmd_run_list() -> int:
    """``run --list``: runnable experiments with their run-time surface."""
    print(f"{'experiment':<18} {'kind':<10} {'workers':<8} fault scenario")
    for exp in list_experiments():
        kind = "simulation" if exp.simulation_backed else "model"
        workers = "yes" if exp.supports_workers else "no"
        faults = exp.fault_scenario if exp.fault_scenario is not None else "-"
        print(f"{exp.experiment_id:<18} {kind:<10} {workers:<8} {faults}")
    print(
        "\nworkers: accepts --workers N (independent simulation arms; "
        "results identical to serial)"
    )
    print(
        "fault scenario: the chaos schedule the experiment runs under "
        "(see `repro faults`)"
    )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    if args.list_experiments:
        return _cmd_run_list()
    if args.faults is not None:
        if args.experiment_id is not None:
            return _fail("give either an experiment id or --faults, not both")
        from repro.faults import get_scenario

        # Each chaos scenario is registered as the experiment of its name.
        args.experiment_id = get_scenario(args.faults).name
    if args.experiment_id is None:
        return _fail("run needs an experiment id (or --faults SCENARIO)")
    exp = get_experiment(args.experiment_id)
    result = _timed_run(exp, _run_kwargs(exp, args.fast, args.workers))
    print(result.report())
    return 0


def _cmd_tournament(args: argparse.Namespace) -> int:
    """Race the policy zoo; print and optionally write the leaderboard."""
    from repro.experiments.tournament import TournamentConfig, run_tournament

    selected_policies = tuple(args.policies) if args.policies else ()
    selected_scenarios = tuple(args.scenarios) if args.scenarios else ()
    if args.fast:
        config = _fast_tournament_config(selected_policies, selected_scenarios)
    else:
        config = TournamentConfig(
            policies=selected_policies, scenarios=selected_scenarios
        )
    try:
        cell_count = len(config.resolved_policies()) * len(
            config.resolved_scenarios()
        )
    except ValueError as error:
        return _fail(str(error))
    print(
        f"running the policy tournament ({cell_count} cells; "
        "this takes a while)...",
        file=sys.stderr,
    )
    started = time.perf_counter()
    result = run_tournament(config, workers=args.workers)
    elapsed = time.perf_counter() - started
    print(result.to_markdown(), end="")
    print(f"\n[tournament completed in {elapsed:.1f}s]", file=sys.stderr)
    if args.out is not None:
        _write_artifact(args.out, result.to_json(), "leaderboard artifact")
    if args.markdown is not None:
        _write_artifact(args.markdown, result.to_markdown(), "leaderboard markdown")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.lint import ALL_RULES, LintUsageError, run_lint

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.code}  {rule.summary}")
        return 0
    paths = args.paths
    if not paths:
        if not os.path.isdir("src"):
            return _fail("no paths given and no src/ directory here")
        paths = ["src"]
    def split(value: str | None) -> list[str] | None:
        if not value:
            return None
        return [code.strip().upper() for code in value.split(",") if code.strip()]

    output_format = args.lint_format
    if output_format is None:
        output_format = "json" if args.json else "text"
    cache_path = (
        None if args.no_cache else os.path.join(os.getcwd(), ".repro-lint-cache.json")
    )
    try:
        result = run_lint(
            paths,
            select=split(args.select),
            ignore=split(args.ignore),
            baseline_path=args.baseline,
            cache_path=cache_path,
        )
    except LintUsageError as error:
        return _fail(str(error))
    if output_format == "json":
        print(result.to_json())
    elif output_format == "github":
        print(result.render_github())
    else:
        print(result.render_text())
    return 0 if result.clean else 1


def _cmd_faults(args: argparse.Namespace) -> int:
    """List the chaos scenarios with their fault timelines."""
    from repro.faults import CHAOS_SCENARIOS

    for scenario in CHAOS_SCENARIOS.values():
        print(scenario.name)
        print(
            f"  pops: {', '.join(scenario.pop_codes)}  "
            f"(probes from {scenario.source_pop}, "
            f"headline target {scenario.target_pop})"
        )
        print(f"  {scenario.description}")
        print(f"  timeline over {args.duration:g}s of probing:")
        print(scenario.describe(args.duration))
        print()
    print("run one with: python -m repro run --faults <scenario>")
    return 0


def _timed_run(exp, kwargs: dict[str, object], banner: str = ""):
    """Run ``exp`` with its banner and wall time on stderr; its result.

    Keeping both off stdout leaves stdout to the deterministic output.
    """
    if exp.simulation_backed:
        print(
            f"running {exp.experiment_id}{banner} "
            "(full simulation; this takes a while)...",
            file=sys.stderr,
        )
    started = time.perf_counter()
    result = exp.run(**kwargs)
    elapsed = time.perf_counter() - started
    print(f"\n[{exp.experiment_id} completed in {elapsed:.1f}s]", file=sys.stderr)
    return result


def _run_view(args: argparse.Namespace, what: str):
    """Run one view's experiment under an instrumentation capture.

    Resolves ``args.experiment_id`` in place (harness module names are
    accepted).  The capture uses the default capacities, the same ones
    parallel workers capture under, so the merged stores and everything
    derived from them are byte-identical between serial and
    ``--workers N``.  The wall time and any trace truncation go to
    stderr, keeping stdout deterministic.
    """
    args.experiment_id = _normalize_experiment_id(args.experiment_id)
    exp = get_experiment(args.experiment_id)
    kwargs = _run_kwargs(exp, args.fast, args.workers)
    with capture() as instrumentation:
        _timed_run(exp, kwargs, f" under {what} capture")
    dropped = instrumentation.trace.dropped
    if dropped > 0:
        print(
            f"warning: trace ring dropped {dropped} oldest events "
            f"(retained {len(instrumentation.trace)}); totals stay exact",
            file=sys.stderr,
        )
    return instrumentation


def _cmd_metrics(args: argparse.Namespace) -> int:
    import json

    from repro.analysis.export import (
        metrics_to_csv,
        metrics_to_json,
        metrics_to_prometheus,
        trace_to_csv,
        trace_to_json,
    )

    if args.json and args.prom:
        return _fail("give either --json or --prom, not both")
    instrumentation = _run_view(args, "metrics")
    if args.prom:
        print(metrics_to_prometheus(instrumentation.metrics), end="")
    elif args.json:
        payload = {
            "experiment": args.experiment_id,
            "metrics": json.loads(metrics_to_json(instrumentation.metrics)),
            "trace": json.loads(trace_to_json(instrumentation.trace)),
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"== metrics: {args.experiment_id} ==")
        print(instrumentation.metrics.render_table())
        totals = instrumentation.trace.totals()
        if totals:
            print("\n== trace event totals ==")
            width = max(len(t.value) for t in totals)
            for event_type, count in sorted(
                totals.items(), key=lambda item: item[0].value
            ):
                print(f"{event_type.value:<{width}}  {count}")
    if args.csv is not None:
        _write_artifact(args.csv, metrics_to_csv(instrumentation.metrics), "metrics CSV")
    if args.trace_csv is not None:
        _write_artifact(
            args.trace_csv, trace_to_csv(instrumentation.trace), "trace CSV"
        )
    return 0


def _cmd_flows(args: argparse.Namespace) -> int:
    from repro.analysis.export import flows_to_json, flows_to_jsonl

    since, until = args.since, args.until
    flows = _run_view(args, "flow").flows
    if args.json:
        print(flows_to_json(flows, since=since, until=until))
    else:
        records = flows.records(since=since, until=until)
        closed = sum(1 for r in records if r.closed_at is not None)
        by_source: dict[str, int] = {}
        by_state: dict[str, int] = {}
        for record in records:
            by_source[record.cwnd_source] = by_source.get(record.cwnd_source, 0) + 1
            by_state[record.final_state] = by_state.get(record.final_state, 0) + 1
        print(f"== flow records: {args.experiment_id} ==")
        print(
            f"recorded: {flows.recorded}  retained: {len(flows)}  "
            f"dropped: {flows.dropped}"
        )
        if since is not None or until is not None:
            print(
                f"window [{since if since is not None else 'start'}, "
                f"{until if until is not None else 'end'}]s: "
                f"{len(records)} flows"
            )
        print(f"closed: {closed}  open: {len(records) - closed}")
        print(
            "initial cwnd source: "
            + "  ".join(f"{k}={v}" for k, v in sorted(by_source.items()))
        )
        print(
            "final state: "
            + "  ".join(f"{k}={v}" for k, v in sorted(by_state.items()))
        )
    if args.jsonl is not None:
        _write_artifact(
            args.jsonl,
            flows_to_jsonl(flows, since=since, until=until),
            "flow records",
        )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.export import spans_to_chrome_json, timeline_to_csv
    from repro.obs.report import build_report, render_report, report_to_json

    instrumentation = _run_view(args, "report")
    report = build_report(
        instrumentation,
        experiment=args.experiment_id,
        since=args.since,
        until=args.until,
    )
    print(report_to_json(report) if args.json else render_report(report))
    if args.out is not None:
        _write_artifact(args.out, report_to_json(report) + "\n", "report JSON")
    if args.spans is not None:
        _write_artifact(
            args.spans,
            spans_to_chrome_json(instrumentation.spans) + "\n",
            "Chrome trace",
        )
    if args.timeline_csv is not None:
        _write_artifact(
            args.timeline_csv,
            timeline_to_csv(instrumentation.timeline),
            "timeline CSV",
        )
    return 0


def _cmd_alerts(args: argparse.Namespace) -> int:
    from repro.obs.slo import (
        alert_report_to_json,
        alert_report_to_markdown,
        build_alert_report,
        source_matches_arm,
    )

    instrumentation = _run_view(args, "alert")
    report = build_alert_report(
        instrumentation.alerts, experiment=args.experiment_id
    )
    if args.json:
        print(alert_report_to_json(report), end="")
    else:
        print(alert_report_to_markdown(report), end="")
    if args.out is not None:
        _write_artifact(args.out, alert_report_to_json(report), "alert report JSON")
    if args.markdown is not None:
        _write_artifact(
            args.markdown,
            alert_report_to_markdown(report),
            "alert report markdown",
        )
    if not args.check:
        return 0

    from repro.experiments.chaos import check_expected_alert
    from repro.faults import get_scenario

    exp = get_experiment(args.experiment_id)
    if exp.fault_scenario is None:
        return _fail(
            f"--check needs an experiment with a fault scenario; "
            f"{args.experiment_id} has none"
        )
    scenario = get_scenario(exp.fault_scenario)
    if not scenario.expected_alerts:
        print(
            f"alert check: scenario {scenario.name} declares no expected "
            "alerts; nothing to enforce",
            file=sys.stderr,
        )
        return 0
    episodes = instrumentation.alerts.episodes()
    failures = 0
    for expectation in scenario.expected_alerts:
        arm_episodes = tuple(
            episode
            for episode in episodes
            if source_matches_arm(episode.source, expectation.arm)
        )
        ok, detail = check_expected_alert(expectation, arm_episodes)
        verdict = "ok" if ok else "FAILED"
        print(
            f"alert check [{expectation.arm}]: {detail} -- {verdict}",
            file=sys.stderr,
        )
        if not ok:
            failures += 1
    return 1 if failures else 0


def _cmd_watch(args: argparse.Namespace) -> int:
    from repro.analysis.watch import (
        build_watch_frames,
        render_frame,
        render_watch,
        watch_frames_to_json,
    )
    from repro.obs.slo import DEFAULT_SLO_WINDOW

    width = args.interval if args.interval is not None else DEFAULT_SLO_WINDOW
    if width <= 0.0:
        return _fail(f"--interval must be > 0, got {width:g}")
    if args.speed < 0.0:
        return _fail(f"--speed must be >= 0, got {args.speed:g}")
    instrumentation = _run_view(args, "watch")
    frames = build_watch_frames(instrumentation, interval=width)
    if args.json:
        print(watch_frames_to_json(frames, experiment=args.experiment_id))
    elif args.speed > 0.0:
        # Paced replay: identical frame lines, wall-clock spacing only.
        print(f"== watch: {args.experiment_id} ({len(frames)} frames) ==")
        for frame in frames:
            print(render_frame(frame), flush=True)
            time.sleep(width / args.speed)
    else:
        print(render_watch(frames, experiment=args.experiment_id))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import (
        DEFAULT_BASELINE,
        DEFAULT_OUTPUT,
        format_bench,
        guard_regression,
        load_baseline,
        run_bench,
        write_bench,
    )

    baseline_path = args.baseline if args.baseline is not None else DEFAULT_BASELINE
    print("running perf baseline (this takes a while)...", file=sys.stderr)
    payload = run_bench(
        workers=args.workers,
        seeds=args.seeds,
        smoke=args.smoke,
        baseline_path=baseline_path,
    )
    path = write_bench(payload, args.out if args.out is not None else DEFAULT_OUTPUT)
    print(format_bench(payload))
    print(f"\nbench written to {path}", file=sys.stderr)
    if args.guard:
        prior = load_baseline(baseline_path)
        if prior is None:
            return _fail(
                f"--guard needs a readable baseline artifact at {baseline_path}"
            )
        failures = guard_regression(payload, prior, min_ratio=args.guard_min_ratio)
        for failure in failures:
            print(f"bench guard: {failure}", file=sys.stderr)
        if failures:
            return 1
        print(
            f"bench guard: kernel throughput holds against {baseline_path}",
            file=sys.stderr,
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except KeyError as error:  # unknown experiment or scenario id
        return _fail(str(error))


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
