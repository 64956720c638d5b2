"""The benchmark's three workloads: inputs, simulated outputs and checks.

Each workload is one single-threaded batch simulation (``workers=1``)
called through a public ``repro`` entry point.  Traffic inside it is
open-loop in simulated time: Poisson organic fetches and probe rounds on
a fixed schedule, so nothing depends on how fast the host runs.  The
seed is the only input the benchmark varies; it goes into the scenario
config and nowhere else.

This module imports ``repro`` lazily, inside the functions, so the
caller can time the import as part of set-up.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import statistics
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

#: The 5-PoP evaluation topology ``repro run fig12_14 --fast`` uses.
FIVE_POPS = ("LHR", "AMS", "JFK", "NRT", "SYD")


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class Workload:
    name: str
    make_config: Callable[[int], Any]
    execute: Callable[[Any], Any]
    #: Deterministic fields of the entry point's own return value.
    summary: Callable[[Any], Any]
    checks: Callable[[Any], list[Check]]
    #: Program counters the traced counts must equal (beyond the generic
    #: cluster counters), read from the entry point's return value.
    program_counts: Callable[[Any], dict[str, int]]
    #: Traced entry points this workload must exercise.
    active: tuple[str, ...]


def config_digest(workload: Workload, config: Any) -> str:
    text = f"{workload.name}:{config!r}"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# probe_study: the paired control-vs-Riptide probe study (Figs 12-14)
# ----------------------------------------------------------------------


#: Paired studies per repetition.  One study's work depends strongly on
#: its seed (kernel events ranged 334k-565k over seeds 201-210, from the
#: heavy-tailed organic object sizes), so one repetition runs three
#: studies at seeds derived from the benchmark seed and sums their cost.
PROBE_STUDIES = 3


def _probe_config(seed: int) -> Any:
    from repro.experiments.scenarios import ProbeStudyConfig

    return tuple(
        ProbeStudyConfig(
            topology_codes=FIVE_POPS, warmup=10.0, duration=30.0,
            seed=PROBE_STUDIES * seed + study,
        )
        for study in range(PROBE_STUDIES)
    )


def _probe_execute(configs: Any) -> Any:
    from repro.experiments.scenarios import run_paired_probe_study

    return [run_paired_probe_study(config, workers=1) for config in configs]


def _probe_summary(results: Any) -> Any:
    # Probe results are compared through the cluster outputs; the arm
    # summary adds the headline counters (transfer ids come from a
    # process-wide counter, so they are left out).
    return [
        (s.riptide_enabled, s.learned_routes, s.events_processed)
        for arms in results
        for s in (arm.summary() for arm in arms)
    ]


def _probe_checks(results: Any) -> list[Check]:
    checks = []
    for control, riptide in results:
        checks += _study_checks(control, riptide, control.cluster.config.seed)
    return checks


def _study_checks(control: Any, riptide: Any, seed: int) -> list[Check]:
    name = f"probe_study[seed {seed}]"
    new_control = control.fleet.completion_times(
        size_bytes=100_000, new_connections_only=True
    )
    new_riptide = riptide.fleet.completion_times(
        size_bytes=100_000, new_connections_only=True
    )
    checks = []
    if new_control and new_riptide:
        ratio = statistics.median(new_riptide) / statistics.median(new_control)
        checks.append(Check(
            f"{name}.new_100kb_median", ratio <= 1.0,
            f"Riptide/control new-connection 100 KB median = {ratio:.3f} (must be <= 1)",
        ))
    else:
        checks.append(Check(
            f"{name}.new_100kb_median", False, "no completed new 100 KB probes"
        ))
    # 10 KB probes fit in IW10, so Riptide leaves each one unchanged.  Both
    # arms issue the same probe schedule, so probe i of one arm is probe i
    # of the other; compare them pairwise.  A ratio of the two medians is
    # not used: with ~40 samples sitting on a few RTT levels, one
    # loss-delayed probe moves it across a 13% gap (seed 1).
    pairs = [
        (c.total_time, r.total_time)
        for c, r in zip(control.fleet.results, riptide.fleet.results, strict=True)
        if c.size_bytes == 10_000 and c.completed and r.completed
    ]
    same_schedule = all(
        (c.source_pop, c.destination_pop, c.size_bytes)
        == (r.source_pop, r.destination_pop, r.size_bytes)
        for c, r in zip(control.fleet.results, riptide.fleet.results, strict=True)
    )
    paired = statistics.median(r / c for c, r in pairs) if pairs else 0.0
    checks.append(Check(
        f"{name}.same_probe_schedule", same_schedule,
        f"{len(control.fleet.results)} probes issued per arm in the same order",
    ))
    checks.append(Check(
        f"{name}.10kb_unchanged", bool(pairs) and abs(paired - 1.0) <= 0.05,
        f"median paired Riptide/control 10 KB time = {paired:.3f} over "
        f"{len(pairs)} probes (must be within 5% of 1)",
    ))
    return checks


def _probe_counts(result: Any) -> dict[str, int]:
    return {}


PROBE_STUDY = Workload(
    name="probe_study",
    make_config=_probe_config,
    execute=_probe_execute,
    summary=_probe_summary,
    checks=_probe_checks,
    program_counts=_probe_counts,
    active=(
        "sim.Simulator.run", "net.Network.send", "net.Prefix.contains",
        "linux.RouteTable.lookup", "linux.SsTool.tcp_info",
        "tcp.TcpSocket.handle_segment", "core.RiptideAgent._tick",
        "cdn.TransferClient.fetch", "cdn.ProbeFleet._issue",
        "obs.TraceLog.record", "obs.FlowLog.begin",
    ),
)


# ----------------------------------------------------------------------
# hybrid_scale: 34 PoPs, 1,122 fluid populations, 10^6 open flows
# ----------------------------------------------------------------------


def _hybrid_config(seed: int) -> Any:
    from repro.experiments.hybrid import HybridScaleConfig

    # Full scale, shorter clock (default 5 s + 25 s): three probe windows
    # still check the 10^6 flows, and a repetition costs two thirds as
    # much, so a run fits more of them.
    return HybridScaleConfig(seed=seed, duration=15.0)


def _hybrid_execute(config: Any) -> Any:
    from repro.experiments.hybrid import run_scale

    return run_scale(config)


def _hybrid_summary(result: Any) -> Any:
    fields = dataclasses.asdict(result)
    del fields["wall_seconds"]  # host time, not a simulated output
    return fields


def _hybrid_checks(result: Any) -> list[Check]:
    return [Check(
        "hybrid_scale.sustained_million_flows", result.sustained_million_flows,
        f"open flows per probe window: min {result.flows_min:,.0f} (must be >= 10^6)",
    )]


def _hybrid_counts(result: Any) -> dict[str, int]:
    return {"cdn.fluid_engine_steps": result.fluid_steps}


HYBRID_SCALE = Workload(
    name="hybrid_scale",
    make_config=_hybrid_config,
    execute=_hybrid_execute,
    summary=_hybrid_summary,
    checks=_hybrid_checks,
    program_counts=_hybrid_counts,
    active=(
        "sim.Simulator.run", "fluid.FluidPopulation.step",
        "fluid.CwndDistribution.sample_windows", "net.Prefix.contains",
        "linux.RouteTable.lookup", "cdn.FluidTraffic._step",
        "cdn.FluidTraffic.socket_stats_for", "tcp.TcpSocket.handle_segment",
    ),
)


# ----------------------------------------------------------------------
# chaos_cell: one tournament cell under the lossy-agent fault schedule
# ----------------------------------------------------------------------


#: Tournament cells per repetition, for the same reason as
#: ``PROBE_STUDIES``: one cell's kernel events ranged 342k-440k over
#: seeds 501-510, which alone spread ``run_s`` by 0.18 of the median.
CHAOS_CELLS = 3


def _chaos_config(seed: int) -> Any:
    from repro.experiments.tournament import TournamentConfig

    return tuple(
        TournamentConfig(
            policies=("ewma",), scenarios=("chaos_lossy_agent",),
            seed=CHAOS_CELLS * seed + cell, warmup=10.0, duration=60.0,
        )
        for cell in range(CHAOS_CELLS)
    )


def _chaos_execute(configs: Any) -> Any:
    from repro.experiments.tournament import run_tournament_cell

    return [
        run_tournament_cell(config.policies[0], config.scenarios[0], config)
        for config in configs
    ]


def _chaos_summary(results: Any) -> Any:
    return results


def _chaos_checks(results: Any) -> list[Check]:
    checks = []
    for cell, result in enumerate(results):
        name = f"chaos_cell[{cell}]"
        checks += [
            Check(
                f"{name}.faults_cleared",
                result["faults_injected"] > 0
                and result["faults_injected"] == result["faults_cleared"],
                f"{result['faults_injected']} faults injected, "
                f"{result['faults_cleared']} cleared",
            ),
            Check(
                f"{name}.guard_tripped", result["guard_trips"] >= 1,
                f"{result['guard_trips']} guard trips (must be >= 1)",
            ),
            Check(
                f"{name}.report_no_failures", result["probes"]["failed"] == 0,
                f"report: {result['probes']}",
            ),
        ]
    return checks


def _chaos_counts(results: Any) -> dict[str, int]:
    return {"faults.injected": sum(result["faults_injected"] for result in results)}


CHAOS_CELL = Workload(
    name="chaos_cell",
    make_config=_chaos_config,
    execute=_chaos_execute,
    summary=_chaos_summary,
    checks=_chaos_checks,
    program_counts=_chaos_counts,
    active=(
        "sim.Simulator.run", "net.Network.send", "tcp.TcpSocket.handle_segment",
        "tcp.TcpSocket._retransmit_entry", "core.RiptideAgent._guard_trip",
        "core.SafetyGuard.observe", "faults.FaultInjector._inject",
        "faults.FaultInjector._clear", "obs.SloEngine.evaluate",
        "obs.build_report", "obs.WindowedStore.record", "obs.SpanLog.begin",
        "obs.FlowLog.begin", "obs.TraceLog.record",
    ),
)


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (PROBE_STUDY, HYBRID_SCALE, CHAOS_CELL)
}


# ----------------------------------------------------------------------
# simulated outputs, read from the clusters a run built
# ----------------------------------------------------------------------


def cluster_outputs(cluster: Any, fleets: list[Any]) -> dict[str, Any]:
    """What one cluster simulated: clock, events, advisories, probes."""
    learned = sorted(
        (agent.host.name, str(entry.destination), entry.window, entry.updated_at)
        for agent in cluster.all_agents()
        for entry in agent.learned_table().entries()
    )
    probes = [
        (p.source_pop, p.destination_pop, p.size_bytes, p.new_connection,
         p.transfer.started_at, p.transfer.completed_at, p.transfer.failed_reason)
        for fleet in fleets
        for p in fleet.results
    ]
    return {
        "label": cluster.config.label,
        "now": cluster.sim.now,
        "events": cluster.sim.events_processed,
        "learned": learned,
        "probes": probes,
    }


def outputs_digest(outputs: Any) -> str:
    """A digest of simulated outputs; floats are written exactly."""
    text = json.dumps(outputs, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def probe_operations(fleets: list[Any]) -> tuple[int, int, int]:
    """(started, completed, failed with an error) over every probe."""
    started = completed = failed = 0
    for fleet in fleets:
        for probe in fleet.results:
            started += 1
            if probe.completed:
                completed += 1
            elif probe.transfer.failed_reason is not None:
                failed += 1
    return started, completed, failed


def cluster_counts(clusters: list[Any]) -> dict[str, int]:
    """Program counters the generic traced counts must equal."""
    events = fluid_steps = installed = trips = polls = offered = 0
    for cluster in clusters:
        events += cluster.sim.events_processed
        engine = cluster.fluid
        if engine is not None:
            fluid_steps += engine.steps * len(engine.populations)
        for agent in cluster.all_agents():
            installed += agent.stats.routes_installed
            trips += agent.stats.guard_trips
            polls += agent.stats.polls
        for a, b in cluster.topology.pairs():
            duplex = cluster.network.trunk_between(a.prefix, b.prefix)
            offered += duplex.forward.stats.packets_offered
            offered += duplex.reverse.stats.packets_offered
    return {
        "sim.events": events,
        "fluid.steps": fluid_steps,
        "core.routes_installed": installed,
        "core.guard_trips": trips,
        "core.ticks": polls,
        "net.link_offers": offered,
    }


def link_drop_ratio(clusters: list[Any]) -> float:
    """Packets the trunks dropped (queue, outage, loss) / packets offered."""
    offered = dropped = 0
    for cluster in clusters:
        for a, b in cluster.topology.pairs():
            duplex = cluster.network.trunk_between(a.prefix, b.prefix)
            for link in (duplex.forward, duplex.reverse):
                offered += link.stats.packets_offered
                dropped += link.stats.packets_dropped
    return dropped / offered if offered else 0.0
