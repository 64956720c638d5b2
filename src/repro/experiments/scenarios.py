"""Shared scenario builders for the simulation-backed experiments.

The paper evaluates on the production 34-PoP CDN over 12-20 hours.  The
simulated counterpart compresses wall-clock (probes every few seconds
instead of hourly, minutes of simulated time instead of hours) and, for
affordable runs, uses a representative sub-topology spanning all RTT
buckets.  Per-transfer timings are unaffected by the compression; only
the number of samples shrinks.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.cdn.cluster import CdnCluster, ClusterConfig
from repro.cdn.probes import ProbeFleet, ProbeResultSet
from repro.cdn.topology import Topology, build_paper_topology
from repro.cdn.workload import OrganicWorkloadConfig
from repro.core.config import RiptideConfig
from repro.faults.engine import FaultInjector
from repro.faults.scenarios import get_scenario
from repro.obs.slo import AlertEpisode, source_matches_arm
from repro.tcp.constants import TcpConfig

#: The two vantage PoPs of Section IV-B: one European, one North American.
EU_SOURCE = "LHR"
NA_SOURCE = "JFK"

#: A sub-topology that spans every Figure 12-14 RTT bucket from both
#: vantage points: metro-close (AMS/IAD), mid (ARN/ORD/DFW), far
#: (JFK<->LHR), very far (NRT, SYD, GRU).
EVALUATION_POP_CODES = (
    "LHR",
    "AMS",
    "ARN",
    "MAD",
    "JFK",
    "IAD",
    "ORD",
    "DFW",
    "NRT",
    "SYD",
    "GRU",
)


def sub_topology(codes: tuple[str, ...] = EVALUATION_POP_CODES) -> Topology:
    """The paper topology restricted to a set of PoP codes."""
    full = build_paper_topology()
    wanted = set(codes)
    missing = wanted - {pop.code for pop in full.pops}
    if missing:
        raise KeyError(f"unknown PoP codes: {sorted(missing)}")
    return Topology(
        pops=tuple(pop for pop in full.pops if pop.code in wanted),
        path_inflation=full.path_inflation,
    )




@dataclass(frozen=True)
class ProbeStudyConfig:
    """Knobs for one paired (control vs Riptide) probe study.

    The chaos studies and the policy tournament are this study too: the
    same arm run under a fault schedule (``faults``), with the burn-rate
    SLO engine on (``slo``), mean-field background flows
    (``fluid_flows_per_pair``) or another window policy (``riptide``).
    """

    topology_codes: tuple[str, ...] = EVALUATION_POP_CODES
    source_pops: tuple[str, ...] = (EU_SOURCE, NA_SOURCE)
    seed: int = 42
    #: Simulated seconds of organic traffic before probing starts.
    warmup: float = 20.0
    #: Simulated seconds of probing; a fault schedule is scaled to it.
    duration: float = 60.0
    #: Seconds between probe rounds (the paper's "hourly", compressed).
    probe_interval: float = 6.0
    #: Organic traffic rate per source host (fetches/second).
    organic_rate: float = 3.0
    #: Probability a connection closes after a fetch (churn).
    close_probability: float = 0.35
    #: Fraction of idle probe connections closed before each probe round.
    #: Reproduces the paper's probe population: most probes reuse an
    #: existing connection (unchanged by Riptide), the rest open cold.
    probe_churn: float = 0.4
    #: The evaluation uses prefix granularity — one learned route per
    #: remote PoP /16 — so organic traffic between any pair of machines
    #: teaches the initcwnd used for probe responses to that PoP
    #: (Section III-B, "Destinations as Routes").
    riptide: RiptideConfig = field(
        default_factory=lambda: RiptideConfig(granularity="prefix", prefix_length=16)
    )
    #: The evaluation hosts disable slow-start-after-idle (a common CDN
    #: tuning), so a *reused* connection keeps its grown window: reused
    #: probes are the unchanged bulk of the CDFs, cold probes the part
    #: Riptide improves — the Figure 12-14 population structure.  A
    #: non-empty ``cluster.label`` names the arm instead of
    #: ``control``/``riptide`` (tournament cells carry their policy name).
    cluster: ClusterConfig = field(
        default_factory=lambda: ClusterConfig(
            tcp=TcpConfig(default_initrwnd=300, slow_start_after_idle=False)
        )
    )
    #: Chaos scenario (:mod:`repro.faults.scenarios`) whose fault
    #: schedule runs during probing; None for a fault-free study.
    faults: str | None = None
    #: Run the burn-rate SLO engine alongside the probes.
    slo: bool = False
    #: Mean-field background flows per PoP pair (0 = none).
    fluid_flows_per_pair: float = 0.0


#: The chaos studies' defaults: 90 s of probing under the fault schedule,
#: with the safety guard — the resilience policy under test — and the SLO
#: engine on.  ``run_chaos_study`` takes the PoPs and probe source from
#: the scenario.
CHAOS_STUDY = ProbeStudyConfig(
    duration=90.0,
    riptide=RiptideConfig(granularity="prefix", prefix_length=16, safety_guard=True),
    faults="chaos_lossy_agent",
    slo=True,
)

#: Per-agent counters an arm summary totals over all of its agents.
_AGENT_COUNTERS = (
    "guard_trips",
    "routes_installed",
    "routes_expired",
    "poll_failures",
    "tool_errors",
    "tool_retries",
    "crashes",
)


@dataclass
class ProbeStudyRun:
    """One arm (control or Riptide) of a probe study."""

    cluster: CdnCluster
    fleet: ProbeFleet
    riptide_enabled: bool
    injector: FaultInjector | None = None

    def summary(self) -> "ProbeArmSummary":
        """Detach the picklable measurements from the live cluster."""
        agents = self.cluster.all_agents()
        injector = self.injector
        # Only this arm's alert episodes: a serial run captures both arms
        # into one shared log, so filter by the arm-qualified source.
        label = self.cluster.config.label
        alerts = tuple(
            episode
            for episode in self.cluster.sim.obs.alerts.episodes()
            if source_matches_arm(episode.source, label)
        )
        return ProbeArmSummary(
            fleet=self.fleet.result_set(),
            riptide_enabled=self.riptide_enabled,
            learned_routes=sum(len(agent.learned_table()) for agent in agents),
            events_processed=self.cluster.sim.events_processed,
            faults_injected=injector.injected if injector is not None else 0,
            faults_cleared=injector.cleared if injector is not None else 0,
            alerts=alerts,
            **{
                name: sum(getattr(agent.stats, name) for agent in agents)
                for name in _AGENT_COUNTERS
            },
        )


@dataclass
class ProbeArmSummary:
    """The measurements of one arm, detached from its simulator.

    This is what a parallel worker ships back to the parent process: the
    probe results (behind the same ``fleet`` accessors the figure
    harnesses use on a live run) plus the headline run counters.  The
    live cluster — sockets, callbacks, the event heap — stays in the
    worker and is discarded with it.
    """

    fleet: ProbeResultSet
    riptide_enabled: bool
    learned_routes: int
    events_processed: int
    #: Fault-injector counters (0 without a fault scenario).
    faults_injected: int
    faults_cleared: int
    #: Agent counters, summed over the arm's agents.
    guard_trips: int
    routes_installed: int
    routes_expired: int
    poll_failures: int
    tool_errors: int
    tool_retries: int
    crashes: int
    #: This arm's SLO alert episodes (begin order, arm-filtered).
    alerts: tuple[AlertEpisode, ...]


#: What the figure harnesses actually consume: a live arm (serial path)
#: or a detached summary (parallel path) — both expose ``fleet``
#: accessors and ``riptide_enabled``.
ProbeStudyArm = ProbeStudyRun | ProbeArmSummary


def run_probe_arm(config: ProbeStudyConfig, riptide_enabled: bool) -> ProbeStudyRun:
    """Build and run one arm of the paired study.

    Both arms share the seed, topology, workload schedule, probe schedule
    and fault schedule; the only difference is whether Riptide agents run.
    """
    topology = sub_topology(config.topology_codes)
    cluster_config = replace(
        config.cluster,
        seed=config.seed,
        riptide=config.riptide,
        label=config.cluster.label or ("riptide" if riptide_enabled else "control"),
    )
    cluster = CdnCluster(topology, cluster_config)
    workload_config = OrganicWorkloadConfig(
        rate_per_second=config.organic_rate,
        close_probability=config.close_probability,
    )
    codes = cluster.pop_codes
    for code in codes:
        cluster.add_organic_workload(
            code, [c for c in codes if c != code], workload_config
        )
    if riptide_enabled:
        cluster.start_riptide()
    if config.fluid_flows_per_pair > 0:
        for code in codes:
            cluster.add_fluid_traffic(
                code,
                [c for c in codes if c != code],
                flows_per_destination=config.fluid_flows_per_pair,
            )
    cluster.run(config.warmup)
    # Probes run from a dedicated machine (host 1) in each source PoP,
    # mirroring the paper's diagnostic fleet riding alongside organic
    # traffic.  A fraction of idle probe connections churns away before
    # each round, so the probe population mixes warm reuse with the
    # fresh connections Riptide jump-starts.
    fleet = cluster.make_probe_fleet(
        list(config.source_pops),
        interval=config.probe_interval,
        host_indices=[1],
        churn_probability=config.probe_churn,
    )
    cluster.start_timeline_sampler()
    if config.slo:
        cluster.start_slo()
    fleet.start(initial_delay=0.0)
    injector = None
    if config.faults is not None:
        injector = FaultInjector(
            cluster, get_scenario(config.faults).build(config.duration)
        )
        injector.arm()
    cluster.run(config.duration)
    cluster.sync_flows()
    return ProbeStudyRun(
        cluster=cluster,
        fleet=fleet,
        riptide_enabled=riptide_enabled,
        injector=injector,
    )


def run_arm_pair(
    config: ProbeStudyConfig, workers: int = 1, detach: bool = False
) -> tuple[ProbeStudyArm, ProbeStudyArm]:
    """Run the control and Riptide arms of ``config``; ``(control, riptide)``.

    With ``workers`` > 1 the two independent arms run in forked worker
    processes and come back as detached :class:`ProbeArmSummary` objects
    (byte-identical measurements, in the same order).  Serially the arms
    stay live unless ``detach``, which summarises each arm before the
    next is built, so only one live cluster exists at a time.
    """
    name = config.faults or "probe-study"
    if workers > 1:
        from repro.parallel import run_tasks

        control, riptide = run_tasks(
            [
                lambda: run_probe_arm(config, riptide_enabled=False).summary(),
                lambda: run_probe_arm(config, riptide_enabled=True).summary(),
            ],
            workers=min(workers, 2),
            labels=[f"{name}:control", f"{name}:riptide"],
        )
        return control, riptide
    arms = []
    for riptide_enabled in (False, True):
        arm = run_probe_arm(config, riptide_enabled)
        arms.append(arm.summary() if detach else arm)
    return arms[0], arms[1]


def run_paired_probe_study(
    config: ProbeStudyConfig | None = None,
    workers: int = 1,
) -> tuple[ProbeStudyArm, ProbeStudyArm]:
    """Run control and Riptide arms; returns ``(control, riptide)``.

    The two arms share a config but are fully independent simulations,
    so with ``workers`` > 1 they run concurrently (see
    :func:`run_arm_pair`).  The serial path keeps returning live
    :class:`ProbeStudyRun` objects so callers can keep inspecting
    clusters and agents.
    """
    return run_arm_pair(config if config is not None else ProbeStudyConfig(), workers)
