"""Tests of the benchmark itself: tracer validation and non-interference.

Run from the repository root (takes about three minutes)::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import time

import pytest

import harness
import tracer as tracing
import workloads

harness.use_source_tree()

SEED = 42
NAMES = sorted(workloads.WORKLOADS)

_runs: dict[tuple[str, bool], tuple[harness.Run, dict]] = {}


def bench_run(name: str, trace: bool) -> tuple[harness.Run, dict]:
    """One benchmark repetition in this process, cached for the test run."""
    key = (name, trace)
    if key not in _runs:
        run = harness.execute(name, SEED, trace)
        _runs[key] = (run, harness.measure(run))
    return _runs[key]


# ----------------------------------------------------------------------
# non-interference: window slicing and wrappers change no simulated output
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", NAMES)
def test_benchmark_run_matches_direct_call(name: str) -> None:
    workload = workloads.WORKLOADS[name]
    direct = workload.execute(workload.make_config(SEED))
    run, record = bench_run(name, trace=False)
    assert workloads.outputs_digest(workload.summary(direct)) == (
        workloads.outputs_digest(workload.summary(run.result))
    )
    if name == "probe_study":
        # The paired study returns its live clusters: compare every probe
        # completion time, learned advisory and event count directly.
        direct_outputs = {
            "summary": workload.summary(direct),
            "clusters": [
                workloads.cluster_outputs(arm.cluster, [arm.fleet])
                for arms in direct for arm in arms
            ],
        }
        assert workloads.outputs_digest(direct_outputs) == record["outputs_digest"]
    assert all(ok for _, ok, _ in record["checks"]), record["checks"]


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_simulates_identical_outputs(name: str) -> None:
    _, plain = bench_run(name, trace=False)
    _, traced = bench_run(name, trace=True)
    assert traced["outputs_digest"] == plain["outputs_digest"]
    assert traced["events"] == plain["events"]


def test_every_workload_has_at_least_100_windows() -> None:
    for name in NAMES:
        _, record = bench_run(name, trace=False)
        assert len(record["window_s"]) >= 100, name


# ----------------------------------------------------------------------
# tracer validation: traced counts equal the program's own counters
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", NAMES)
def test_traced_counts_equal_program_counters(name: str) -> None:
    run, record = bench_run(name, trace=True)
    counts = record["counts"]
    clusters = run.harness.clusters
    assert counts["sim.events"] == sum(c.sim.events_processed for c in clusters)
    assert counts["fluid.steps"] == sum(
        c.fluid.steps * len(c.fluid.populations) for c in clusters if c.fluid is not None
    )
    assert counts["core.routes_installed"] == sum(
        agent.stats.routes_installed for c in clusters for agent in c.all_agents()
    )
    assert counts["sim.events"] > 0 and counts["core.routes_installed"] > 0


def test_hybrid_fluid_steps_are_engine_steps_times_populations() -> None:
    run, record = bench_run("hybrid_scale", trace=True)
    assert record["counts"]["fluid.steps"] == run.result.fluid_steps * run.result.populations
    assert record["counts"]["fluid.steps"] > 0


def test_traced_layers_lead_where_the_workload_stresses_them() -> None:
    _, probe = bench_run("probe_study", trace=True)
    layers = sorted(probe["self_s"], key=probe["self_s"].get, reverse=True)
    assert set(layers[:2]) == {"tcp", "net"}
    _, hybrid = bench_run("hybrid_scale", trace=True)
    layers = sorted(hybrid["self_s"], key=hybrid["self_s"].get, reverse=True)
    # net leads through Prefix.contains; fluid shares second place with
    # linux, whose self time is the rest of the same LPM scan.
    assert layers[0] == "net" and "fluid" in layers[1:3]
    assert probe["self_s"].get("fluid", 0.0) == 0.0


def _small_probe_arm() -> tuple[tracing.Tracer, list]:
    """A traced two-PoP arm whose link timers bypass the event runner."""
    from repro.experiments.scenarios import ProbeStudyConfig, run_probe_arm
    from repro.sim.kernel import Simulator

    patches = tracing.Patches()
    bench = harness.Harness()
    tracer = tracing.Tracer("hoisted")
    original = Simulator.__dict__["schedule_fire"]
    try:
        bench.install(patches)
        tracer.install(patches)
        # A path hoisted past the wrapper: what a cached bound method or a
        # private caller of the kernel would do.
        patches.set(Simulator, "schedule_fire", original)
        run_probe_arm(
            ProbeStudyConfig(topology_codes=("LHR", "JFK"), warmup=1.0, duration=3.0),
            riptide_enabled=True,
        )
    finally:
        patches.restore()
    return tracer, bench.clusters


def test_missed_event_path_fails_loudly() -> None:
    tracer, clusters = _small_probe_arm()
    assert tracer.events() > 0
    with pytest.raises(tracing.TraceMismatch, match="sim.events"):
        tracer.validate(workloads.cluster_counts(clusters))


def test_missed_fluid_path_fails_loudly() -> None:
    from repro.experiments.hybrid import HybridScaleConfig, run_scale
    from repro.sim.fluid import FluidPopulation

    patches = tracing.Patches()
    bench = harness.Harness()
    tracer = tracing.Tracer("hoisted-fluid")
    original = FluidPopulation.__dict__["step"]
    try:
        bench.install(patches)
        tracer.install(patches)
        patches.set(FluidPopulation, "step", original)
        run_scale(HybridScaleConfig(flows_per_pair=10.0, warmup=1.0, duration=5.0))
    finally:
        patches.restore()
    assert tracer.counts()["fluid.steps"] == 0
    with pytest.raises(tracing.TraceMismatch, match="fluid.steps"):
        tracer.validate(workloads.cluster_counts(bench.clusters))


def test_idle_required_entry_point_fails_loudly() -> None:
    tracer = tracing.Tracer("idle")
    with pytest.raises(tracing.TraceMismatch, match="net.Network.send"):
        tracer.require_active(("net.Network.send",))


def test_missing_entry_point_fails_at_install() -> None:
    patches = tracing.Patches()
    try:
        with pytest.raises(AttributeError, match="Network.no_such_method"):
            tracing.Tracer("renamed").install(
                patches, (("repro.net.network", "Network.no_such_method", tracing.AGG),)
            )
    finally:
        patches.restore()


def test_install_restores_every_original() -> None:
    from repro.net.network import Network
    from repro.obs import report
    from repro.experiments import tournament

    before = (Network.send, report.build_report, tournament.build_report)
    patches = tracing.Patches()
    tracing.Tracer("restore").install(patches)
    assert tournament.build_report is not before[2]
    patches.restore()
    assert (Network.send, report.build_report, tournament.build_report) == before


def test_self_time_excludes_child_spans() -> None:
    tracer = tracing.Tracer("nesting")

    def child() -> None:
        time.sleep(0.02)

    wrapped_child = tracer.wrap("net.child", child)

    def parent() -> None:
        time.sleep(0.01)
        wrapped_child()

    tracer.wrap("tcp.parent", parent, tracing.KEEP)()
    parent_stats, child_stats = tracer.stats["tcp.parent"], tracer.stats["net.child"]
    assert parent_stats[1] >= child_stats[1] >= 0.02
    assert parent_stats[2] == pytest.approx(parent_stats[1] - child_stats[1])
    assert 0.01 <= parent_stats[2] < 0.02
    ((span_id, parent_id, name, start, end),) = tracer.spans
    assert (span_id, parent_id, name) == (1, 0, "tcp.parent") and end > start
