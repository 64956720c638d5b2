"""One benchmark repetition of one workload, in a fresh process.

Usage (``run.py`` starts this; it also works by hand from the repo root)::

    python3 perfbench/harness.py --workload probe_study --seed 42 [--trace]

It times set-up from before ``import repro`` to the first
``CdnCluster.run`` call, then advances every ``CdnCluster.run`` one fixed
simulated window at a time and times each window.  With ``--trace`` it
also installs the per-layer tracer (``tracer.py``), checks every traced
count against the program's own counter, and writes the spans out.  The
last line of standard output is one JSON object describing the
repetition.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"

#: Simulated seconds per timed window.  Slicing ``run(until=...)`` at
#: these bounds executes the same events in the same order (checked by
#: the benchmark's tests), and gives every workload >= 100 windows.
WINDOW_S = 0.2


def use_source_tree() -> None:
    """Import ``repro`` from this checkout's ``src``, failing if absent."""
    if not (SOURCE / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(f"no repro package under {SOURCE}")
    if str(SOURCE) not in sys.path:
        sys.path.insert(0, str(SOURCE))


class Harness:
    """Window slicing of ``CdnCluster.run`` plus a record of what ran.

    Records every cluster built and every probe fleet made, so the
    simulated outputs can be read back after the entry point returns
    whatever it returns.
    """

    def __init__(self) -> None:
        self.window_s: list[float] = []
        self.run_s = 0.0
        self.first_run_at: float | None = None
        self.clusters: list[Any] = []
        self.fleets: dict[int, list[Any]] = {}

    def install(self, patches: Any) -> None:
        from repro.cdn.cluster import CdnCluster

        harness = self
        clock = time.perf_counter
        original_init = CdnCluster.__init__
        original_fleet = CdnCluster.make_probe_fleet

        def init(cluster: Any, *args: Any, **kwargs: Any) -> None:
            original_init(cluster, *args, **kwargs)
            harness.clusters.append(cluster)

        def make_probe_fleet(cluster: Any, *args: Any, **kwargs: Any) -> Any:
            fleet = original_fleet(cluster, *args, **kwargs)
            harness.fleets.setdefault(id(cluster), []).append(fleet)
            return fleet

        def run(cluster: Any, duration: float) -> float:
            if harness.first_run_at is None:
                harness.first_run_at = clock()
            sim = cluster.sim
            start = sim.now
            until = start + duration  # the bound CdnCluster.run itself uses
            index = 1
            while True:
                bound = start + index * WINDOW_S
                last = bound >= until
                began = clock()
                now = sim.run(until=until if last else bound)
                elapsed = clock() - began
                harness.window_s.append(elapsed)
                harness.run_s += elapsed
                if last:
                    return now
                index += 1

        patches.set(CdnCluster, "__init__", init)
        patches.set(CdnCluster, "run", run)
        patches.set(CdnCluster, "make_probe_fleet", make_probe_fleet)

    def outputs(self, workload: Any, result: Any) -> dict[str, Any]:
        """Every simulated output of the run, for byte-identity checks."""
        from workloads import cluster_outputs

        return {
            "summary": workload.summary(result),
            "clusters": [
                cluster_outputs(cluster, self.fleets.get(id(cluster), []))
                for cluster in self.clusters
            ],
        }

    def all_fleets(self) -> list[Any]:
        return [fleet for cluster in self.clusters for fleet in self.fleets.get(id(cluster), [])]


def peak_rss_mb() -> float:
    """Peak resident memory of this process (``VmHWM``), in MiB."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


@dataclass
class Run:
    """One executed workload and everything recorded around it."""

    workload: Any
    seed: int
    config: Any
    result: Any
    harness: Harness
    tracer: Any
    started: float
    imported: float


def execute(name: str, seed: int, trace: bool, started: float | None = None) -> Run:
    """Import the program, then run one workload under the harness."""
    started = time.perf_counter() if started is None else started
    use_source_tree()
    import repro.experiments  # noqa: F401 - timed: the set-up a user pays

    imported = time.perf_counter()
    import tracer as tracing
    import workloads

    workload = workloads.WORKLOADS[name]
    config = workload.make_config(seed)
    patches = tracing.Patches()
    harness = Harness()
    tracer = None
    try:
        harness.install(patches)
        entry = workload.execute
        if trace:
            tracer = tracing.Tracer(f"{name}-seed{seed}-pid{os.getpid()}")
            tracer.install(patches)
            entry = tracer.wrap(f"experiments.{name}", entry, tracing.KEEP)
        result = entry(config)
    finally:
        patches.restore()
    if harness.first_run_at is None:
        raise RuntimeError(f"{name} never called CdnCluster.run")
    return Run(workload, seed, config, result, harness, tracer, started, imported)


def measure(run: Run, spans_out: Path | None = None) -> dict[str, Any]:
    """Check the run's outputs and return its measurements."""
    import tracer as tracing
    import workloads

    workload, harness, tracer = run.workload, run.harness, run.tracer
    digest = workloads.outputs_digest(harness.outputs(workload, run.result))
    checks = workload.checks(run.result)
    started_probes, completed, failed = workloads.probe_operations(harness.all_fleets())
    finished = time.perf_counter()
    clusters = harness.clusters
    record: dict[str, Any] = {
        "workload": workload.name,
        "seed": run.seed,
        "config_digest": workloads.config_digest(workload, run.config),
        "outputs_digest": digest,
        "checks": [[c.name, c.ok, c.detail] for c in checks],
        "probes_started": started_probes,
        "probes_completed": completed,
        "probes_failed": failed,
        "wall_s": finished - run.started,
        "setup_s": harness.first_run_at - run.started,
        "import_s": run.imported - run.started,
        "build_s": harness.first_run_at - run.imported,
        "run_s": harness.run_s,
        "window_s": harness.window_s,
        "peak_rss_mb": peak_rss_mb(),
        "events": sum(c.sim.events_processed for c in clusters),
        "link_drop_ratio": workloads.link_drop_ratio(clusters),
        "trace_dropped": sum(
            obs.trace.dropped
            for obs in {id(c.sim.obs): c.sim.obs for c in clusters}.values()
        ),
    }
    if tracer is not None:
        program = workloads.cluster_counts(clusters)
        program.update(workload.program_counts(run.result))
        tracer.validate(program)
        tracer.require_active(workload.active)
        record["counts"] = tracer.counts()
        record["self_s"] = tracer.self_s_by_layer()
        record["packet_path_s"] = tracer.self_s_of(tracing.PACKET_PATH)
        record["inclusive_s"] = {
            "linux.route_lookup": tracer.inclusive_s("linux.RouteTable.lookup"),
            "obs.report": tracer.inclusive_s("obs.build_report"),
        }
        record["spans_kept"] = len(tracer.spans)
        if spans_out is not None:
            tracer.write_spans(spans_out)
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans-out", type=Path, default=None)
    args = parser.parse_args(argv)
    run = execute(args.workload, args.seed, args.trace, started=PROCESS_START)
    record = measure(run, args.spans_out)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
