"""The repo benchmark: end-to-end and per-layer metrics for three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload probe_study --seed 42 --seconds 44 --trace 0
    python3 perfbench/run.py --workload all --seed 42 --seconds 44 --trace 0

Each repetition runs in a fresh process (``harness.py``), so set-up is
paid and measured every time.  The number of repetitions is fixed by the
workload and ``--seconds`` alone (``repetitions``), never by how fast the
code runs.  Every repetition of a seed simulates the same events, so
``run_s`` sums, over the simulated windows, the fastest repetition's time
for each window; the window percentiles come from that same series, and
``wall_s`` adds the fastest time outside ``CdnCluster.run``.  ``setup_s``
and ``peak_rss_mb`` are medians over the repetitions.
``--trace 0`` prints the end-to-end metrics, measured with tracing off.
``--trace 1`` alternates untraced and traced repetitions and prints the
per-layer metrics plus the tracing overhead.  Both modes run the
workload's correctness checks and require every repetition of the seed
to simulate byte-identical outputs.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Provenance and every repetition's raw record go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("probe_study", "hybrid_scale", "chaos_cell")

#: A repetition may take this long before the run is declared hung.
REP_TIMEOUT_S = 150.0

#: Seconds one untraced repetition took on a 2-vCPU x86 VM when the
#: benchmark was defined.  They turn ``--seconds`` into a repetition
#: count and are never re-measured, so parent and change always take
#: the per-window minimum over the same number of repetitions.
NOMINAL_REP_S = {"probe_study": 20.0, "hybrid_scale": 7.0, "chaos_cell": 20.0}

END_TO_END = (
    ("wall_s", "s"), ("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MiB"),
)

#: End-to-end quantities measured untraced but listed with the per-layer
#: metrics, which carry no bound: across seeds their spread is set by
#: each seed's traffic (up to 0.36 of the median), beyond any bound.
UNBOUNDED = (("window_ms_p50", "ms"), ("window_ms_p90", "ms"), ("fail_ratio", "ratio"))

PER_LAYER = (
    *UNBOUNDED,
    ("sim.events", "count"), ("sim.self_s", "s"), ("sim.events_per_s", "1/s"),
    ("fluid.steps", "count"), ("fluid.self_s", "s"), ("fluid.step_us", "us"),
    ("net.packets", "count"), ("net.self_s", "s"), ("net.packet_us", "us"),
    ("net.prefix_checks", "count"), ("net.zone_lookups", "count"),
    ("net.drop_ratio", "ratio"),
    ("linux.route_lookups", "count"), ("linux.route_lookup_us", "us"),
    ("linux.route_table_max", "count"), ("linux.ss_rows", "count"),
    ("linux.ip_changes", "count"), ("linux.self_s", "s"),
    ("tcp.segments", "count"), ("tcp.self_s", "s"), ("tcp.segment_us", "us"),
    ("tcp.connections", "count"), ("tcp.retransmit_ratio", "ratio"),
    ("core.ticks", "count"), ("core.self_s", "s"),
    ("core.routes_installed", "count"), ("core.guard_trips", "count"),
    ("cdn.fetches", "count"), ("cdn.probes", "count"), ("cdn.self_s", "s"),
    ("cdn.fluid_ss_rows", "count"),
    ("obs.self_s", "s"), ("obs.trace_records", "count"),
    ("obs.trace_dropped", "count"), ("obs.spans", "count"),
    ("obs.flows", "count"), ("obs.tsdb_records", "count"),
    ("obs.slo_evals", "count"), ("obs.report_s", "s"),
    ("faults.injected", "count"), ("faults.self_s", "s"),
    ("setup.import_s", "s"), ("setup.build_s", "s"),
    ("trace.overhead_s", "s"),
)

#: Counts that must repeat exactly between traced repetitions.
DETERMINISTIC = (
    "sim.events", "net.packets", "tcp.segments", "fluid.steps",
    "linux.route_lookups", "net.prefix_checks",
)


class BenchmarkError(RuntimeError):
    pass


def host_speed_ms() -> float:
    """Milliseconds for a fixed pure-Python loop: a host-noise reading only."""
    started = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return (time.perf_counter() - started) * 1000.0


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
        check=False,
    )
    return done.stdout.strip() or None


def prepare() -> None:
    """Check the checkout holds the program, and byte-compile it once."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no repro package under {ROOT / 'src'}")
    done = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src"], cwd=ROOT,
        capture_output=True, text=True, timeout=REP_TIMEOUT_S, check=False,
    )
    if done.returncode != 0:
        raise BenchmarkError(f"compileall failed:\n{done.stdout}{done.stderr}")


def repetition(workload: str, seed: int, trace: bool) -> dict[str, Any]:
    """Run one repetition in a fresh process and return its record."""
    command = [sys.executable, str(HERE / "harness.py"),
               "--workload", workload, "--seed", str(seed)]
    if trace:
        command += ["--trace", "--spans-out",
                    str(OUT / f"spans-{workload}-seed{seed}.jsonl")]
    speed = host_speed_ms()
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True,
        timeout=REP_TIMEOUT_S, check=False,
    )
    if done.returncode != 0:
        raise BenchmarkError(
            f"{workload} repetition failed (exit {done.returncode}):\n{done.stderr[-4000:]}"
        )
    record = json.loads(done.stdout.strip().splitlines()[-1])
    record["host_speed_ms"] = speed
    record["traced"] = trace
    return record


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def repetitions(workload: str, seconds: float, trace: bool) -> int:
    """How many repetitions a run makes: 2 / 6 / 2 at ``--seconds 44``.

    A traced run pairs every traced repetition with an untraced one, so
    it makes half as many pairs.
    """
    count = max(1, round(seconds / NOMINAL_REP_S[workload]))
    return max(1, count // 2) if trace else count


def run_repetitions(workload: str, seed: int, seconds: float, trace: bool
                    ) -> tuple[list[dict[str, Any]], list[dict[str, Any]]]:
    """Untraced (and, with ``trace``, traced) records of one run."""
    plain: list[dict[str, Any]] = []
    traced: list[dict[str, Any]] = []
    for _ in range(repetitions(workload, seconds, trace)):
        plain.append(repetition(workload, seed, trace=False))
        if trace:
            traced.append(repetition(workload, seed, trace=True))
    return plain, traced


def fastest_windows(records: list[dict[str, Any]]) -> list[float]:
    """Per simulated window, the fastest repetition's host seconds.

    Every repetition of a seed simulates the same events, so window k
    does the same work each time.  Other tenants of the host only ever
    slow a window down, so the fastest copy is the least disturbed one.
    """
    lengths = {len(r["window_s"]) for r in records}
    if len(lengths) != 1:
        raise BenchmarkError(f"repetitions ran different window counts: {lengths}")
    return [min(copies) for copies in zip(*(r["window_s"] for r in records))]


def unbounded(records: list[dict[str, Any]]) -> dict[str, tuple[float, int]]:
    """(value, sample count) per ``UNBOUNDED`` metric, from untraced records."""
    windows = fastest_windows(records)
    fail = [
        1.0 if not all(ok for _, ok, _ in r["checks"])
        else (r["probes_started"] - r["probes_completed"]) / r["probes_started"]
        for r in records
    ]
    return {
        "window_ms_p50": (percentile(windows, 50) * 1000.0, len(windows)),
        "window_ms_p90": (percentile(windows, 90) * 1000.0, len(windows)),
        "fail_ratio": (statistics.median(fail), len(records)),
    }


def end_to_end(records: list[dict[str, Any]]) -> dict[str, tuple[float, int]]:
    """(value, sample count) per end-to-end metric."""
    windows = fastest_windows(records)
    run_s = sum(windows)
    n = len(records)
    return {
        "wall_s": (min(r["wall_s"] - r["run_s"] for r in records) + run_s, n),
        "setup_s": (statistics.median(r["setup_s"] for r in records), n),
        "run_s": (run_s, n),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in records), n),
    }


def per_layer(plain: list[dict[str, Any]], traced: list[dict[str, Any]]
              ) -> dict[str, tuple[float, int]]:
    """(value, sample count) per per-layer metric, from traced records."""
    for name in DETERMINISTIC:
        values = {r["counts"][name] for r in traced}
        if len(values) != 1:
            raise BenchmarkError(f"{name} differs between traced repetitions: {values}")
    n = len(traced)
    counts = traced[0]["counts"]

    def med(read: Any) -> float:
        return statistics.median(read(r) for r in traced)

    def self_s(layer: str) -> float:
        return med(lambda r: r["self_s"].get(layer, 0.0))

    def per_call_us(layer: str, count: str) -> float:
        calls = counts[count]
        return self_s(layer) / calls * 1e6 if calls else 0.0

    run_s = sum(fastest_windows(plain))
    lookups = counts["linux.route_lookups"]
    sent = counts["tcp.segments_sent"]
    values: dict[str, float] = {
        name: float(counts[name]) for name, unit in PER_LAYER
        if unit == "count" and name in counts
    }
    values.update({
        "sim.self_s": self_s("sim"),
        "sim.events_per_s": plain[0]["events"] / run_s,
        "fluid.self_s": self_s("fluid"),
        "fluid.step_us": per_call_us("fluid", "fluid.steps"),
        "net.self_s": self_s("net"),
        "net.packet_us": (
            med(lambda r: r["packet_path_s"]) / counts["net.packets"] * 1e6
            if counts["net.packets"] else 0.0
        ),
        "net.drop_ratio": traced[0]["link_drop_ratio"],
        "linux.route_lookup_us": (
            med(lambda r: r["inclusive_s"]["linux.route_lookup"]) / lookups * 1e6
            if lookups else 0.0
        ),
        "linux.self_s": self_s("linux"),
        "tcp.self_s": self_s("tcp"),
        "tcp.segment_us": per_call_us("tcp", "tcp.segments"),
        "tcp.retransmit_ratio": counts["tcp.retransmits"] / sent if sent else 0.0,
        "core.self_s": self_s("core"),
        "cdn.self_s": self_s("cdn"),
        "obs.self_s": self_s("obs"),
        "obs.trace_dropped": float(traced[0]["trace_dropped"]),
        "obs.report_s": med(lambda r: r["inclusive_s"]["obs.report"]),
        "faults.self_s": self_s("faults"),
        "setup.import_s": statistics.median(r["import_s"] for r in plain),
        "setup.build_s": statistics.median(r["build_s"] for r in plain),
        "trace.overhead_s": med(lambda r: r["wall_s"])
        - statistics.median(r["wall_s"] for r in plain),
    })
    metrics = {name: (values[name], n) for name, _ in PER_LAYER if name in values}
    metrics.update(unbounded(plain))
    return {name: metrics[name] for name, _ in PER_LAYER}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    """Run one workload; returns its result object and prints a report."""
    plain, traced = run_repetitions(workload, seed, seconds, trace)
    records = plain + traced
    digests = {r["outputs_digest"] for r in records}
    configs = {r["config_digest"] for r in records}
    checks: dict[str, tuple[bool, str]] = {}
    for record in records:
        for name, ok, detail in record["checks"]:
            if name not in checks or not ok:
                checks[name] = (ok, detail)
    checks["identical_outputs"] = (
        len(digests) == 1,
        f"{len(records)} repetitions simulated {len(digests)} distinct output digest(s)",
    )
    correct = all(ok for ok, _ in checks.values())
    attempted = sum(r["probes_started"] for r in records)
    failed = attempted if not correct else sum(r["probes_failed"] for r in records)
    if trace:
        metrics, units = per_layer(plain, traced), dict(PER_LAYER)
    else:
        metrics, units = end_to_end(plain), dict(END_TO_END)

    print(f"== {workload}  seed={seed}  trace={int(trace)}  "
          f"repetitions={len(plain)} untraced + {len(traced)} traced")
    for name, (value, samples) in metrics.items():
        print(f"  {name:<24} {value:>16.6g} {units[name]:<6} (n={samples})")
    if not trace:
        for name, (value, samples) in unbounded(plain).items():
            print(f"  {name:<24} {value:>16.6g} {dict(UNBOUNDED)[name]:<6} "
                  f"(n={samples}; listed per-layer, no bound)")
    for name, (ok, detail) in checks.items():
        print(f"  check {'PASS' if ok else 'FAIL'} {name}: {detail}")
    provenance = {
        "commit": commit(),
        "source_digest": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "config_digest": sorted(configs),
        "host_speed_ms": [round(r["host_speed_ms"], 3) for r in records],
    }
    print(f"  provenance {json.dumps(provenance)}")
    OUT.mkdir(exist_ok=True)
    artifact = OUT / f"{workload}-seed{seed}-trace{int(trace)}.json"
    artifact.write_text(json.dumps({
        "provenance": provenance, "checks": checks, "repetitions": records,
        "metrics": {k: {"value": v, "unit": units[k], "samples": n}
                    for k, (v, n) in metrics.items()},
    }, indent=1))
    return {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, (v, _) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=44.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        prepare()
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {
            name: measure(name, args.seed, args.seconds, bool(args.trace))
            for name in names
        }
    except (BenchmarkError, subprocess.TimeoutExpired) as error:
        print(f"benchmark error: {error}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
