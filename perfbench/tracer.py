"""Per-layer span tracer, installed from outside the program.

The tracer wraps each layer's entry points (class methods and module
functions of the ``repro`` package) with a function that records a span:
name, start, end and the enclosing span.  Self time is a span's duration
minus the time its child spans cover.  Per-packet entry points are
aggregated online (calls, inclusive and self seconds) so memory stays
bounded; coarse entry points (``KEEP``) are also held in full, with their
parent span and the run id, and written out when the run ends.

Every scheduled simulator event is routed through a per-layer event
runner, so a callback's time is charged to the subpackage that owns it
and ``sim`` keeps only the kernel loop itself.  Counts are taken at the
same boundaries; ``validate`` compares them with the program's own
counters, so a path the wrappers miss (a hoisted bound method, a private
caller, a renamed entry point) fails the run instead of reading zero.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections.abc import Callable
from pathlib import Path
from typing import Any

#: Entry points kept as full spans; everything else is aggregated.
KEEP = True
AGG = False

#: (module, attribute path, keep full spans).  The layer of an entry
#: point is the ``repro`` subpackage that defines it (``repro.sim.fluid``
#: is its own layer ``fluid``; ``repro.policy`` belongs to ``core``).
ENTRY_POINTS: tuple[tuple[str, str, bool], ...] = (
    ("repro.sim.kernel", "Simulator.run", KEEP),
    ("repro.sim.fluid", "FluidPopulation.step", AGG),
    ("repro.sim.fluid", "FluidPopulation.offered_bps", AGG),
    ("repro.sim.fluid", "FluidPopulation.sample_ages", AGG),
    ("repro.sim.fluid", "CwndDistribution.sample_windows", AGG),
    ("repro.sim.fluid", "CwndDistribution.total_window_segments", AGG),
    ("repro.net.network", "Network.send", AGG),
    ("repro.net.network", "Network.zone_of", AGG),
    ("repro.net.link", "Link.transmit", AGG),
    ("repro.net.addresses", "Prefix.contains", AGG),
    ("repro.linux.host", "Host.receive_packet", AGG),
    ("repro.linux.route", "RouteTable.lookup", AGG),
    ("repro.linux.ss_tool", "SsTool.tcp_info", AGG),
    ("repro.linux.ip_tool", "IpRouteTool.route_add", AGG),
    ("repro.linux.ip_tool", "IpRouteTool.route_replace", AGG),
    ("repro.linux.ip_tool", "IpRouteTool.route_del", AGG),
    ("repro.tcp.socket", "TcpSocket.handle_segment", AGG),
    ("repro.tcp.socket", "TcpSocket.connect", AGG),
    ("repro.tcp.socket", "TcpSocket._emit", AGG),
    ("repro.tcp.socket", "TcpSocket._retransmit_entry", AGG),
    ("repro.core.agent", "RiptideAgent._tick", KEEP),
    ("repro.core.agent", "RiptideAgent._apply_window", AGG),
    ("repro.core.agent", "RiptideAgent._guard_trip", AGG),
    ("repro.core.guard", "SafetyGuard.observe", AGG),
    ("repro.policy.learners", "EwmaPolicy.decide", AGG),
    ("repro.cdn.cluster", "CdnCluster.__init__", KEEP),
    ("repro.cdn.transfer", "TransferClient.fetch", AGG),
    ("repro.cdn.probes", "ProbeFleet._issue", AGG),
    ("repro.cdn.fluidtraffic", "FluidTraffic._step", KEEP),
    ("repro.cdn.fluidtraffic", "FluidTraffic.socket_stats_for", AGG),
    ("repro.obs.trace", "TraceLog.record", AGG),
    ("repro.obs.span", "SpanLog.begin", AGG),
    ("repro.obs.span", "SpanLog.end", AGG),
    ("repro.obs.flow", "FlowLog.begin", AGG),
    ("repro.obs.tsdb", "WindowedStore.record", AGG),
    ("repro.obs.slo", "SloEngine.evaluate", KEEP),
    ("repro.obs.report", "build_report", KEEP),
    ("repro.faults.engine", "FaultInjector._inject", KEEP),
    ("repro.faults.engine", "FaultInjector._clear", KEEP),
)

_SCHEDULERS = ("schedule", "schedule_at", "schedule_fire")

#: The net layer's per-packet path (``Prefix.contains`` is charged to
#: ``net`` too, but it runs for route lookups, not per packet).
PACKET_PATH = ("net.Network.send", "net.Network.zone_of", "net.Link.transmit", "net.event")


class TraceMismatch(RuntimeError):
    """A traced count disagrees with the program's own counter."""


def layer_of_module(module: str) -> str:
    """The layer name of a ``repro`` module (others keep their top name)."""
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return parts[0]
    if parts[1] == "sim" and len(parts) > 2 and parts[2] == "fluid":
        return "fluid"
    if parts[1] == "policy":
        return "core"
    return parts[1]


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner: object, name: str, value: object) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


def _call_event(callback: Callable[..., None], *args: Any) -> None:
    callback(*args)


class Tracer:
    """Spans and counts for one run, keyed by ``layer.Entry.point``."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        #: name -> [calls, inclusive seconds, self seconds, raised]
        self.stats: dict[str, list[float]] = {}
        #: Full spans: (span id, parent span id, name, start, end).
        self.spans: list[tuple[int, int, str, float, float]] = []
        #: Quantities read from return values at the boundary.
        self.extra = {"route_table_max": 0, "ss_rows": 0, "fluid_ss_rows": 0}
        # Frame: [seconds covered by child spans, enclosing full span id].
        self._stack: list[list[float]] = [[0.0, 0]]
        self._next_span = 1
        self._event_runners: dict[str, Callable[..., None]] = {}

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------

    def wrap(self, name: str, fn: Callable[..., Any], keep: bool = AGG,
             on_return: Callable[[tuple, Any], None] | None = None) -> Callable[..., Any]:
        """``fn`` recording a span called ``name`` around every call."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1]
            if keep:
                span_id = tracer._next_span
                tracer._next_span = span_id + 1
            else:
                span_id = parent[1]
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stats[3] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[0]
                parent[0] += elapsed
                if keep:
                    spans.append((span_id, parent[1], name, start, end))
            if on_return is not None:
                on_return(args, result)
            return result

        return traced

    def _event_runner(self, callback: Callable[..., Any]) -> Callable[..., None]:
        owner = getattr(callback, "__self__", None)
        target = getattr(owner, "_callback", None)
        if target is not None and type(owner).__name__ == "PeriodicProcess":
            callback = target
            owner = getattr(callback, "__self__", None)
        module = getattr(callback, "__module__", None) or type(owner).__module__
        layer = layer_of_module(module)
        runner = self._event_runners.get(layer)
        if runner is None:
            runner = self.wrap(f"{layer}.event", _call_event)
            self._event_runners[layer] = runner
        return runner

    def install(self, patches: Patches,
                entry_points: tuple[tuple[str, str, bool], ...] = ENTRY_POINTS) -> None:
        """Wrap every entry point and the kernel's schedule calls."""
        for module_name, path, keep in entry_points:
            module = importlib.import_module(module_name)
            layer = layer_of_module(module_name)
            name = f"{layer}.{path}"
            if "." in path:
                class_name, attr = path.split(".")
                owner = getattr(module, class_name)
                if attr not in owner.__dict__:
                    raise AttributeError(f"{module_name}.{path} is not defined there")
                patches.set(owner, attr,
                            self.wrap(name, owner.__dict__[attr], keep, self._observer(path)))
            else:
                original = getattr(module, path)
                wrapper = self.wrap(name, original, keep)
                # Rebind every module-level alias (``from x import f``).
                for other in list(sys.modules.values()):
                    if getattr(other, "__dict__", {}).get(path) is original:
                        patches.set(other, path, wrapper)
        simulator = importlib.import_module("repro.sim.kernel").Simulator
        for attr in _SCHEDULERS:
            patches.set(simulator, attr, self._routing(simulator.__dict__[attr]))

    def _routing(self, schedule: Callable[..., Any]) -> Callable[..., Any]:
        runner_for = self._event_runner

        def routed(sim: Any, when: float, callback: Callable[..., Any], *args: Any) -> Any:
            return schedule(sim, when, runner_for(callback), callback, *args)

        return routed

    def _observer(self, path: str) -> Callable[[tuple, Any], None] | None:
        extra = self.extra
        if path == "RouteTable.lookup":
            def table_size(args: tuple, result: Any) -> None:
                size = len(args[0])
                if size > extra["route_table_max"]:
                    extra["route_table_max"] = size
            return table_size
        if path in ("SsTool.tcp_info", "FluidTraffic.socket_stats_for"):
            key = "ss_rows" if path == "SsTool.tcp_info" else "fluid_ss_rows"

            def rows(args: tuple, result: Any) -> None:
                extra[key] += len(result)
            return rows
        return None

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------

    def calls(self, name: str) -> int:
        entry = self.stats.get(name)
        return int(entry[0]) if entry else 0

    def succeeded(self, name: str) -> int:
        entry = self.stats.get(name)
        return int(entry[0] - entry[3]) if entry else 0

    def inclusive_s(self, name: str) -> float:
        entry = self.stats.get(name)
        return entry[1] if entry else 0.0

    def events(self) -> int:
        return sum(self.calls(name) for name in self.stats if name.endswith(".event"))

    def self_s_by_layer(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for name, entry in self.stats.items():
            layer = name.split(".", 1)[0]
            totals[layer] = totals.get(layer, 0.0) + entry[2]
        return totals

    def self_s_of(self, names: tuple[str, ...]) -> float:
        return sum(self.stats[name][2] for name in names if name in self.stats)

    def validate(self, program_counts: dict[str, int]) -> None:
        """Fail unless each traced count equals the program's counter."""
        traced = self.counts()
        wrong = {
            name: (traced[name], expected)
            for name, expected in program_counts.items()
            if traced[name] != expected
        }
        if wrong:
            detail = ", ".join(
                f"{name}: traced {got} vs program {want}"
                for name, (got, want) in sorted(wrong.items())
            )
            raise TraceMismatch(f"wrappers missed calls ({detail})")

    def require_active(self, names: tuple[str, ...]) -> None:
        """Fail when an entry point the workload must exercise never ran."""
        idle = [name for name in names if self.calls(name) == 0]
        if idle:
            raise TraceMismatch(f"entry points never called: {', '.join(idle)}")

    def counts(self) -> dict[str, int]:
        """Deterministic work counts, by per-layer metric name."""
        calls = self.calls
        return {
            "sim.events": self.events(),
            "fluid.steps": calls("fluid.FluidPopulation.step"),
            "net.packets": calls("net.Network.send"),
            "net.link_offers": calls("net.Link.transmit"),
            "net.prefix_checks": calls("net.Prefix.contains"),
            "net.zone_lookups": calls("net.Network.zone_of"),
            "linux.route_lookups": calls("linux.RouteTable.lookup"),
            "linux.route_table_max": self.extra["route_table_max"],
            "linux.ss_rows": self.extra["ss_rows"],
            "linux.ip_changes": sum(
                self.succeeded(f"linux.IpRouteTool.{verb}")
                for verb in ("route_add", "route_replace", "route_del")
            ),
            "tcp.segments": calls("tcp.TcpSocket.handle_segment"),
            "tcp.segments_sent": calls("tcp.TcpSocket._emit"),
            "tcp.retransmits": calls("tcp.TcpSocket._retransmit_entry"),
            "tcp.connections": calls("tcp.TcpSocket.connect"),
            "core.ticks": calls("core.RiptideAgent._tick"),
            "core.routes_installed": self.succeeded("core.RiptideAgent._apply_window"),
            "core.guard_trips": calls("core.RiptideAgent._guard_trip"),
            "cdn.fetches": calls("cdn.TransferClient.fetch"),
            "cdn.probes": calls("cdn.ProbeFleet._issue"),
            "cdn.fluid_engine_steps": calls("cdn.FluidTraffic._step"),
            "cdn.fluid_ss_rows": self.extra["fluid_ss_rows"],
            "obs.trace_records": calls("obs.TraceLog.record"),
            "obs.spans": calls("obs.SpanLog.begin"),
            "obs.flows": calls("obs.FlowLog.begin"),
            "obs.tsdb_records": calls("obs.WindowedStore.record"),
            "obs.slo_evals": calls("obs.SloEngine.evaluate"),
            "faults.injected": calls("faults.FaultInjector._inject"),
        }

    def write_spans(self, path: Path) -> None:
        """Write the run's full spans, then its aggregated entry points."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span_id, parent, name, start, end in self.spans:
                out.write(json.dumps({
                    "run": self.run_id, "span": span_id, "parent": parent,
                    "name": name, "start": start, "end": end,
                }) + "\n")
            for name, (calls, inclusive, self_s, raised) in sorted(self.stats.items()):
                out.write(json.dumps({
                    "run": self.run_id, "aggregate": name, "calls": calls,
                    "inclusive_s": inclusive, "self_s": self_s, "raised": raised,
                }) + "\n")
