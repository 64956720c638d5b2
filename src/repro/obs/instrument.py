"""Instrumentation wiring: one metrics registry + trace log per run.

Every :class:`~repro.sim.kernel.Simulator` owns an
:class:`Instrumentation` (reachable as ``sim.obs``), and every component
already holds a simulator reference — so the registry threads through
all layers without widening a single constructor.

Experiments frequently build *several* simulators (figure sweeps run one
cluster per arm).  :func:`capture` installs a shared instrumentation for
the duration of a ``with`` block: simulators created inside the block
aggregate into it, which is how ``python -m repro metrics <experiment>``
collects one table across a whole sweep.  Capture contexts nest; outside
any context each simulator gets a private instrumentation.

Two additions serve the performance and parallelism work:

* :func:`disabled` installs an instrumentation whose ``enabled`` flag is
  False.  Hot paths (the kernel run loop, per-packet link counters, the
  TCP trace points) check the flag once at construction and skip metric
  work entirely — a true no-op fast path for benchmarking and for bulk
  sweeps that only consume experiment results.
* :meth:`Instrumentation.merge_from` folds another run's metrics and
  trace into this one, in a way that is byte-identical to having run the
  two workloads serially under one capture.  The parallel executor
  (:mod:`repro.parallel`) uses it to merge worker output back into the
  parent registry, in deterministic task order.
"""

from __future__ import annotations

from contextlib import contextmanager
from collections.abc import Iterator

from repro.obs.flow import FlowLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import AlertLog
from repro.obs.span import SpanLog
from repro.obs.timeline import Timeline
from repro.obs.trace import TraceLog
from repro.obs.tsdb import WindowedStore


class Instrumentation:
    """The metrics, traces, flows, spans, timeline and tsdb of one run."""

    def __init__(self, enabled: bool = True) -> None:
        self.metrics = MetricsRegistry()
        self.trace = TraceLog()
        self.flows = FlowLog()
        self.spans = SpanLog()
        self.timeline = Timeline()
        self.tsdb = WindowedStore()
        self.alerts = AlertLog()
        #: When False, components skip instrumentation on their hot paths.
        #: The registry still works (handles can be created and read) so
        #: nothing needs to special-case a disabled run.
        self.enabled = enabled

    def merge_from(self, other: "Instrumentation") -> None:
        """Fold another run's measurements into this one.

        Counters add, gauges adopt the other run's last write (tracking
        the combined high-water mark), histograms merge their samples,
        trace events append in order, and flow/span/timeline stores
        append with dense-id renumbering — the same end state a serial
        execution of both workloads under one capture would produce.
        """
        self.metrics.merge_from(other.metrics)
        self.trace.merge_from(other.trace)
        self.flows.merge_from(other.flows)
        self.spans.merge_from(other.spans)
        self.timeline.merge_from(other.timeline)
        self.tsdb.merge_from(other.tsdb)
        self.alerts.merge_from(other.alerts)

    def __repr__(self) -> str:
        state = "" if self.enabled else " disabled"
        return (
            f"<Instrumentation metrics={len(self.metrics)} "
            f"trace={len(self.trace)} flows={len(self.flows)} "
            f"spans={len(self.spans)}{state}>"
        )


_active: list[Instrumentation] = []


def active_instrumentation() -> Instrumentation | None:
    """The innermost :func:`capture` context's instrumentation, if any."""
    return _active[-1] if _active else None


def instrumentation_for_new_simulator() -> Instrumentation:
    """What a freshly constructed simulator should attach to."""
    shared = active_instrumentation()
    return shared if shared is not None else Instrumentation()


@contextmanager
def capture() -> Iterator[Instrumentation]:
    """Aggregate all simulators created in the block into one instrumentation."""
    instrumentation = Instrumentation()
    _active.append(instrumentation)
    try:
        yield instrumentation
    finally:
        _active.remove(instrumentation)


@contextmanager
def disabled() -> Iterator[Instrumentation]:
    """Run the block with instrumentation off for new simulators.

    Simulators created inside the block attach to a shared instrumentation
    whose ``enabled`` flag is False; their hot paths do no metric or trace
    work at all.  Used by ``python -m repro bench`` to measure the raw
    kernel rate, and available to bulk sweeps that only need results.
    """
    instrumentation = Instrumentation(enabled=False)
    _active.append(instrumentation)
    try:
        yield instrumentation
    finally:
        _active.remove(instrumentation)
