"""``repro.obs`` — the observability layer.

Metrics (:mod:`repro.obs.metrics`), structured tracing
(:mod:`repro.obs.trace`), per-connection flow records
(:mod:`repro.obs.flow`), lifecycle spans (:mod:`repro.obs.span`),
time-series snapshots (:mod:`repro.obs.timeline`), the windowed
time-series store (:mod:`repro.obs.tsdb`), the burn-rate SLO engine
(:mod:`repro.obs.slo`), the tail-latency attribution report
(:mod:`repro.obs.report`), the learned-table/route-table consistency
auditor (:mod:`repro.obs.audit`), and the per-simulator wiring
(:mod:`repro.obs.instrument`).  The flow, span, timeline, tsdb and
alert stores share one bounded drop-newest base
(:mod:`repro.obs.store`).  See the "Observability" section of
``docs/ARCHITECTURE.md`` for the metric-name reference and the
attribution-cause taxonomy.
"""

from repro.obs.audit import Auditor, Divergence
from repro.obs.flow import FlowLog, FlowRecord
from repro.obs.instrument import (
    Instrumentation,
    active_instrumentation,
    capture,
    disabled,
    instrumentation_for_new_simulator,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricRow,
    format_labels,
)
from repro.obs.report import ATTRIBUTION_CAUSES, build_report, render_report, report_to_json
from repro.obs.slo import (
    DEFAULT_SLO_WINDOW,
    AlertEpisode,
    AlertLog,
    BurnRateRule,
    SloEngine,
    SloSignal,
    SloSpec,
    alert_report_to_json,
    alert_report_to_markdown,
    build_alert_report,
    default_burn_rules,
    default_slos,
    source_matches_arm,
)
from repro.obs.span import Span, SpanLog
from repro.obs.timeline import Timeline, TimelinePoint
from repro.obs.trace import EventType, TraceEvent, TraceLog
from repro.obs.tsdb import TsdbPoint, WindowAggregate, WindowedStore

__all__ = [
    "ATTRIBUTION_CAUSES",
    "DEFAULT_SLO_WINDOW",
    "AlertEpisode",
    "AlertLog",
    "Auditor",
    "BurnRateRule",
    "Counter",
    "Divergence",
    "EventType",
    "FlowLog",
    "FlowRecord",
    "Gauge",
    "Histogram",
    "Instrumentation",
    "MetricRow",
    "MetricsRegistry",
    "SloEngine",
    "SloSignal",
    "SloSpec",
    "Span",
    "SpanLog",
    "Timeline",
    "TimelinePoint",
    "TraceEvent",
    "TraceLog",
    "TsdbPoint",
    "WindowAggregate",
    "WindowedStore",
    "active_instrumentation",
    "alert_report_to_json",
    "alert_report_to_markdown",
    "build_alert_report",
    "build_report",
    "capture",
    "default_burn_rules",
    "default_slos",
    "disabled",
    "format_labels",
    "instrumentation_for_new_simulator",
    "render_report",
    "report_to_json",
    "source_matches_arm",
]
