"""CSV/JSON export of experiment data and run metrics.

Each figure harness prints human-readable tables; downstream users who
want to re-plot with their own tools can dump the underlying series with
these helpers instead of scraping the text output.  The metric/trace
exporters serialise a run's :class:`~repro.obs.MetricsRegistry` and
:class:`~repro.obs.TraceLog` (see ``python -m repro metrics``).
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections.abc import Iterable, Mapping, Sequence

from repro.analysis.cdf import EmpiricalCdf
from repro.obs.flow import FlowLog
from repro.obs.metrics import DEFAULT_PERCENTILES, MetricsRegistry, format_labels
from repro.obs.span import SpanLog
from repro.obs.timeline import Timeline
from repro.obs.trace import TraceLog


def rows_to_csv(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
) -> str:
    """Render rows as CSV text (with header line)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(headers)
    for row in rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but there are {len(headers)} headers"
            )
        writer.writerow(row)
    return buffer.getvalue()


def cdf_to_csv(cdf: EmpiricalCdf, points: int = 200, label: str = "value") -> str:
    """One CDF as ``(value, cumulative_fraction)`` pairs."""
    return rows_to_csv(
        (label, "cumulative_fraction"),
        [(f"{value:.9g}", f"{fraction:.6f}") for value, fraction in cdf.series(points)],
    )


def cdfs_to_csv(
    cdfs: Mapping[str, EmpiricalCdf],
    points: int = 200,
    label: str = "value",
) -> str:
    """Several CDFs in long format: ``series, value, cumulative_fraction``."""
    if not cdfs:
        raise ValueError("cdfs_to_csv needs at least one series")
    rows = []
    for name, cdf in cdfs.items():
        for value, fraction in cdf.series(points):
            rows.append((name, f"{value:.9g}", f"{fraction:.6f}"))
    return rows_to_csv(("series", label, "cumulative_fraction"), rows)


def write_csv(path: str, content: str) -> None:
    """Write CSV text to a file."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(content)


def metrics_to_csv(
    registry: MetricsRegistry,
    percentiles: Iterable[float] = DEFAULT_PERCENTILES,
) -> str:
    """One registry in long format: ``kind, metric, labels, field, value``."""
    rows = []
    for row in registry.snapshot(percentiles):
        for field_name, value in row.fields:
            rows.append(
                (row.kind, row.name, format_labels(row.labels), field_name,
                 f"{value:.9g}")
            )
    return rows_to_csv(("kind", "metric", "labels", "field", "value"), rows)


def metrics_to_json(
    registry: MetricsRegistry,
    percentiles: Iterable[float] = DEFAULT_PERCENTILES,
) -> str:
    """One registry as a JSON document (one object per instrument)."""
    payload = [
        {
            "kind": row.kind,
            "metric": row.name,
            "labels": dict(row.labels),
            **dict(row.fields),
        }
        for row in registry.snapshot(percentiles)
    ]
    return json.dumps(payload, indent=2)


def _prom_escape(value: str) -> str:
    """Escape a label value per the Prometheus exposition format."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _prom_labels(labels: Iterable[tuple[str, str]]) -> str:
    pairs = [f'{key}="{_prom_escape(value)}"' for key, value in labels]
    return "{" + ",".join(pairs) + "}" if pairs else ""


def _prom_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def metrics_to_prometheus(
    registry: MetricsRegistry,
    percentiles: Iterable[float] = DEFAULT_PERCENTILES,
) -> str:
    """One registry in the Prometheus text exposition format.

    Counters and gauges export their current value; histograms export as
    summaries (one ``quantile``-labelled sample per percentile plus
    ``_sum``/``_count``).  The ``_sum`` line is recomputed from the
    sorted sample list with :func:`math.fsum`, so it is byte-identical
    between a serial run and any merge order of parallel worker
    registries (the registry's incremental sum can differ in the last
    ulp across merge orders).  Families and series are emitted in sorted
    order — the output is a deterministic artifact, suitable for byte
    comparison in CI.
    """
    levels = tuple(percentiles)
    lines: list[str] = []
    counters = registry.counters()
    if counters:
        seen: set[str] = set()
        for counter in counters:
            if counter.name not in seen:
                seen.add(counter.name)
                lines.append(f"# TYPE {counter.name} counter")
            lines.append(
                f"{counter.name}{_prom_labels(counter.labels)} {counter.value}"
            )
    seen_gauges: set[str] = set()
    for gauge in registry.gauges():
        if gauge.name not in seen_gauges:
            seen_gauges.add(gauge.name)
            lines.append(f"# TYPE {gauge.name} gauge")
        lines.append(
            f"{gauge.name}{_prom_labels(gauge.labels)} {_prom_value(gauge.value)}"
        )
    seen_summaries: set[str] = set()
    for histogram in registry.histograms():
        if histogram.name not in seen_summaries:
            seen_summaries.add(histogram.name)
            lines.append(f"# TYPE {histogram.name} summary")
        labels = tuple(histogram.labels)
        if histogram.count:
            for level in levels:
                quantile = _prom_value(level / 100.0)
                quantile_labels = _prom_labels(
                    (*labels, ("quantile", quantile))
                )
                lines.append(
                    f"{histogram.name}{quantile_labels} "
                    f"{_prom_value(histogram.percentile(level))}"
                )
        total = math.fsum(histogram.values())
        lines.append(
            f"{histogram.name}_sum{_prom_labels(labels)} {_prom_value(total)}"
        )
        lines.append(
            f"{histogram.name}_count{_prom_labels(labels)} {histogram.count}"
        )
    return "\n".join(lines) + ("\n" if lines else "")


def trace_to_json(log: TraceLog) -> str:
    """A trace log's totals and retained events as a JSON document."""
    payload = {
        "recorded": log.recorded,
        "retained": len(log),
        "dropped": log.dropped,
        "totals": {event_type.value: count for event_type, count in sorted(
            log.totals().items(), key=lambda item: item[0].value
        )},
        "events": [
            {
                "time": event.time,
                "type": event.type.value,
                "source": event.source,
                "details": {k: v for k, v in event.details},
            }
            for event in log.events()
        ],
    }
    return json.dumps(payload, indent=2)


def trace_to_csv(log: TraceLog) -> str:
    """Retained trace events in long format: ``time, type, source, details``.

    Details are flattened ``k=v`` pairs joined with spaces (one column),
    keeping one row per event regardless of each event type's fields.
    """
    rows = []
    for event in log.events():
        details = " ".join(f"{k}={v}" for k, v in event.details)
        rows.append((f"{event.time:.9g}", event.type.value, event.source, details))
    return rows_to_csv(("time", "type", "source", "details"), rows)


def flows_to_jsonl(
    flows: FlowLog,
    since: float | None = None,
    until: float | None = None,
) -> str:
    """Flow records as JSON Lines (one compact object per connection)."""
    records = flows.records(since=since, until=until)
    return "\n".join(
        json.dumps(record.to_dict(), separators=(",", ":"))
        for record in records
    ) + ("\n" if records else "")


def flows_to_json(
    flows: FlowLog,
    since: float | None = None,
    until: float | None = None,
) -> str:
    """Flow records plus log-level counts as one JSON document.

    ``recorded``/``retained``/``dropped`` always describe the whole log;
    ``selected`` and the record list reflect the ``since``/``until``
    sim-time window when one is given.
    """
    records = flows.records(since=since, until=until)
    payload = {
        "recorded": flows.recorded,
        "retained": len(flows),
        "dropped": flows.dropped,
        "selected": len(records),
        "flows": [record.to_dict() for record in records],
    }
    return json.dumps(payload, indent=2)


def spans_to_chrome_json(spans: SpanLog) -> str:
    """Spans as a Chrome trace-event JSON document.

    Loadable directly in Perfetto / ``chrome://tracing``: the object
    format with a ``traceEvents`` array and a display unit.
    """
    payload = {
        "traceEvents": spans.to_chrome_trace(),
        "displayTimeUnit": "ms",
    }
    return json.dumps(payload, indent=2)


def timeline_to_csv(timeline: Timeline) -> str:
    """Timeline points in long format: ``time, source, series, value``."""
    rows = [
        (f"{point.time:.9g}", point.source, point.series, f"{point.value:.9g}")
        for point in timeline.points()
    ]
    return rows_to_csv(("time", "source", "series", "value"), rows)
