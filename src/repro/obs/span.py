"""Lifecycle spans: begin/end intervals with parent causality.

The Dapper-shaped complement to the point-event trace log: a
:class:`Span` covers an *interval* of simulated time — one agent poll
tick, one probe transfer, one guard hold, one fault window — and may
name a parent span, so a guard trip recorded inside a poll tick is
causally attached to that tick.

Spans export as Chrome trace-event JSON (the ``chrome://tracing`` /
Perfetto format): completed spans become ``"X"`` (complete) events with
microsecond ``ts``/``dur``, spans still open at the end of a run become
``"B"`` (begin) events.  Each distinct span source gets its own track
(``tid``), so a Perfetto timeline shows one lane per host/component.

Like :class:`~repro.obs.flow.FlowLog`, the log is a
:class:`~repro.obs.store.BoundedLog`: bounded drop-newest with dense
ids, so merging renumbers span *and* parent ids and reproduces a serial
run's retained spans exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.store import BoundedLog


@dataclass(slots=True)
class Span:
    """One interval of simulated time on one source."""

    span_id: int
    name: str
    #: Coarse grouping used by the report joiner: ``"agent"``,
    #: ``"probe"``, ``"guard"``, ``"fault"``.
    category: str
    source: str
    begin: float
    end: float | None = None
    parent_id: int | None = None
    details: tuple[tuple[str, object], ...] = ()

    @property
    def duration(self) -> float | None:
        return None if self.end is None else self.end - self.begin

    def detail(self, key: str, default: object = None) -> object:
        for k, v in self.details:
            if k == key:
                return v
        return default


class SpanLog(BoundedLog[Span]):
    """All spans of one run, bounded drop-newest with dense ids."""

    __slots__ = ()

    def __init__(self, capacity: int = 200_000) -> None:
        super().__init__(capacity)

    def begin(
        self,
        time: float,
        name: str,
        category: str,
        source: str,
        parent: Span | None = None,
        **details: object,
    ) -> Span | None:
        """Open a span.  Returns None past capacity (counted, not stored)."""
        span_id = self._admit()
        if span_id is None:
            return None
        span = Span(
            span_id=span_id,
            name=name,
            category=category,
            source=source,
            begin=time,
            parent_id=parent.span_id if parent is not None else None,
            details=tuple(details.items()),
        )
        self._items.append(span)
        return span

    def end(self, span: Span | None, time: float, **details: object) -> None:
        """Close a span, appending any closing details.

        Accepts None (a span that was dropped at begin) so call sites
        never need to guard.
        """
        if span is None:
            return
        span.end = time
        if details:
            span.details = span.details + tuple(details.items())

    def _renumber(self, item: Span, offset: int) -> None:
        item.span_id += offset
        if item.parent_id is not None:
            item.parent_id += offset

    def spans(
        self,
        category: str | None = None,
        source: str | None = None,
        open_only: bool = False,
    ) -> list[Span]:
        """Retained spans, optionally filtered."""
        selected = []
        for span in self._items:
            if category is not None and span.category != category:
                continue
            if source is not None and span.source != source:
                continue
            if open_only and span.end is not None:
                continue
            selected.append(span)
        return selected

    def to_chrome_trace(self) -> list[dict[str, object]]:
        """Spans as Chrome trace-event objects (``ts``/``dur`` in µs).

        Completed spans become phase ``"X"`` events; spans still open
        become phase ``"B"`` events.  Sources map to ``tid`` tracks in
        sorted order so the layout is deterministic.
        """
        tids = {
            source: tid
            for tid, source in enumerate(
                sorted({span.source for span in self._items}), start=1
            )
        }
        events: list[dict[str, object]] = []
        for span in self._items:
            args: dict[str, object] = {"span_id": span.span_id}
            if span.parent_id is not None:
                args["parent_id"] = span.parent_id
            args.update({key: value for key, value in span.details})
            event = {
                "name": span.name,
                "cat": span.category,
                "ph": "X" if span.end is not None else "B",
                "ts": span.begin * 1e6,
                "pid": 1,
                "tid": tids[span.source],
                "args": args,
            }
            if span.end is not None:
                event["dur"] = (span.end - span.begin) * 1e6
            events.append(event)
        return events
