"""Time-series snapshots on a sim-time cadence.

The paper's operators watch congestion windows *in flight* (Section IV
samples every minute with ``ss``; Figures 7/8 plot learned windows over
time).  A :class:`Timeline` is the store for that view: periodic
``(time, source, series, value)`` points — per-destination learned
windows, installed-route counts, active-fault counts — recorded by a
sampler (:class:`~repro.cdn.monitors.TimelineSampler`) and exportable as
long-format CSV.

The store is a :class:`~repro.obs.store.BoundedLog` (bounded
drop-newest with a total-recorded counter), so merging per-worker
timelines in task order reproduces a serial run's retained points
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.store import BoundedLog


@dataclass(frozen=True, slots=True)
class TimelinePoint:
    """One sampled value of one series on one source."""

    time: float
    source: str
    series: str
    value: float


class Timeline(BoundedLog[TimelinePoint]):
    """All timeline points of one run, bounded drop-newest."""

    __slots__ = ()

    def __init__(self, capacity: int = 200_000) -> None:
        super().__init__(capacity)

    def record(self, time: float, source: str, series: str, value: float) -> None:
        """Append one sample (counted but not stored past capacity)."""
        if self._admit() is not None:
            self._items.append(TimelinePoint(time, source, series, float(value)))

    def points(
        self,
        series: str | None = None,
        source: str | None = None,
        since: float | None = None,
        until: float | None = None,
    ) -> list[TimelinePoint]:
        """Retained points, optionally filtered.

        ``since``/``until`` bound the sampled time, both inclusive, so a
        point exactly on either edge is kept.
        """
        selected = []
        for point in self._items:
            if series is not None and point.series != series:
                continue
            if source is not None and point.source != source:
                continue
            if since is not None and point.time < since:
                continue
            if until is not None and point.time > until:
                continue
            selected.append(point)
        return selected

    def series_names(self) -> list[str]:
        """Distinct ``(source, series)`` pairs flattened, sorted."""
        return sorted({f"{p.source}:{p.series}" for p in self._items})
