"""Windowed time-series store: aligned sim-time windows over raw samples.

The flow/span/timeline stores answer *forensic* questions after a run;
the SLO engine (:mod:`repro.obs.slo`) needs the *monitoring* shape of
the same data — "what was the p90 / ratio / rate of signal X over the
window ending now?".  :class:`WindowedStore` is the bridge: a bounded,
drop-newest sample log (the :class:`~repro.obs.store.BoundedLog`
contract, so ``merge_from`` reproduces a serial run's retained samples
byte-for-byte) with *window-aligned derivations* computed on read.

Windows are aligned to simulated time zero: sample ``t`` falls in window
``floor(t / window)`` for whatever width the reader chooses.  Aggregates
are always recomputed from the retained samples — never maintained
incrementally — so a parallel merge (which concatenates per-task sample
runs in task order) derives the exact floats a serial run would have.

Within one ``(source, series)`` key samples are kept in append order.
Every producer in the tree is single-writer per key (sources are
arm-qualified), so append order is also time order; ``last``-style
derivations are defined on append order and documented as such.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.obs.store import BoundedLog

__all__ = [
    "TsdbPoint",
    "WindowAggregate",
    "WindowedStore",
]


@dataclass(frozen=True, slots=True)
class TsdbPoint:
    """One raw sample of one series on one source."""

    time: float
    source: str
    series: str
    value: float

    def window(self, width: float) -> int:
        """The aligned window index this sample falls in."""
        return math.floor(self.time / width)


@dataclass(frozen=True, slots=True)
class WindowAggregate:
    """Read-time aggregate of one window of one ``(source, series)``."""

    index: int
    count: int
    total: float
    minimum: float
    maximum: float
    #: Last *recorded* value in the window (append order == time order
    #: for the single-writer keys every producer uses).
    last: float

    @property
    def mean(self) -> float:
        return self.total / self.count


class WindowedStore(BoundedLog[TsdbPoint]):
    """Bounded drop-newest sample store with window-aligned readers.

    A :class:`~repro.obs.store.BoundedLog` like the timeline, plus a
    ``(source, series)`` index over the retained samples that merging
    keeps in step through the retain hook.
    """

    __slots__ = ("_by_key",)

    def __init__(self, capacity: int = 500_000) -> None:
        super().__init__(capacity)
        self._by_key: dict[tuple[str, str], list[TsdbPoint]] = {}

    def record(self, time: float, source: str, series: str, value: float) -> None:
        """Record one sample (drop-newest past capacity, still counted)."""
        if self._admit() is None:
            return
        point = TsdbPoint(time=time, source=source, series=series, value=value)
        self._items.append(point)
        self._by_key.setdefault((source, series), []).append(point)

    def _retain(self, item: TsdbPoint) -> None:
        self._by_key.setdefault((item.source, item.series), []).append(item)

    # ------------------------------------------------------------------
    # Raw readers

    def points(
        self,
        series: str | None = None,
        source: str | None = None,
        since: float | None = None,
        until: float | None = None,
    ) -> list[TsdbPoint]:
        """Retained samples in recorded order, optionally filtered."""
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
        """Sorted ``source:series`` names with at least one sample."""
        return sorted(f"{source}:{series}" for source, series in self._by_key)

    def sources_for(self, series: str) -> list[str]:
        """Sorted sources that recorded at least one sample of a series."""
        return sorted(source for source, name in self._by_key if name == series)

    # ------------------------------------------------------------------
    # Window-aligned derivations (window width chosen by the reader)

    @staticmethod
    def window_index(time: float, window: float) -> int:
        """The aligned window index containing a simulated instant."""
        return math.floor(time / window)

    def window_values(
        self, source: str, series: str, index: int, window: float
    ) -> list[float]:
        """Values recorded in one aligned window, in recorded order."""
        run = self._by_key.get((source, series))
        if not run:
            return []
        return [p.value for p in run if p.window(window) == index]

    def aggregate(
        self, source: str, series: str, index: int, window: float
    ) -> WindowAggregate | None:
        """Aggregate one window; None when it holds no samples."""
        values = self.window_values(source, series, index, window)
        if not values:
            return None
        return WindowAggregate(
            index=index,
            count=len(values),
            total=math.fsum(values),
            minimum=min(values),
            maximum=max(values),
            last=values[-1],
        )

    def last(self, source: str, series: str, index: int, window: float) -> float | None:
        """Last recorded value in a window; None when empty."""
        values = self.window_values(source, series, index, window)
        return values[-1] if values else None

    def window_sum(
        self, source: str, series: str, index: int, window: float
    ) -> float | None:
        """Sum of the values in a window; None when empty."""
        values = self.window_values(source, series, index, window)
        return math.fsum(values) if values else None

    def percentile(
        self, source: str, series: str, index: int, window: float, p: float
    ) -> float | None:
        """Nearest-rank percentile of a window's values; None when empty.

        Matches :meth:`repro.obs.metrics.Histogram.percentile` rank
        arithmetic so SLO thresholds and report percentiles agree.
        """
        values = self.window_values(source, series, index, window)
        if not values:
            return None
        values.sort()
        rank = max(0, math.ceil(p / 100.0 * len(values)) - 1)
        return values[min(rank, len(values) - 1)]

    def delta(self, source: str, series: str, index: int, window: float) -> float | None:
        """Change of a cumulative series across one window.

        ``last(index) - last(index - 1)``; None when either window holds
        no sample (no opinion rather than a fabricated zero).
        """
        current = self.last(source, series, index, window)
        if current is None:
            return None
        previous = self.last(source, series, index - 1, window)
        if previous is None:
            return None
        return current - previous

    def rate(self, source: str, series: str, index: int, window: float) -> float | None:
        """Per-second event rate of a window: sum of samples / width."""
        total = self.window_sum(source, series, index, window)
        if total is None:
            return None
        return total / window

    def sum_ratio(
        self,
        source: str,
        numerator: str,
        denominator: str,
        index: int,
        window: float,
        min_denominator: float = 0.0,
    ) -> float | None:
        """Ratio of two series' window sums on one source.

        None when either series has no samples in the window or the
        denominator sum is below ``min_denominator`` (too little signal
        to judge — mirrors the SafetyGuard's ``min_segments`` gate).
        """
        den = self.window_sum(source, denominator, index, window)
        if den is None or den <= 0.0 or den < min_denominator:
            return None
        num = self.window_sum(source, numerator, index, window)
        if num is None:
            return None
        return num / den
