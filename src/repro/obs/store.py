"""Bounded drop-newest stores: the retention contract of the obs logs.

Flow records, spans, alert episodes, timeline points and tsdb samples
are all kept the same way.  A run counts every item it records but
retains only the first ``capacity`` of them (drop-*newest*), so a serial
run and a parallel run merged in task order keep exactly the same
prefix.  :class:`BoundedLog` owns that contract once:

* ``recorded`` counts every item, retained or not, and never truncates.
  It doubles as the dense-id source: the n-th item admitted gets id n.
* ``dropped`` is ``recorded - len(log)``.
* :meth:`BoundedLog.merge_from` appends another log's retained items
  until capacity and adds the other's ``recorded``.  Two per-item hooks
  let a subclass adapt what it adopts: :meth:`~BoundedLog._renumber`
  shifts an item's ids by this log's ``recorded`` offset (the ids a
  serial run would have assigned) and :meth:`~BoundedLog._retain`
  updates any index the subclass keeps over its retained items.

Subclasses keep only their record type, a typed ``begin``/``record``
that calls :meth:`~BoundedLog._admit`, and their filtered readers.  The
trace ring (:class:`~repro.obs.trace.TraceLog`) is deliberately not one
of them: it drops the *oldest* events, so a truncated run keeps its most
recent history, and it counts totals per event type.
"""

from __future__ import annotations

from typing import Generic, TypeVar

__all__ = ["BoundedLog"]

T = TypeVar("T")


class BoundedLog(Generic[T]):
    """Items of one run, bounded drop-newest, counted past capacity."""

    __slots__ = ("capacity", "_items", "_next_id")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._items: list[T] = []
        self._next_id = 0

    def _admit(self) -> int | None:
        """Count one new item: its dense id, or None past capacity."""
        item_id = self._next_id
        self._next_id = item_id + 1
        return item_id if len(self._items) < self.capacity else None

    def _renumber(self, item: T, offset: int) -> None:
        """Shift the ids of an item merged in behind ``offset`` others."""

    def _retain(self, item: T) -> None:
        """Index an item merged in from another log."""

    def merge_from(self, other: BoundedLog[T]) -> None:
        """Fold another log's items into this one, byte-identically.

        The other log's retained items are renumbered past this log's
        ``recorded`` count and append until capacity, so ids, retained
        items and ``dropped`` all match one serial log that recorded
        both streams in task order.
        """
        offset = self._next_id
        for item in other._items[: self.capacity - len(self._items)]:
            self._renumber(item, offset)
            self._items.append(item)
            self._retain(item)
        self._next_id = offset + other._next_id

    @property
    def recorded(self) -> int:
        """Items ever recorded, retained or not (the next dense id)."""
        return self._next_id

    @property
    def dropped(self) -> int:
        """Items recorded past capacity and therefore not retained."""
        return self._next_id - len(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} retained={len(self._items)}/{self.capacity} "
            f"recorded={self._next_id} dropped={self.dropped}>"
        )
