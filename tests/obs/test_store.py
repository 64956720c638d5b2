"""Differential tests for the bounded drop-newest store contract.

Every :class:`~repro.obs.store.BoundedLog` subclass must merge
byte-identically: a parent log that merges per-worker logs in task order
ends up equal to one serial log that recorded every stream itself, on
retained items, dense ids, span parent ids, ``recorded`` and
``dropped``.  The oracle is the serial log.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs import AlertLog, FlowLog, SpanLog, Timeline, WindowedStore
from repro.obs.slo import BurnRateRule
from repro.obs.store import BoundedLog

_RULE = BurnRateRule(severity="page", long_window=60.0, short_window=5.0, burn_factor=14.4)

#: One op: (payload, parent_back).  ``parent_back`` n > 0 makes the
#: op's span a child of the span begun n ops earlier *in the same
#: stream*; spans never parent across tasks, so across a stream
#: boundary it means no parent.
Op = tuple[int, int]


def _feed(log, ops: list[Op], base: int) -> None:
    """Record one task's stream; ``base`` numbers its ops globally."""
    handles: list[object] = []
    for index, (payload, parent_back) in enumerate(ops):
        time = float(base + index)
        source = f"src{payload % 2}"
        if isinstance(log, FlowLog):
            handle = log.begin(
                host=source,
                local="10.0.0.1",
                local_port=payload,
                remote="10.1.0.1",
                remote_port=base + index,
                opened_at=time,
                is_client=bool(payload % 2),
                initial_cwnd=10,
                cwnd_source="default",
            )
        elif isinstance(log, SpanLog):
            parent = handles[index - parent_back] if 0 < parent_back <= index else None
            handle = log.begin(time, f"op{payload}", "probe", source, parent=parent)
        elif isinstance(log, AlertLog):
            handle = log.begin(time, f"slo{payload}", "page", source, _RULE)
        else:
            handle = log.record(time, source, f"series{payload}", float(payload))
        handles.append(handle)


def _snapshot(log) -> tuple:
    """Everything observable about a log, ids included."""
    if isinstance(log, FlowLog):
        items = [(r.flow_id, r.host, r.opened_at) for r in log.records()]
    elif isinstance(log, SpanLog):
        items = [(s.span_id, s.parent_id, s.name, s.begin) for s in log.spans()]
    elif isinstance(log, AlertLog):
        items = [(e.alert_id, e.slo, e.pending_at) for e in log.episodes()]
    else:
        items = list(log.points())
    extra: tuple = ()
    if isinstance(log, WindowedStore):
        # The (source, series) index must track the merged samples too.
        extra = tuple(
            (name, tuple(log.window_values(*name.split(":"), 0, 1e9)))
            for name in log.series_names()
        )
    return (items, log.recorded, log.dropped, len(log), extra)


STORES = [FlowLog, SpanLog, AlertLog, Timeline, WindowedStore]

op = st.tuples(st.integers(0, 3), st.integers(0, 3))
ops = st.lists(op, max_size=24)


@pytest.mark.parametrize("store", STORES, ids=lambda cls: cls.__name__)
@settings(max_examples=60, deadline=None)
@given(
    capacity=st.integers(1, 8),
    prefix=st.lists(op, max_size=10),
    stream=ops,
    cuts=st.lists(st.integers(0, 24), max_size=3),
)
# Room 0: the parent is already full before any worker merges.
@example(capacity=2, prefix=[(0, 0), (1, 0)], stream=[(2, 0), (3, 1)], cuts=[1])
# Exact fill: the workers' items fill the remaining room precisely.
@example(capacity=4, prefix=[(0, 0)], stream=[(1, 0), (2, 1), (3, 1)], cuts=[2])
# One worker alone overflows capacity; the next merges into a full log.
@example(capacity=2, prefix=[], stream=[(0, 0), (1, 1), (2, 1), (3, 2), (0, 0)], cuts=[4])
def test_merge_in_task_order_equals_serial(store, capacity, prefix, stream, cuts):
    bounds = [0, *sorted(min(cut, len(stream)) for cut in cuts), len(stream)]
    tasks = [stream[lo:hi] for lo, hi in zip(bounds, bounds[1:])]

    serial = store(capacity=capacity)
    _feed(serial, prefix, 0)
    parent = store(capacity=capacity)
    _feed(parent, prefix, 0)
    base = len(prefix)
    for task in tasks:
        _feed(serial, task, base)
        worker = store(capacity=capacity)
        _feed(worker, task, base)
        parent.merge_from(worker)
        base += len(task)

    assert _snapshot(parent) == _snapshot(serial)
    assert parent.recorded == len(prefix) + len(stream)
    assert parent.dropped == max(0, parent.recorded - capacity)


@pytest.mark.parametrize("store", STORES, ids=lambda cls: cls.__name__)
def test_every_store_shares_the_base_contract(store):
    assert issubclass(store, BoundedLog)
    for name in ("merge_from", "dropped", "recorded", "__len__", "__repr__"):
        assert name not in vars(store), f"{store.__name__} redefines {name}"
    with pytest.raises(ValueError, match="capacity"):
        store(capacity=0)
    log = store(capacity=3)
    assert repr(log) == f"<{store.__name__} retained=0/3 recorded=0 dropped=0>"
