"""Differential test: the indexed route table vs the original linear scan.

The pre-index table — a dict of routes scanned in full on every lookup,
keeping the longest matching prefix — is kept here as a test oracle.
Random interleavings of add/replace/delete/update_attributes over
prefixes of every length from ``/0`` to ``/32`` (default and host routes
included) are run through both tables; every lookup must return the same
entry, and ``entries()``, ``get()`` and ``len()`` must agree step for step.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.linux import RouteEntry, RouteTable
from repro.linux.route import KEEP
from repro.net import IPv4Address, Prefix


class OracleTable:
    """The original linear-scan route table, verbatim semantics."""

    def __init__(self) -> None:
        self._routes: dict[Prefix, RouteEntry] = {}

    def __len__(self) -> int:
        return len(self._routes)

    def add(self, entry: RouteEntry) -> None:
        if entry.prefix in self._routes:
            raise KeyError(f"route for {entry.prefix} already exists")
        self._routes[entry.prefix] = entry

    def replace(self, entry: RouteEntry) -> None:
        self._routes[entry.prefix] = entry

    def delete(self, prefix: Prefix) -> RouteEntry:
        return self._routes.pop(prefix)

    def get(self, prefix: Prefix) -> RouteEntry | None:
        return self._routes.get(prefix)

    def lookup(self, destination: IPv4Address) -> RouteEntry | None:
        best: RouteEntry | None = None
        for prefix, entry in self._routes.items():
            if prefix.contains(destination):
                if best is None or prefix.length > best.prefix.length:
                    best = entry
        return best

    def entries(self) -> list[RouteEntry]:
        return sorted(
            self._routes.values(),
            key=lambda e: (-e.prefix.length, e.prefix.network.value),
        )

    def update_attributes(self, prefix: Prefix, initcwnd=KEEP, initrwnd=KEEP) -> RouteEntry:
        entry = self._routes[prefix]
        changes = {}
        if initcwnd is not KEEP:
            changes["initcwnd"] = initcwnd
        if initrwnd is not KEEP:
            changes["initrwnd"] = initrwnd
        updated = replace(entry, **changes)
        self._routes[prefix] = updated
        return updated


#: A few address neighbourhoods, so random prefixes nest and overlap.
ANCHORS = (0x0A000000, 0x0A010203, 0xC0A80101, 0xFFFFFFFF, 0x00000000, 0x7F000001)


def _random_prefix(rng: random.Random) -> Prefix:
    length = rng.choice((0, 32, rng.randint(0, 32)))
    base = rng.choice(ANCHORS) ^ rng.getrandbits(rng.randint(0, 16))
    return Prefix.containing(base & 0xFFFFFFFF, length)


def _random_window(rng: random.Random) -> int | None:
    return rng.choice((None, rng.randint(1, 200)))


def _boundaries(prefix: Prefix) -> list[IPv4Address]:
    """First and last address of a prefix, and their outside neighbours."""
    first = prefix.network.value
    last = first + prefix.num_addresses - 1
    return [
        IPv4Address(value)
        for value in (first - 1, first, last, last + 1)
        if 0 <= value <= 0xFFFFFFFF
    ]


def _same_outcome(call_oracle, call_table):
    """Run one operation on both tables; both raise KeyError or neither."""
    try:
        expected = call_oracle()
    except KeyError:
        with pytest.raises(KeyError):
            call_table()
        return
    assert call_table() == expected


def _assert_agree(oracle: OracleTable, table: RouteTable, destinations) -> None:
    for destination in destinations:
        assert table.lookup(destination) == oracle.lookup(destination), destination
    assert len(table) == len(oracle)
    assert table.entries() == oracle.entries()


def _run_trace(seed: int, steps: int) -> None:
    rng = random.Random(seed)
    oracle = OracleTable()
    table = RouteTable()
    known: list[Prefix] = []
    for step in range(steps):
        # Half the operations target a prefix seen before, so deletes
        # and updates hit installed routes as often as missing ones.
        if known and rng.random() < 0.5:
            prefix = rng.choice(known)
        else:
            prefix = _random_prefix(rng)
            known.append(prefix)
        op = rng.choice(("add", "add", "replace", "delete", "update"))
        if op in ("add", "replace"):
            entry = RouteEntry(
                prefix=prefix, initcwnd=_random_window(rng),
                initrwnd=_random_window(rng), created_at=float(step),
            )
            _same_outcome(
                lambda: getattr(oracle, op)(entry), lambda: getattr(table, op)(entry)
            )
        elif op == "delete":
            _same_outcome(lambda: oracle.delete(prefix), lambda: table.delete(prefix))
        else:
            changes = {}
            if rng.random() < 0.7:
                changes["initcwnd"] = _random_window(rng)
            if rng.random() < 0.7:
                changes["initrwnd"] = _random_window(rng)
            _same_outcome(
                lambda: oracle.update_attributes(prefix, **changes),
                lambda: table.update_attributes(prefix, **changes),
            )
        assert table.get(prefix) == oracle.get(prefix)
        probes = _boundaries(prefix)
        probes += [IPv4Address(rng.getrandbits(32)) for _ in range(8)]
        probes += [IPv4Address(rng.choice(ANCHORS) ^ rng.getrandbits(12)) for _ in range(8)]
        _assert_agree(oracle, table, probes)
        if step % 50 == 49:
            everywhere = [a for route in oracle.entries() for a in _boundaries(route.prefix)]
            _assert_agree(oracle, table, everywhere)
            for known_prefix in known:
                assert table.get(known_prefix) == oracle.get(known_prefix)


@pytest.mark.parametrize("seed", range(8))
def test_random_interleavings_match_linear_scan(seed):
    _run_trace(seed, steps=400)


def test_every_length_nested_then_removed_longest_first():
    """One route per length on one address, torn down from /32 to /0."""
    oracle = OracleTable()
    table = RouteTable()
    address = IPv4Address("10.1.2.3")
    prefixes = [Prefix.containing(address, length) for length in range(33)]
    for length, prefix in enumerate(prefixes):
        entry = RouteEntry(prefix=prefix, initcwnd=length + 1)
        oracle.add(entry)
        table.add(entry)
    probes = [a for prefix in prefixes for a in _boundaries(prefix)]
    for prefix in reversed(prefixes):
        _assert_agree(oracle, table, probes)
        assert table.lookup(address) == oracle.lookup(address) == oracle.get(prefix)
        oracle.delete(prefix)
        table.delete(prefix)
    _assert_agree(oracle, table, probes)
    assert table.lookup(address) is None
