"""IPv4 addresses and prefixes.

Implemented over plain integers (rather than :mod:`ipaddress`) so the route
table in :mod:`repro.linux.route` can do longest-prefix matching with simple
mask arithmetic, mirroring how the kernel FIB behaves when Riptide installs
``/32`` host routes or broader prefix routes.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import total_ordering

from repro.net.errors import AddressError

_MAX_IPV4 = 0xFFFFFFFF


def _parse_dotted_quad(text: str) -> int:
    parts = text.split(".")
    if len(parts) != 4:
        raise AddressError(f"malformed IPv4 address {text!r}")
    value = 0
    for part in parts:
        if not part.isdigit():
            raise AddressError(f"malformed IPv4 address {text!r}")
        octet = int(part)
        if octet > 255:
            raise AddressError(f"octet out of range in {text!r}")
        value = (value << 8) | octet
    return value


@total_ordering
class IPv4Address:
    """An immutable IPv4 address."""

    __slots__ = ("_value",)

    def __init__(self, value: "int | str | IPv4Address") -> None:
        if isinstance(value, IPv4Address):
            self._value = value._value
        elif isinstance(value, str):
            self._value = _parse_dotted_quad(value)
        elif isinstance(value, int):
            if not 0 <= value <= _MAX_IPV4:
                raise AddressError(f"address integer out of range: {value}")
            self._value = value
        else:
            raise AddressError(f"cannot build address from {type(value).__name__}")

    @property
    def value(self) -> int:
        return self._value

    def __int__(self) -> int:
        return self._value

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IPv4Address):
            return self._value == other._value
        return NotImplemented

    def __lt__(self, other: "IPv4Address") -> bool:
        return self._value < other._value

    def __hash__(self) -> int:
        return hash(self._value)

    def __str__(self) -> str:
        v = self._value
        return f"{(v >> 24) & 0xFF}.{(v >> 16) & 0xFF}.{(v >> 8) & 0xFF}.{v & 0xFF}"

    def __repr__(self) -> str:
        return f"IPv4Address('{self}')"


class Prefix:
    """An immutable IPv4 prefix (network address + mask length).

    The mask and the hash are computed once at construction: prefixes
    are dictionary keys in the route table and the zone map, and
    :meth:`contains` runs on every zone resolution.
    """

    __slots__ = ("_network", "_length", "_mask", "_hash")

    def __init__(self, network: "int | str | IPv4Address", length: int) -> None:
        mask = netmask(length)
        addr = IPv4Address(network)
        if addr._value & ~mask & _MAX_IPV4:
            raise AddressError(
                f"{addr}/{length} has host bits set; not a valid network address"
            )
        self._set(addr, length, mask)

    def _set(self, network: IPv4Address, length: int, mask: int) -> None:
        self._network = network
        self._length = length
        self._mask = mask
        # Equal to ``hash((network, length))``: an address hashes as its
        # integer, so set and dict iteration orders stay what they were.
        self._hash = hash((network._value, length))

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse ``"a.b.c.d/len"``; a bare address parses as a /32."""
        if "/" in text:
            addr_text, _, len_text = text.partition("/")
            if not len_text.isdigit():
                raise AddressError(f"malformed prefix {text!r}")
            return cls(addr_text, int(len_text))
        return cls(text, 32)

    @classmethod
    def host(cls, address: "int | str | IPv4Address") -> "Prefix":
        """The /32 prefix covering exactly one host."""
        return cls.containing(address, 32)

    @classmethod
    def containing(cls, address: "int | str | IPv4Address", length: int) -> "Prefix":
        """The prefix of the given length that contains ``address``."""
        mask = netmask(length)
        if not isinstance(address, IPv4Address):
            address = IPv4Address(address)
        value = address._value & mask
        prefix = cls.__new__(cls)
        # Masking cannot set host bits, so the network needs no check; an
        # address that is already its own network is shared, not copied.
        prefix._set(
            address if value == address._value else IPv4Address(value), length, mask
        )
        return prefix

    @property
    def network(self) -> IPv4Address:
        return self._network

    @property
    def length(self) -> int:
        return self._length

    @property
    def mask(self) -> int:
        return self._mask

    @property
    def num_addresses(self) -> int:
        return 1 << (32 - self._length)

    def contains(self, address: "int | str | IPv4Address") -> bool:
        if isinstance(address, IPv4Address):
            return address._value & self._mask == self._network._value
        return IPv4Address(address)._value & self._mask == self._network._value

    def contains_prefix(self, other: "Prefix") -> bool:
        """True when ``other`` is fully inside this prefix."""
        return other._length >= self._length and self.contains(other._network)

    def addresses(self) -> Iterator[IPv4Address]:
        """Iterate every address in the prefix (small prefixes only)."""
        base = self._network._value
        for offset in range(self.num_addresses):
            yield IPv4Address(base + offset)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Prefix):
            return (
                self._network._value == other._network._value
                and self._length == other._length
            )
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return f"{self._network}/{self._length}"

    def __repr__(self) -> str:
        return f"Prefix.parse('{self}')"


#: Netmask by prefix length, ``/0`` to ``/32``.
_MASKS: tuple[int, ...] = tuple(
    (_MAX_IPV4 << (32 - length)) & _MAX_IPV4 for length in range(33)
)


def netmask(length: int) -> int:
    """The netmask of a prefix length; lengths outside 0..32 are rejected."""
    if not 0 <= length <= 32:
        raise AddressError(f"prefix length out of range: {length}")
    return _MASKS[length]
