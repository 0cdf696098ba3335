"""Identifier helpers: IPv4 addresses, prefixes, and ASN allocation.

IPv4 addresses are plain 32-bit ints internally; :class:`Prefix` wraps a
CIDR block with membership tests and sequential address allocation —
enough to model IXP peering LANs and per-AS router addressing, and to
reimplement the paper's hop-IP-to-IXP matching exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError


def ip_to_int(text: str) -> int:
    """Parse dotted-quad IPv4 into a 32-bit int."""
    parts = text.split(".")
    if len(parts) != 4:
        raise SimulationError(f"malformed IPv4 address {text!r}")
    value = 0
    for part in parts:
        if not part.isdecimal():
            raise SimulationError(f"malformed IPv4 address {text!r}")
        octet = int(part)
        if octet > 255:
            raise SimulationError(f"octet {octet} out of range in {text!r}")
        value = (value << 8) | octet
    return value


def int_to_ip(value: int) -> str:
    """Format a 32-bit int as dotted-quad IPv4."""
    if not 0 <= value <= 0xFFFFFFFF:
        raise SimulationError(f"IPv4 value {value} out of range")
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


@dataclass(frozen=True)
class Prefix:
    """An IPv4 CIDR block.

    Attributes
    ----------
    network:
        Network address as a 32-bit int (host bits must be zero).
    length:
        Prefix length in [0, 32].
    """

    network: int
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.length <= 32:
            raise SimulationError(f"prefix length {self.length} out of range")
        if self.network & (self.host_mask()):
            raise SimulationError(
                f"network {int_to_ip(self.network)}/{self.length} has host bits set"
            )

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse ``a.b.c.d/len`` notation."""
        try:
            addr, length = text.split("/")
        except ValueError:
            raise SimulationError(f"malformed prefix {text!r}") from None
        return cls(ip_to_int(addr), int(length))

    def host_mask(self) -> int:
        """Mask of host bits."""
        return (1 << (32 - self.length)) - 1

    def netmask(self) -> int:
        """Mask of network bits."""
        return 0xFFFFFFFF ^ self.host_mask()

    def contains(self, address: int | str) -> bool:
        """Whether an address (int or dotted-quad) falls in this block."""
        value = ip_to_int(address) if isinstance(address, str) else address
        return (value & self.netmask()) == self.network

    @property
    def num_addresses(self) -> int:
        """Total addresses in the block (network/broadcast included)."""
        return 1 << (32 - self.length)

    def address(self, offset: int) -> str:
        """The dotted-quad address at *offset* within the block."""
        if not 0 <= offset < self.num_addresses:
            raise SimulationError(
                f"offset {offset} outside {self} ({self.num_addresses} addresses)"
            )
        return int_to_ip(self.network + offset)

    def __str__(self) -> str:
        return f"{int_to_ip(self.network)}/{self.length}"


class PrefixAllocator:
    """Hands out disjoint /24 blocks from a private supernet.

    Used to give every AS router block and every IXP peering LAN a
    distinct, recognisable prefix.
    """

    def __init__(self, supernet: str = "10.0.0.0/8") -> None:
        self._super = Prefix.parse(supernet)
        if self._super.length > 24:
            raise SimulationError("supernet must be /24 or shorter")
        self._next = 0
        self._max = 1 << (24 - self._super.length)

    def allocate(self) -> Prefix:
        """Return the next unused /24."""
        if self._next >= self._max:
            raise SimulationError(f"supernet {self._super} exhausted")
        network = self._super.network + (self._next << 8)
        self._next += 1
        return Prefix(network, 24)


class AsnAllocator:
    """Sequential AS-number allocation from a starting value."""

    def __init__(self, start: int = 64512) -> None:
        if start <= 0:
            raise SimulationError("ASN start must be positive")
        self._next = start

    def allocate(self) -> int:
        """Return the next unused ASN."""
        asn = self._next
        self._next += 1
        return asn
