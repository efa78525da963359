"""IPv4 prefixes (CIDR blocks) and address ranges.

A :class:`Prefix` is an immutable (network, length) pair. Prefixes are the
unit of route entries, address allocations and Hobbit blocks throughout the
library. :class:`AddressRange` represents the numeric span of an address
group (used by the hierarchy test in :mod:`repro.core.hierarchy`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence

from . import addr as addrmod
from .addr import ADDRESS_BITS, AddressError


@dataclass(frozen=True, order=True)
class Prefix:
    """An IPv4 CIDR prefix: ``network`` is the (masked) network address."""

    network: int
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.length <= ADDRESS_BITS:
            raise AddressError(f"prefix length {self.length} out of range")
        addrmod.check_address(self.network)
        if self.network & addrmod.hostmask(self.length):
            raise AddressError(
                f"{addrmod.format_address(self.network)}/{self.length} has "
                "host bits set"
            )

    # -- construction -------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse ``"a.b.c.d/len"`` notation (a bare address means /32)."""
        if "/" in text:
            addr_text, _, len_text = text.partition("/")
            if not len_text.isdigit():
                raise AddressError(f"bad prefix length in {text!r}")
            length = int(len_text)
        else:
            addr_text, length = text, ADDRESS_BITS
        return cls(addrmod.parse(addr_text), length)

    @classmethod
    def of(cls, addr: int, length: int) -> "Prefix":
        """Prefix of the given length containing ``addr``."""
        return cls(addrmod.network_of(addr, length), length)

    @classmethod
    def host(cls, addr: int) -> "Prefix":
        """A /32 prefix for a single address."""
        return cls(addrmod.check_address(addr), ADDRESS_BITS)

    # -- basic properties ---------------------------------------------

    @property
    def first(self) -> int:
        """Lowest address in the prefix."""
        return self.network

    @property
    def last(self) -> int:
        """Highest address in the prefix."""
        return self.network | addrmod.hostmask(self.length)

    @property
    def size(self) -> int:
        """Number of addresses covered."""
        return 1 << (ADDRESS_BITS - self.length)

    def __str__(self) -> str:
        return f"{addrmod.format_address(self.network)}/{self.length}"

    def __contains__(self, item: object) -> bool:
        if isinstance(item, Prefix):
            return self.contains_prefix(item)
        if isinstance(item, int):
            return self.contains_address(item)
        return NotImplemented

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.first, self.last + 1))

    # -- relationships -------------------------------------------------

    def contains_address(self, addr: int) -> bool:
        """True if ``addr`` is inside this prefix."""
        addrmod.check_address(addr)
        return addrmod.network_of(addr, self.length) == self.network

    def contains_prefix(self, other: "Prefix") -> bool:
        """True if ``other`` is equal to or nested inside this prefix."""
        return (
            other.length >= self.length
            and addrmod.network_of(other.network, self.length) == self.network
        )

    # -- derivation ----------------------------------------------------

    def subnets(self, new_length: int | None = None) -> Iterator["Prefix"]:
        """Enumerate subnets of ``new_length`` (default: one bit down)."""
        if new_length is None:
            new_length = self.length + 1
        if not self.length <= new_length <= ADDRESS_BITS:
            raise AddressError(
                f"cannot split /{self.length} into /{new_length}"
            )
        step = 1 << (ADDRESS_BITS - new_length)
        for network in range(self.first, self.last + 1, step):
            yield Prefix(network, new_length)

    def slash24s(self) -> Iterator["Prefix"]:
        """Enumerate the /24 blocks within this prefix (which must be
        /24 or wider)."""
        if self.length > 24:
            raise AddressError(f"/{self.length} is narrower than /24")
        return self.subnets(24)


def enclosing_prefix(addresses: Sequence[int]) -> Prefix:
    """The longest prefix whose network covers every address given.

    This is the "subnet whose network prefix is the longest common prefix
    of the addresses within group" from Section 4.2.
    """
    low, high = addrmod.summarize_bounds(addresses)
    length = addrmod.common_prefix_length(low, high)
    return Prefix.of(low, length)


@dataclass(frozen=True, order=True)
class AddressRange:
    """A closed numeric range of addresses ``[first, last]``.

    Ranges are how Hobbit represents groups of addresses sharing a
    last-hop router: "representing each group by the range from the
    numerically smallest address in the group to the largest one"
    (Section 2.3).
    """

    first: int
    last: int

    def __post_init__(self) -> None:
        addrmod.check_address(self.first)
        addrmod.check_address(self.last)
        if self.last < self.first:
            raise AddressError("range end precedes start")

    @property
    def size(self) -> int:
        return self.last - self.first + 1

    def __str__(self) -> str:
        return (
            f"[{addrmod.format_address(self.first)}, "
            f"{addrmod.format_address(self.last)}]"
        )

    def disjoint(self, other: "AddressRange") -> bool:
        """True if the two ranges share no address."""
        return self.last < other.first or other.last < self.first


def to_prefixes(first: int, last: int) -> List[Prefix]:
    """Minimal list of CIDR prefixes exactly covering ``[first, last]``.

    >>> [str(p) for p in to_prefixes(addrmod.parse("10.0.0.0"),
    ...                              addrmod.parse("10.0.0.127"))]
    ['10.0.0.0/25']
    """
    addrmod.check_address(first)
    addrmod.check_address(last)
    if last < first:
        raise AddressError("range end precedes start")
    prefixes: List[Prefix] = []
    cursor = first
    while cursor <= last:
        # Largest power-of-two block aligned at cursor...
        align = (cursor & -cursor).bit_length() - 1 if cursor else ADDRESS_BITS
        # ...that does not overshoot the range end.
        span = last - cursor + 1
        fit = span.bit_length() - 1
        bits = min(align, fit)
        prefixes.append(Prefix(cursor, ADDRESS_BITS - bits))
        cursor += 1 << bits
    return prefixes
