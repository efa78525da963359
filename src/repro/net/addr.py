"""IPv4 address primitives.

Addresses are represented as plain Python ints in ``[0, 2**32)`` throughout
the library: the simulator touches millions of addresses and int arithmetic
is both faster and easier to vectorise with numpy than object wrappers.
This module provides parsing, formatting and octet manipulation for that
representation.
"""

from __future__ import annotations

from typing import Iterable

ADDRESS_BITS = 32
ADDRESS_SPACE_SIZE = 1 << ADDRESS_BITS
MAX_ADDRESS = ADDRESS_SPACE_SIZE - 1


class AddressError(ValueError):
    """Raised when an address or prefix is malformed."""


def parse(text: str) -> int:
    """Parse dotted-decimal notation into an int address.

    >>> parse("192.0.2.1")
    3221225985
    """
    parts = text.split(".")
    if len(parts) != 4:
        raise AddressError(f"expected 4 octets in {text!r}")
    value = 0
    for part in parts:
        if not part.isdigit():
            raise AddressError(f"non-numeric octet in {text!r}")
        octet = int(part)
        if octet > 255:
            raise AddressError(f"octet out of range in {text!r}")
        value = (value << 8) | octet
    return value


def format_address(addr: int) -> str:
    """Format an int address as dotted decimal.

    >>> format_address(3221225985)
    '192.0.2.1'
    """
    check_address(addr)
    return (
        f"{addr >> 24}.{(addr >> 16) & 0xFF}.{(addr >> 8) & 0xFF}."
        f"{addr & 0xFF}"
    )


def check_address(addr: int) -> int:
    """Validate that ``addr`` is inside the IPv4 space; return it."""
    if not 0 <= addr <= MAX_ADDRESS:
        raise AddressError(f"address {addr} outside IPv4 space")
    return addr


def octets(addr: int) -> tuple[int, int, int, int]:
    """Return the four octets of an address, most significant first."""
    check_address(addr)
    return (
        (addr >> 24) & 0xFF,
        (addr >> 16) & 0xFF,
        (addr >> 8) & 0xFF,
        addr & 0xFF,
    )


def netmask(prefix_len: int) -> int:
    """Return the netmask for a prefix length as an int.

    >>> format_address(netmask(24))
    '255.255.255.0'
    """
    if not 0 <= prefix_len <= ADDRESS_BITS:
        raise AddressError(f"prefix length {prefix_len} out of range")
    if prefix_len == 0:
        return 0
    return (MAX_ADDRESS << (ADDRESS_BITS - prefix_len)) & MAX_ADDRESS


def hostmask(prefix_len: int) -> int:
    """Return the host mask (inverse netmask) for a prefix length."""
    return MAX_ADDRESS ^ netmask(prefix_len)


def network_of(addr: int, prefix_len: int) -> int:
    """Return the network address of ``addr`` under ``prefix_len``."""
    check_address(addr)
    return addr & netmask(prefix_len)


def slash24_of(addr: int) -> int:
    """Return the /24 network address containing ``addr``."""
    check_address(addr)
    return addr & 0xFFFFFF00


def common_prefix_length(a: int, b: int) -> int:
    """Length of the longest common prefix of two addresses (0..32).

    >>> common_prefix_length(parse("10.0.0.0"), parse("10.0.0.255"))
    24
    """
    check_address(a)
    check_address(b)
    diff = a ^ b
    if diff == 0:
        return ADDRESS_BITS
    return ADDRESS_BITS - diff.bit_length()


def summarize_bounds(addrs: Iterable[int]) -> tuple[int, int]:
    """Return (min, max) of a non-empty iterable of addresses."""
    iterator = iter(addrs)
    try:
        first = next(iterator)
    except StopIteration:
        raise AddressError("cannot summarize an empty address set") from None
    low = high = check_address(first)
    for addr in iterator:
        check_address(addr)
        if addr < low:
            low = addr
        elif addr > high:
            high = addr
    return low, high
