"""Address-level primitives: addresses, prefixes and CIDR helpers over
lists of /24s."""

from .addr import (
    ADDRESS_BITS,
    ADDRESS_SPACE_SIZE,
    MAX_ADDRESS,
    AddressError,
    common_prefix_length,
    format_address,
    hostmask,
    netmask,
    network_of,
    octets,
    parse,
    slash24_of,
)
from .blockset import (
    adjacency_lcp_lengths,
    contiguous_runs,
    extremes_lcp_length,
    visualization_coordinates,
)
from .prefix import (
    AddressRange,
    Prefix,
    enclosing_prefix,
    to_prefixes,
)

__all__ = [
    "ADDRESS_BITS",
    "ADDRESS_SPACE_SIZE",
    "MAX_ADDRESS",
    "AddressError",
    "AddressRange",
    "Prefix",
    "adjacency_lcp_lengths",
    "common_prefix_length",
    "contiguous_runs",
    "enclosing_prefix",
    "extremes_lcp_length",
    "format_address",
    "hostmask",
    "netmask",
    "network_of",
    "octets",
    "parse",
    "slash24_of",
    "to_prefixes",
    "visualization_coordinates",
]
