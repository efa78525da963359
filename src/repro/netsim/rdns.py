"""Reverse DNS name generation.

Sections 7.2 and 7.3 of the paper rely on rDNS *patterns*: cellular
pools, datacenter servers and residential lines get names under
operator-specific naming schemes, and the number of distinct patterns in
a sample measures its representativeness. The generator assigns each pod
a scheme plus a pattern id; names are deterministic functions of the
address so lookups need no storage.

A scheme is a family of name templates; a (scheme, pattern id) pair is a
concrete *pattern* — e.g. the Time-Warner-like scheme has dozens of
(region, service-class) patterns, matching the published rr.com naming
grammar the paper exploits for Figure 12.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..net.addr import octets
from ..util.hashing import mix, mix_to_unit, stable_string_hash

_RDNS = stable_string_hash("rdns-coverage")

#: Per-scheme fraction of hosts that have an rDNS name at all.
_COVERAGE: Dict[str, float] = {
    "tele2-cellular": 1.0,
    "ocn-cellular": 0.97,
    "ec2": 1.0,
    "hosting-generic": 0.9,
    "cox-business": 0.95,
    "verizon-cellular": 0.98,
    "residential": 0.85,
    "twc": 0.95,
    "singtel-dc": 0.9,
    "softbank-dc": 0.9,
    "korea-customer": 0.3,
    "none": 0.0,
}

_TELE2_CC = ("se", "hr", "nl")
_EC2_REGIONS = (
    "us-west-1",
    "ap-northeast-1",
    "eu-west-1",
    "us-east-1",
    "ap-southeast-2",
)
_TWC_REGIONS = (
    "nc", "ny", "socal", "tx", "midwest", "maine", "carolina", "hawaii",
    "kc", "nyc", "rochester", "columbus",
)
_TWC_SERVICES = ("res", "biz", "cable")
_OCN_REGIONS = ("tokyo", "osaka", "nagoya", "fukuoka")
_CITIES = (
    "phoenix", "denver", "atlanta", "dublin", "paris", "seoul", "tokyo",
    "copenhagen", "tbilisi", "kuala-lumpur",
)


def _dashed(addr: int) -> str:
    return "-".join(str(o) for o in octets(addr))


def _tele2(pattern_id: int, addr: int) -> str:
    cc = _TELE2_CC[pattern_id % len(_TELE2_CC)]
    return f"m{mix(1, addr) % 10}-{_dashed(addr)}.cust.tele2.{cc}"


def _ocn_cell(pattern_id: int, addr: int) -> str:
    region = _OCN_REGIONS[pattern_id % len(_OCN_REGIONS)]
    return f"p{addr & 0xFFFF}-omed01.{region}.ocn.ne.jp"


def _ec2(pattern_id: int, addr: int) -> str:
    region = _EC2_REGIONS[pattern_id % len(_EC2_REGIONS)]
    return f"ec2-{_dashed(addr)}.{region}.compute.amazonaws.com"


def _hosting(pattern_id: int, addr: int) -> str:
    return f"server-{_dashed(addr)}.dc{pattern_id % 7}.examplehosting.net"


def _cox(pattern_id: int, addr: int) -> str:
    return f"wsip-{_dashed(addr)}.ph.ph.cox.net"


def _vzw(pattern_id: int, addr: int) -> str:
    return f"{addr & 0xFF}.sub-{_dashed(addr >> 8)}.myvzw.com"


def _residential(pattern_id: int, addr: int) -> str:
    city = _CITIES[pattern_id % len(_CITIES)]
    return f"ip{_dashed(addr)}.{city}.example-isp.net"


def _twc(pattern_id: int, addr: int) -> str:
    region = _TWC_REGIONS[pattern_id % len(_TWC_REGIONS)]
    service = _TWC_SERVICES[(pattern_id // len(_TWC_REGIONS)) % len(_TWC_SERVICES)]
    return f"cpe-{_dashed(addr)}.{region}.{service}.rr.com"


def _singtel(pattern_id: int, addr: int) -> str:
    return f"bb{_dashed(addr)}.singnet.com.sg"


def _softbank(pattern_id: int, addr: int) -> str:
    return f"softbank{addr:010d}.bbtec.net"


def _korea(pattern_id: int, addr: int) -> str:
    return f"host-{_dashed(addr)}.kornet.net"


_SCHEMES: Dict[str, Callable[[int, int], str]] = {
    "tele2-cellular": _tele2,
    "ocn-cellular": _ocn_cell,
    "ec2": _ec2,
    "hosting-generic": _hosting,
    "cox-business": _cox,
    "verizon-cellular": _vzw,
    "residential": _residential,
    "twc": _twc,
    "singtel-dc": _singtel,
    "softbank-dc": _softbank,
    "korea-customer": _korea,
}

#: Number of distinct patterns each scheme can produce (for generators).
SCHEME_PATTERN_COUNTS: Dict[str, int] = {
    "tele2-cellular": len(_TELE2_CC),
    "ocn-cellular": len(_OCN_REGIONS),
    "ec2": len(_EC2_REGIONS),
    "hosting-generic": 7,
    "cox-business": 1,
    "verizon-cellular": 1,
    "residential": len(_CITIES),
    "twc": len(_TWC_REGIONS) * len(_TWC_SERVICES),
    "singtel-dc": 1,
    "softbank-dc": 1,
    "korea-customer": 1,
    "none": 0,
}


def rdns_name(scheme: str, pattern_id: int, addr: int, seed: int = 0) -> Optional[str]:
    """The rDNS name for an address, or None if the host has no PTR."""
    if scheme == "none" or scheme not in _SCHEMES:
        return None
    coverage = _COVERAGE.get(scheme, 1.0)
    if mix_to_unit(seed ^ _RDNS, addr) >= coverage:
        return None
    return _SCHEMES[scheme](pattern_id, addr)


def router_rdns_name(router_label: str) -> str:
    """Routers get infrastructure-style names (negative control, §7.2)."""
    return f"{router_label}.core.transit.example.net"
