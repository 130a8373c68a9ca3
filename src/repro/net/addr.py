"""IPv4 address and prefix arithmetic.

Every address in this library is a plain ``int`` in ``[0, 2**32)``.  Working
on integers instead of ``ipaddress.IPv4Address`` objects keeps the probing hot
paths allocation-free, matches how FlashRoute's C++ implementation treats
addresses, and makes prefix arithmetic (``addr >> 8`` for the /24 index)
trivial.  This module provides the conversions and the small amount of prefix
math the rest of the library needs.
"""

from __future__ import annotations

import re
from typing import Iterator, List, Tuple

MAX_IPV4 = 2**32 - 1

#: Number of host bits in the granularity FlashRoute scans at (one target
#: per /24 block).
SLASH24_HOST_BITS = 8

#: Four decimal octets as ``ipaddress.IPv4Address`` accepts them: ASCII
#: digits only (``\d`` would admit any Unicode digit) and no leading zero,
#: which ``inet_aton`` would read as octal (CVE-2021-29921).  Matched with
#: ``fullmatch``: ``$`` would also match before a trailing newline.
_OCTET = r"(0|[1-9][0-9]{0,2})"
_DOTTED_QUAD_RE = re.compile(r"\.".join([_OCTET] * 4))


class AddressError(ValueError):
    """Raised for malformed dotted quads or out-of-range integer addresses."""


def ip_to_int(dotted: str) -> int:
    """Parse a dotted-quad string into an integer address.

    >>> ip_to_int("10.0.0.1")
    167772161
    """
    match = _DOTTED_QUAD_RE.fullmatch(dotted)
    if match is None:
        raise AddressError(f"not a dotted quad: {dotted!r}")
    octets = [int(part) for part in match.groups()]
    if any(octet > 255 for octet in octets):
        raise AddressError(f"octet out of range in {dotted!r}")
    return (octets[0] << 24) | (octets[1] << 16) | (octets[2] << 8) | octets[3]


def int_to_ip(addr: int) -> str:
    """Format an integer address as a dotted quad.

    >>> int_to_ip(167772161)
    '10.0.0.1'
    """
    _check_addr(addr)
    return f"{(addr >> 24) & 0xFF}.{(addr >> 16) & 0xFF}.{(addr >> 8) & 0xFF}.{addr & 0xFF}"


def _check_addr(addr: int) -> None:
    if not 0 <= addr <= MAX_IPV4:
        raise AddressError(f"address out of range: {addr:#x}")


def prefix24_of(addr: int) -> int:
    """Return the /24 prefix index (upper 24 bits) of an address."""
    _check_addr(addr)
    return addr >> SLASH24_HOST_BITS


def prefix24_base(prefix_index: int) -> int:
    """Return the network (.0) address of a /24 prefix index."""
    if not 0 <= prefix_index < 2**24:
        raise AddressError(f"/24 prefix index out of range: {prefix_index}")
    return prefix_index << SLASH24_HOST_BITS


def addr_in_prefix24(prefix_index: int, host: int) -> int:
    """Compose an address from a /24 prefix index and a host octet."""
    if not 0 <= host <= 255:
        raise AddressError(f"host octet out of range: {host}")
    return prefix24_base(prefix_index) | host


def host_octet(addr: int) -> int:
    """Return the host (last) octet of an address."""
    _check_addr(addr)
    return addr & 0xFF


def prefix_of(addr: int, length: int) -> int:
    """Return the network address of ``addr`` under a ``/length`` mask."""
    _check_addr(addr)
    if not 0 <= length <= 32:
        raise AddressError(f"prefix length out of range: {length}")
    if length == 0:
        return 0
    mask = (MAX_IPV4 << (32 - length)) & MAX_IPV4
    return addr & mask


def cidr_to_range(cidr: str) -> Tuple[int, int]:
    """Parse ``a.b.c.d/len`` into an inclusive ``(first, last)`` address pair."""
    try:
        base_text, length_text = cidr.split("/")
    except ValueError as exc:
        raise AddressError(f"not CIDR notation: {cidr!r}") from exc
    length = int(length_text)
    if not 0 <= length <= 32:
        raise AddressError(f"prefix length out of range in {cidr!r}")
    base = prefix_of(ip_to_int(base_text), length)
    span = 1 << (32 - length)
    return base, base + span - 1


def iter_prefix24(cidr: str) -> Iterator[int]:
    """Yield every /24 prefix index covered by a CIDR block (>= /24 only)."""
    first, last = cidr_to_range(cidr)
    if last - first + 1 < 256:
        raise AddressError(f"{cidr!r} is smaller than a /24")
    for prefix_index in range(first >> 8, (last >> 8) + 1):
        yield prefix_index


# Reserved address space that FlashRoute excludes from scans by default.
# These mirror the exclusions in the paper: private, multicast, reserved.
RESERVED_CIDRS: List[str] = [
    "0.0.0.0/8",        # "this network"
    "10.0.0.0/8",       # private
    "100.64.0.0/10",    # carrier-grade NAT
    "127.0.0.0/8",      # loopback
    "169.254.0.0/16",   # link local
    "172.16.0.0/12",    # private
    "192.0.2.0/24",     # TEST-NET-1
    "192.168.0.0/16",   # private
    "198.18.0.0/15",    # benchmarking
    "198.51.100.0/24",  # TEST-NET-2
    "203.0.113.0/24",   # TEST-NET-3
    "224.0.0.0/4",      # multicast
    "240.0.0.0/4",      # reserved / future use
]


def is_reserved(addr: int) -> bool:
    """True if the address falls into reserved/private/multicast space."""
    _check_addr(addr)
    for cidr in RESERVED_CIDRS:
        first, last = cidr_to_range(cidr)
        if first <= addr <= last:
            return True
    return False
