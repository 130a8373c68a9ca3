"""RFC 1071 Internet checksum.

FlashRoute uses the Internet checksum twice:

* over every IPv4/UDP/ICMP header it emits or parses, and
* over the 4 (IPv6: 16) bytes of the destination address to derive the
  probe's UDP source port (the "Paris" flow identifier), which doubles as
  an integrity check against in-flight destination rewriting (§3.1, §5.3).
"""

from __future__ import annotations

import struct


def internet_checksum(data: bytes) -> int:
    """Compute the 16-bit one's-complement Internet checksum of ``data``.

    Returns the checksum as an integer in ``[0, 0xFFFF]``, ready to be stored
    in a header field.  Odd-length input is zero-padded per RFC 1071.
    """
    if len(data) % 2:
        data += b"\x00"
    total = 0
    # Sum 16-bit big-endian words; fold carries at the end.
    for (word,) in struct.iter_unpack("!H", data):
        total += word
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


def verify_checksum(data: bytes) -> bool:
    """True if ``data`` (with its checksum field in place) sums to zero."""
    if len(data) % 2:
        data += b"\x00"
    total = 0
    for (word,) in struct.iter_unpack("!H", data):
        total += word
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return total == 0xFFFF


def addr_checksum(addr: int) -> int:
    """Checksum of the 4 bytes of an IPv4 address, or the 16 of an IPv6
    one (FlashRoute's source port).

    This is the value FlashRoute writes into the UDP source port of every
    probe for a destination; a response whose quoted source port does not
    match the checksum of its quoted destination reveals that a middlebox
    rewrote the destination address in flight (paper §5.3).

    The result is folded into ``[1024, 65535]`` so probes never use a
    privileged source port.
    """
    # internet_checksum of the address's bytes without the bytes.  An IPv6
    # address first folds to 32 bits (2**32 is 1 modulo 0xFFFF, so the
    # one's-complement sum keeps); two 16-bit words then take one add and
    # one carry fold (0xFFFF + 0xFFFF folds to 0xFFFF; never a second).
    while addr > 0xFFFFFFFF:
        addr = (addr & 0xFFFFFFFF) + (addr >> 32)
    total = (addr >> 16) + (addr & 0xFFFF)
    checksum = ~((total & 0xFFFF) + (total >> 16)) & 0xFFFF
    if checksum < 1024:
        checksum += 1024
    return checksum


def flow_source_port(addr: int, scan_offset: int = 0) -> int:
    """Source port for a probe to ``addr`` in extra scan ``scan_offset``.

    The discovery-optimized mode (paper §5.2) issues extra scans whose probes
    use source port ``P + i`` where ``P`` is the base checksum port; varying
    the port steers per-flow load balancers onto alternative branches.  The
    port is kept in ``[1024, 65535]`` by wrapping within that window.
    """
    port = addr_checksum(addr) + scan_offset
    window = 65536 - 1024
    return 1024 + (port - 1024) % window
