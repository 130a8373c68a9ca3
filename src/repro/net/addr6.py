"""IPv6 address handling (int-based, like the IPv4 layer).

The paper's §5.4 plans a FlashRoute extension to IPv6, noting the control
state must be redesigned because allocated IPv6 addresses are sparse [20] —
no 2^24-style array can index them.  The simulator's IPv6 address plan
(``repro.simnet.topology``) and the examples read and print addresses
through this module: parsing and formatting with RFC 5952 ``::``
compression.
"""

from __future__ import annotations

from typing import List

MAX_IPV6 = 2**128 - 1


class Address6Error(ValueError):
    """Raised for malformed IPv6 text or out-of-range integers."""


def ip6_to_int(text: str) -> int:
    """Parse an IPv6 address (with optional ``::`` compression).

    >>> hex(ip6_to_int("2001:db8::1"))
    '0x20010db8000000000000000000000001'
    """
    text = text.strip()
    if text.count("::") > 1:
        raise Address6Error(f"multiple '::' in {text!r}")
    if ":::" in text:
        raise Address6Error(f"':::' in {text!r}")

    def parse_groups(chunk: str) -> List[int]:
        if not chunk:
            return []
        groups = []
        for part in chunk.split(":"):
            if not 1 <= len(part) <= 4:
                raise Address6Error(f"bad group {part!r} in {text!r}")
            try:
                value = int(part, 16)
            except ValueError as exc:
                raise Address6Error(f"bad group {part!r} in {text!r}") from exc
            groups.append(value)
        return groups

    if "::" in text:
        head_text, tail_text = text.split("::")
        head = parse_groups(head_text)
        tail = parse_groups(tail_text)
        missing = 8 - len(head) - len(tail)
        if missing < 1:
            raise Address6Error(f"'::' expands to nothing in {text!r}")
        groups = head + [0] * missing + tail
    else:
        groups = parse_groups(text)
        if len(groups) != 8:
            raise Address6Error(f"need 8 groups in {text!r}")

    value = 0
    for group in groups:
        value = (value << 16) | group
    return value


def int_to_ip6(value: int) -> str:
    """Format an integer as canonical (RFC 5952) IPv6 text.

    >>> int_to_ip6(0x20010db8000000000000000000000001)
    '2001:db8::1'
    """
    if not 0 <= value <= MAX_IPV6:
        raise Address6Error(f"address out of range: {value:#x}")
    groups = [(value >> shift) & 0xFFFF for shift in range(112, -16, -16)]

    # Longest run of zero groups (length >= 2) becomes '::'.
    best_start, best_len = -1, 0
    run_start, run_len = -1, 0
    for index, group in enumerate(groups):
        if group == 0:
            if run_start < 0:
                run_start, run_len = index, 0
            run_len += 1
            if run_len > best_len:
                best_start, best_len = run_start, run_len
        else:
            run_start, run_len = -1, 0
    if best_len < 2:
        return ":".join(f"{group:x}" for group in groups)
    head = ":".join(f"{group:x}" for group in groups[:best_start])
    tail = ":".join(f"{group:x}" for group in groups[best_start + best_len:])
    return f"{head}::{tail}"
