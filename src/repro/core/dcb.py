"""The destination control state (paper §3.4, Listing 1 and Figure 5).

One *destination control block* (DCB) per /24 prefix tracks the probing
progress toward that prefix's representative address.  The blocks live in a
flat array indexed by prefix, so the receive path locates the DCB of any
response in O(1) from the quoted destination address; a circular doubly
linked list is overlaid on the array in random-permutation order, so the
send path walks destinations in shuffled order and unlinks finished ones in
O(1).

The C++ original stores five scalars per DCB plus two link pointers; we
store the same fields in parallel ``bytearray``/``array`` columns (struct-of-
arrays) — the Python-idiomatic equivalent of its compact 900 MB layout, and
several times smaller and faster than one object per destination.

Thread-safety note: the paper guards each DCB with a mutex because separate
send/receive threads touch ``nextBackwardHop`` and ``forwardHorizon``.  Our
engines interleave sending and receiving deterministically on a virtual
clock (see DESIGN.md §6), so the columns need no locking; the same
information-flow races are modeled by only draining responses that arrived
before the virtual send time.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional

FLAG_DEST_REACHED = 0x01
FLAG_REMOVED = 0x02
FLAG_DISTANCE_MEASURED = 0x04
FLAG_DISTANCE_PREDICTED = 0x08
FLAG_PREPROBE_FOLDED = 0x10

_NO_LINK = -1

#: ``bytes.translate`` table setting FLAG_REMOVED on every flags byte.
_MARK_REMOVED = bytes(flags | FLAG_REMOVED for flags in range(256))


@dataclass
class DCBView:
    """A readable snapshot of one DCB, for tests and debugging."""

    index: int
    destination: int
    split_ttl: int
    next_backward: int
    next_forward: int
    forward_horizon: int
    dest_reached: bool
    removed: bool
    distance_measured: bool
    distance_predicted: bool


class DCBArray:
    """Array of destination control blocks plus the overlaid ring."""

    def __init__(self, destinations: List[int], split_ttl: int,
                 gap_limit: int) -> None:
        if not destinations:
            raise ValueError("need at least one destination")
        if not 1 <= split_ttl <= 255:
            raise ValueError("split_ttl out of byte range")
        size = len(destinations)
        self.size = size
        self.destination = list(destinations)
        self.split = bytearray([split_ttl] * size)
        self.next_backward = bytearray([split_ttl] * size)
        self.next_forward = bytearray([min(split_ttl + 1, 255)] * size)
        self.forward_horizon = bytearray(
            [min(split_ttl + gap_limit, 255)] * size)
        self.flags = bytearray(size)
        self.next_index = array("i", [_NO_LINK] * size)
        self.prev_index = array("i", [_NO_LINK] * size)
        self._head = _NO_LINK
        self._live = 0

    # ------------------------------------------------------------------ #
    # Ring construction and maintenance
    # ------------------------------------------------------------------ #

    def link_ring(self, order: Iterable[int]) -> None:
        """Thread the circular list through the array in ``order``.

        ``order`` is the random permutation of array indexes; indexes absent
        from it (excluded prefixes) keep their slots but are marked removed,
        mirroring the paper's handling of reserved/excluded space.
        """
        sequence = list(order)
        if not sequence:
            raise ValueError("permutation order is empty")
        self.flags[:] = self.flags.translate(_MARK_REMOVED)
        previous = sequence[-1]
        for index in sequence:
            if not 0 <= index < self.size:
                raise IndexError(index)
            self.prev_index[index] = previous
            self.next_index[previous] = index
            self.flags[index] &= ~FLAG_REMOVED & 0xFF
            previous = index
        self._head = sequence[0]
        self._live = len(sequence)

    def __len__(self) -> int:
        return self._live

    @property
    def head(self) -> int:
        """Current entry point of the ring, or -1 when empty."""
        return self._head

    def remove(self, index: int) -> None:
        """Unlink a finished destination from the ring in O(1)."""
        if self.flags[index] & FLAG_REMOVED:
            return
        nxt = self.next_index[index]
        prv = self.prev_index[index]
        if nxt == index:  # last element
            self._head = _NO_LINK
        else:
            self.next_index[prv] = nxt
            self.prev_index[nxt] = prv
            if self._head == index:
                self._head = nxt
        self.flags[index] |= FLAG_REMOVED
        self._live -= 1

    def iter_ring(self) -> Iterator[int]:
        """One full trip around the ring as it currently stands.

        Safe against removal of the yielded element (the successor is read
        before control returns to the caller), which is exactly the sender's
        walk-and-unlink pattern.
        """
        count = self._live
        index = self._head
        while count > 0 and index != _NO_LINK:
            nxt = self.next_index[index]
            yield index
            index = nxt
            count -= 1

    # ------------------------------------------------------------------ #
    # Flag helpers
    # ------------------------------------------------------------------ #

    def is_removed(self, index: int) -> bool:
        return bool(self.flags[index] & FLAG_REMOVED)

    def mark_dest_reached(self, index: int) -> None:
        self.flags[index] |= FLAG_DEST_REACHED

    def dest_reached(self, index: int) -> bool:
        return bool(self.flags[index] & FLAG_DEST_REACHED)

    def set_distance(self, index: int, distance: int,
                     predicted: bool) -> None:
        """Install a measured/predicted hop distance as the split point."""
        self.flags[index] |= (FLAG_DISTANCE_PREDICTED if predicted
                              else FLAG_DISTANCE_MEASURED)
        self.split[index] = distance
        self.next_backward[index] = distance
        self.next_forward[index] = min(distance + 1, 255)

    def view(self, index: int) -> DCBView:
        """A snapshot of one block (tests, debugging, docs examples)."""
        flags = self.flags[index]
        return DCBView(
            index=index,
            destination=self.destination[index],
            split_ttl=self.split[index],
            next_backward=self.next_backward[index],
            next_forward=self.next_forward[index],
            forward_horizon=self.forward_horizon[index],
            dest_reached=bool(flags & FLAG_DEST_REACHED),
            removed=bool(flags & FLAG_REMOVED),
            distance_measured=bool(flags & FLAG_DISTANCE_MEASURED),
            distance_predicted=bool(flags & FLAG_DISTANCE_PREDICTED),
        )

    # ------------------------------------------------------------------ #
    # Checkpoint serialization
    # ------------------------------------------------------------------ #

    def state_dict(self) -> dict:
        """JSON-serializable snapshot of the full control state, including
        the ring links, for checkpoint/resume.  Byte columns travel as hex
        strings; the link arrays as plain int lists."""
        return {
            "size": self.size,
            "destination": list(self.destination),
            "split": self.split.hex(),
            "next_backward": self.next_backward.hex(),
            "next_forward": self.next_forward.hex(),
            "forward_horizon": self.forward_horizon.hex(),
            "flags": self.flags.hex(),
            "next_index": list(self.next_index),
            "prev_index": list(self.prev_index),
            "head": self._head,
            "live": self._live,
        }

    def restore_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot in place."""
        if state["size"] != self.size:
            raise ValueError(
                f"checkpointed DCB array has {state['size']} slots, "
                f"this scan has {self.size}")
        self.destination = list(state["destination"])
        self.split = bytearray.fromhex(state["split"])
        self.next_backward = bytearray.fromhex(state["next_backward"])
        self.next_forward = bytearray.fromhex(state["next_forward"])
        self.forward_horizon = bytearray.fromhex(state["forward_horizon"])
        self.flags = bytearray.fromhex(state["flags"])
        self.next_index = array("i", state["next_index"])
        self.prev_index = array("i", state["prev_index"])
        self._head = state["head"]
        self._live = state["live"]

    def memory_footprint(self) -> int:
        """Approximate bytes used by the control state (paper: ~900 MB for
        the full 2^24-slot array; ours scales with the scanned space)."""
        import sys
        total = sys.getsizeof(self.destination)
        total += sum(sys.getsizeof(column) for column in (
            self.split, self.next_backward, self.next_forward,
            self.forward_horizon, self.flags))
        total += self.next_index.itemsize * len(self.next_index)
        total += self.prev_index.itemsize * len(self.prev_index)
        return total


#: Bytes one DCB occupies in the C++ original (Listing 1's fields, the two
#: 32-bit links, a mutex, and allocator overhead): the paper reports
#: ~900 MB for the 2^24-slot /24 array, i.e. ~56 bytes per slot.
PAPER_BYTES_PER_DCB = 56


def projected_scan_memory(prefix_length: int = 24,
                          bytes_per_dcb: int = PAPER_BYTES_PER_DCB) -> int:
    """Memory the control state would need at one target per ``/prefix_length``.

    Reproduces the paper's §5.4 scaling argument: the array grows
    exponentially with the prefix length — ~900 MB at /24, under 15 GB at
    /28 (still feasible), ~230 GB at /32 (impractical).
    """
    if not 0 <= prefix_length <= 32:
        raise ValueError("prefix_length must be within [0, 32]")
    if bytes_per_dcb <= 0:
        raise ValueError("bytes_per_dcb must be positive")
    return (1 << prefix_length) * bytes_per_dcb


def ring_order(size: int, seed: int, members: Iterable[int]) -> List[int]:
    """The shuffled DCB order of ``members`` (distinct array indexes): the
    order in which a walk of the Feistel permutation of ``[0, size)``
    meets them.  Each member is sorted on its position in that walk
    (:meth:`FeistelPermutation.position_of`), so the cost is
    O(members · log members) whatever ``size`` is — a shard slice orders
    its own ~1/16 of the array, not all of it.  Slots left out stay in
    the array but outside the ring, as in the paper's initialization
    (§3.4)."""
    from .permutation import FeistelPermutation

    return sorted(members, key=FeistelPermutation(size, seed).position_of)


def initial_order(size: int, seed: int,
                  excluded: Optional[Iterable[int]] = None) -> List[int]:
    """:func:`ring_order` of every array index except ``excluded``."""
    banned = frozenset(excluded) if excluded is not None else frozenset()
    return ring_order(size, seed,
                      (index for index in range(size)
                       if index not in banned))
