"""Random permutations computed on the fly (ZMap's technique).

Yarrp and FlashRoute both avoid preloading a shuffled target list: they
generate a random permutation of the whole probing domain *incrementally*,
with O(1) memory.  Two classic constructions are provided:

* :class:`FeistelPermutation` — a format-preserving encryption over
  ``[0, n)`` built from a 4-round Feistel network with cycle-walking.  Any
  index can be permuted independently (``perm[i]``), and any value located
  (``perm.position_of(v)``), which FlashRoute uses to order its DCB ring
  at a cost proportional to the ring, not the domain.
* :class:`MultiplicativeCycle` — ZMap's original trick: iterate
  ``x -> g*x mod p`` over the multiplicative group of a prime ``p >= n+1``,
  skipping values outside the domain.  Iteration-only but extremely cheap
  per step; Yarrp uses it over the (prefix x TTL) space.
"""

from __future__ import annotations

import random
from typing import Iterator, List


class PermutationError(ValueError):
    """Raised for empty domains or invalid parameters."""


def _mix(value: int, key: int) -> int:
    """A small invertible-free mixing function for Feistel rounds."""
    value = (value ^ key) * 0x9E3779B1 & 0xFFFFFFFF
    value ^= value >> 15
    value = value * 0x85EBCA77 & 0xFFFFFFFF
    value ^= value >> 13
    return value


class FeistelPermutation:
    """A pseudorandom bijection on ``[0, n)`` with O(1) state.

    The domain is embedded in ``2k`` bits (the smallest even-bit square at
    least ``n``); out-of-range ciphertexts are re-encrypted until they land
    inside the domain (cycle-walking), which preserves bijectivity.
    """

    def __init__(self, n: int, seed: int, rounds: int = 4) -> None:
        if n <= 0:
            raise PermutationError("domain must be non-empty")
        if rounds < 2:
            raise PermutationError("need at least 2 Feistel rounds")
        self.n = n
        half_bits = 1
        while (1 << (2 * half_bits)) < n:
            half_bits += 1
        self._half_bits = half_bits
        self._half_mask = (1 << half_bits) - 1
        rng = random.Random(seed)
        self._keys: List[int] = [rng.getrandbits(32) for _ in range(rounds)]

    def _encrypt_once(self, value: int) -> int:
        left = (value >> self._half_bits) & self._half_mask
        right = value & self._half_mask
        for key in self._keys:
            left, right = right, left ^ (_mix(right, key) & self._half_mask)
        return (left << self._half_bits) | right

    def _decrypt_once(self, value: int) -> int:
        left = (value >> self._half_bits) & self._half_mask
        right = value & self._half_mask
        for key in reversed(self._keys):
            left, right = right ^ (_mix(left, key) & self._half_mask), left
        return (left << self._half_bits) | right

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, index: int) -> int:
        """Permuted value of ``index``; O(1) expected via cycle-walking."""
        if not 0 <= index < self.n:
            raise IndexError(index)
        value = self._encrypt_once(index)
        while value >= self.n:
            value = self._encrypt_once(value)
        return value

    def position_of(self, value: int) -> int:
        """The index ``i`` with ``self[i] == value``: the inverse rounds,
        cycle-walked back into the domain; O(1) expected, like
        :meth:`__getitem__`."""
        if not 0 <= value < self.n:
            raise IndexError(value)
        index = self._decrypt_once(value)
        while index >= self.n:
            index = self._decrypt_once(index)
        return index

    def __iter__(self) -> Iterator[int]:
        for index in range(self.n):
            yield self[index]


def _is_prime(candidate: int) -> bool:
    if candidate < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if candidate % small == 0:
            return candidate == small
    # Deterministic Miller-Rabin for 64-bit integers.
    d, s = candidate - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for base in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(base, d, candidate)
        if x in (1, candidate - 1):
            continue
        for _ in range(s - 1):
            x = x * x % candidate
            if x == candidate - 1:
                break
        else:
            return False
    return True


def _next_prime(value: int) -> int:
    candidate = value if value % 2 else value + 1
    while not _is_prime(candidate):
        candidate += 2
    return candidate


class MultiplicativeCycle:
    """ZMap-style full-cycle iteration over ``[0, n)``.

    Walks ``x -> g*x mod p`` for a prime ``p > n`` and a random generator
    seed element, yielding ``x - 1`` whenever it falls inside the domain.
    Visits every element of the domain exactly once per cycle.
    """

    def __init__(self, n: int, seed: int) -> None:
        if n <= 0:
            raise PermutationError("domain must be non-empty")
        self.n = n
        self.p = _next_prime(max(n + 1, 3))
        rng = random.Random(seed)
        # Any element generates a subgroup; to guarantee a full cycle we use
        # a primitive root when cheap to find, else fall back to repeated
        # squaring checks over random candidates.
        self.g = self._find_generator(rng)
        self.start = rng.randrange(1, self.p)

    def _find_generator(self, rng: random.Random) -> int:
        order = self.p - 1
        factors = _prime_factors(order)
        while True:
            candidate = rng.randrange(2, self.p)
            if all(pow(candidate, order // f, self.p) != 1 for f in factors):
                return candidate

    def __len__(self) -> int:
        return self.n

    def __iter__(self) -> Iterator[int]:
        value = self.start
        for _ in range(self.p - 1):
            if value <= self.n:
                yield value - 1
            value = value * self.g % self.p

    def value_at_step(self, steps: int) -> int:
        """Group element after ``steps`` multiplications: O(log steps) via
        modular exponentiation, so a checkpointed cursor resumes without
        replaying the walk."""
        if steps < 0:
            raise PermutationError("steps must be non-negative")
        return self.start * pow(self.g, steps, self.p) % self.p

    def iter_steps(self, first_step: int = 0,
                   stop_step: int = None) -> Iterator[tuple]:
        """Iterate ``(step, domain_value)`` pairs over group steps
        ``[first_step, stop_step)`` (``stop_step`` defaults to the full
        cycle length ``p - 1``).

        ``step`` counts *group* steps (including skipped out-of-domain
        elements), so it is the resumable cursor a checkpoint stores;
        ``iter_steps(0)`` yields exactly the values of ``__iter__``.
        """
        if stop_step is None:
            stop_step = self.p - 1
        if not 0 <= first_step <= self.p - 1:
            raise PermutationError(
                f"first_step must be in [0, {self.p - 1}]")
        if not first_step <= stop_step <= self.p - 1:
            raise PermutationError(
                f"stop_step must be in [{first_step}, {self.p - 1}]")
        value = self.value_at_step(first_step)
        for step in range(first_step, stop_step):
            if value <= self.n:
                yield step, value - 1
            value = value * self.g % self.p


def _prime_factors(value: int) -> List[int]:
    factors = []
    divisor = 2
    while divisor * divisor <= value:
        if value % divisor == 0:
            factors.append(divisor)
            while value % divisor == 0:
                value //= divisor
        divisor += 1 if divisor == 2 else 2
    if value > 1:
        factors.append(value)
    return factors
