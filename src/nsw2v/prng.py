"""Deterministic instance generation built on a splitmix64 stream.

The generator is pinned here (rather than relying on a library RNG) so that
the same seed produces byte-identical instance files on every platform.

`splitmix64` yields the stream one value at a time and is the reference.
`random_big_sets` computes the same stream in blocks: one Python int holds up
to _BLOCK values, one 128-bit slot each, lowest slot first. Slot k of a block
that starts at stream index s holds the state (seed + (s+k+1)·γ) mod 2^64, and
each mixing step acts on all slots at once with whole-int arithmetic. A slot
never borrows from or carries into its neighbour:

- a value below 2^64 times a 64-bit constant is below 2^128;
- a right shift spills bits only into the upper half of the slot below, and
  the `& mask` that follows clears them before the next multiply;
- the compare computes 2^64 + threshold - 1 - z per slot, which lies in
  [0, 2^65) for every z < 2^64 and threshold in [0, 2^64]. Its bit 64, the low
  bit of byte 8 of the slot, is set exactly when z < threshold.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import chain, compress, islice
from typing import Iterator

from .core import MAX_PAIRS, Instance

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
# values per block: enough to amortise the per-operation cost, small enough
# that the block's ints (64 KiB each) stay in cache
_BLOCK = 4096


def splitmix64(seed: int) -> Iterator[int]:
    """Yield the splitmix64 stream of 64-bit values for a 64-bit seed."""
    state = seed & _MASK
    while True:
        state = (state + _GAMMA) & _MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        yield z ^ (z >> 31)


@cache
def _lanes() -> tuple[int, int, int]:
    """The full block's constants: 1 in each slot, γ·(k+1) in slot k, 2^64 - 1 in each slot."""
    ones = int.from_bytes(b"\x01".ljust(16, b"\x00") * _BLOCK, "little")
    steps = int.from_bytes(
        b"".join((_GAMMA * (k + 1)).to_bytes(16, "little") for k in range(_BLOCK)), "little"
    )
    return ones, steps, ones * _MASK


def _big_flags(seed: int, start: int, count: int, threshold: int) -> bytes:
    """One byte per stream value start..start+count-1: 1 if it lies below threshold, else 0."""
    ones, steps, mask = _lanes()
    if count < _BLOCK:
        low = (1 << (128 * count)) - 1
        ones, steps, mask = ones & low, steps & low, mask & low
    z = (((seed + start * _GAMMA) & _MASK) * ones + steps) & mask
    z = ((z ^ (z >> 30)) & mask) * 0xBF58476D1CE4E5B9 & mask
    z = ((z ^ (z >> 27)) & mask) * 0x94D049BB133111EB & mask
    z = (z ^ (z >> 31)) & mask
    return ((_MASK + threshold) * ones - z).to_bytes(16 * count, "little")[8::16]


def random_big_rows(n: int, m: int, big_prob: Fraction, seed: int) -> Iterator[list[int]]:
    """Each agent's big goods, ascending, one row at a time; see random_big_sets.

    The arguments are checked at the call, before any draw; the rows are then
    drawn only as they are consumed, so a caller that writes each row out
    holds one row and one block at a time.
    """
    big_prob = Fraction(big_prob)
    if not 0 <= big_prob <= 1:
        raise ValueError(f"big_prob must lie in [0, 1], got {big_prob}")
    if n * m > MAX_PAIRS:
        raise ValueError(f"pair count n*m = {n * m} exceeds the limit of {MAX_PAIRS}")
    threshold = (big_prob.numerator << 64) // big_prob.denominator
    total = n * m
    flags = chain.from_iterable(
        _big_flags(seed, start, min(_BLOCK, total - start), threshold)
        for start in range(0, total, _BLOCK)
    )
    goods = range(m)
    return (list(compress(goods, islice(flags, m))) for _ in range(n))


def random_big_sets(
    n: int, m: int, big_prob: Fraction, seed: int
) -> tuple[frozenset[int], ...]:
    """Make each (agent, good) pair big independently with probability big_prob.

    Consumes exactly one stream value per pair, agents outermost (row-major),
    so the draw for a pair never shifts when other parameters stay fixed:
    pair (i, g) is big when value i*m + g of splitmix64(seed) lies below
    floor(big_prob·2^64). The values are computed _BLOCK at a time in packed
    128-bit slots (see the module docstring) and cut into rows from one
    stream of flag bytes by random_big_rows. More than core.MAX_PAIRS pairs
    are refused before any draw.
    """
    return tuple(map(frozenset, random_big_rows(n, m, big_prob, seed)))


def random_instance(
    n: int, m: int, p: int, q: int, big_prob: Fraction, seed: int
) -> Instance:
    return Instance(n, m, p, q, random_big_sets(n, m, big_prob, seed))
